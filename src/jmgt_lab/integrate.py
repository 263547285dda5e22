"""Implicit time integration of the Galerkin systems.

Both systems step their momentum balance with BDF2 after a single
implicit-Euler startup step.  The pair is A-stable and strongly damping at
infinity, which the third-order system needs because tau multiplies its
highest derivative.  Each step solves one n x n system for the highest stored
derivative; the lower ones follow by back-substitution.  The stepping core
takes a batch of members that share basis, quadrature and time grid, with
their masses and loads; a single run is a batch of one.  The time-invariant
part of the step matrix is built once per BDF coefficient, and the core
makes one choice per batch: a batch whose masses never change builds one
mass, inverts its two step matrices (startup and BDF2) and steps by
matrix-vector products; any other batch rebuilds the mass and the step
matrix and makes one stacked solve at every step.  Every batch an entry
point builds is of one kind throughout.  A batch of the second kind can also
be a window of consecutive Picard rounds of its members, each round one step
behind the round whose psi_t forms its masses.  ``_prepare_data`` holds the
rules that define the systems for the linear and the fixed-point drivers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .assembly import (
    CoefficientField,
    SpaceTimeFn,
    TimeVaryingMass,
    assemble_boundary,
    assemble_loads,
    assemble_stiffness,
    sample_field,
)
from .basis import End, QuadratureRule, SpectralBasis, build_quadrature
from .exceptions import CompatibilityError, InvalidParameters, SingularStepMatrixError
from .model import BoundaryKind, ModelParams, SolverConfig, WindowedSignal, validate_compatibility

__all__ = [
    "Trajectory",
    "solve_smgt_linear",
    "solve_westervelt_linearized",
    "recover_third",
    "ode_residual_z",
]


@dataclass
class Trajectory:
    """Time series of Galerkin coefficients and their time derivatives.

    For the third-order solver ``coeff_ttt`` is the BDF difference of
    ``coeff_tt``, which satisfies the momentum balance to roundoff, and at
    t = 0 it is F(0)/tau; it is None for the second-order (tau = 0) solver.
    Initial data are homogeneous: xi, xi' and xi'' start at zero.
    """

    times: np.ndarray
    coeff: np.ndarray
    coeff_t: np.ndarray
    coeff_tt: np.ndarray
    coeff_ttt: np.ndarray | None
    bc: BoundaryKind
    params: ModelParams

    @property
    def n_modes(self) -> int:
        return self.coeff.shape[1]

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def __sub__(self, other: "Trajectory") -> "Trajectory":
        """Difference on the common time grid, at the parameters and bc of ``self``.

        ``coeff_ttt`` is None when ``self`` carries none; ValueError when only
        ``self`` carries one.
        """
        if self.times.shape != other.times.shape or not np.allclose(self.times, other.times):
            raise ValueError("trajectories live on different time grids")
        if self.coeff_ttt is not None and other.coeff_ttt is None:
            raise ValueError("other carries no coeff_ttt")
        return replace(
            self,
            coeff=self.coeff - other.coeff,
            coeff_t=self.coeff_t - other.coeff_t,
            coeff_tt=self.coeff_tt - other.coeff_tt,
            coeff_ttt=None if self.coeff_ttt is None else self.coeff_ttt - other.coeff_ttt,
        )


def recover_third(
    params: ModelParams,
    stiffness: np.ndarray,
    mass: np.ndarray,
    load: np.ndarray,
    xi: np.ndarray,
    xi_t: np.ndarray,
    xi_tt: np.ndarray,
    boundary: np.ndarray | None = None,
) -> np.ndarray:
    """Third derivative of the coefficients from the momentum balance.

    Rearranges tau*xi''' + (M + b*beta*B)xi'' + (b*K + c2*beta*B)xi' +
    c2*K*xi = F at one time level; ``boundary`` is the rank-one trace matrix
    of the absorbing end (None under pure Neumann conditions).  The solvers
    do not call it: it is the independent check of their stored ``coeff_ttt``,
    and ``ode_residual_z`` reads the balance through it.
    """
    if params.tau <= 0.0:
        raise ValueError("third-derivative recovery requires tau > 0")
    residual = (
        load
        - mass @ xi_tt
        - params.b * (stiffness @ xi_t)
        - params.c2 * (stiffness @ xi)
    )
    if boundary is not None:
        residual = residual - params.beta * (
            params.b * (boundary @ xi_tt) + params.c2 * (boundary @ xi_t)
        )
    return residual / params.tau


def ode_residual_z(
    traj: Trajectory,
    basis: SpectralBasis,
    field: CoefficientField,
    f: SpaceTimeFn | None = None,
    g: WindowedSignal | None = None,
) -> np.ndarray:
    """Per-step max-abs residual of the first-order ODE satisfied by z = -Delta psi + psi.

    In coefficient space z_i = (1 + lambda_i) xi_i, and the momentum balance
    with K = diag(lambda) reads z_t + (c2/b) z = (1/b)(F - tau*psi_ttt -
    alpha*psi_tt + b*psi_t + c2*psi), where F is the trajectory's actual
    forcing (interior source plus boundary-data term, minus the absorbing-end
    terms in mixed mode).  With R the third derivative that ``recover_third``
    reads from the stored state under ``field``, the residual is
    (1 + lambda)(D xi - xi_t) + (tau/b)(xi_ttt - R), where D is the
    first-order forward difference (backward at the last step), so it decays
    at first order in dt.
    """
    params = traj.params
    if params.tau <= 0.0:
        raise ValueError("the z-ODE diagnostic requires tau > 0")
    quad = build_quadrature(basis.length, 4 * basis.n)
    masses = TimeVaryingMass(basis, quad, sample_field(field, quad.nodes, traj.times))
    loads = assemble_loads(basis, quad, f, g, params, traj.times)
    boundary = assemble_boundary(basis, End.RIGHT) if traj.bc is BoundaryKind.MIXED else None
    stiffness = np.diag(basis.eigenvalues)
    # each state is (load, xi, xi', xi'') at one grid time
    states = zip(loads, traj.coeff, traj.coeff_t, traj.coeff_tt)
    third = np.array([
        recover_third(params, stiffness, masses.matrix(m), *state, boundary)
        for m, state in enumerate(states)
    ])
    rate = np.empty_like(traj.coeff)
    rate[:-1] = np.diff(traj.coeff, axis=0) / traj.dt
    rate[-1] = rate[-2]
    residual = (1.0 + basis.eigenvalues) * (rate - traj.coeff_t)
    residual += (params.tau / params.b) * (traj.coeff_ttt - third)
    return np.abs(residual).max(axis=1)


def _prepare_data(
    order: int,
    members: list[ModelParams],
    basis: SpectralBasis,
    f: SpaceTimeFn | None,
    g: WindowedSignal | None,
    config: SolverConfig,
    bc: BoundaryKind,
) -> tuple[list[ModelParams], QuadratureRule, np.ndarray]:
    """Apply the system's rule, check the signal, then build quadrature and loads.

    ``config.n_modes`` must be the basis size and order 3 needs tau > 0
    (InvalidParameters); order 2, the tau = 0 limit, runs its members at
    tau = 0.  Returns those members, the quadrature and ``loads[b, m]``, the
    load of member b at grid time m.
    """
    if config.n_modes != basis.n:
        rule = f"must equal the basis size {basis.n}, got {config.n_modes}"
        raise InvalidParameters("SolverConfig", [("n_modes", rule)])
    if order == 2:
        members = [replace(params, tau=0.0) for params in members]
    elif (tau := min(params.tau for params in members)) <= 0.0:
        rule = f"must be positive for the third-order system, got {tau}"
        raise InvalidParameters("ModelParams", [("tau", rule)])
    if g is not None:
        required = 4 if bc is BoundaryKind.MIXED else 3
        violations = validate_compatibility(g, required)
        if violations:
            raise CompatibilityError(violations, required)
    quad = build_quadrature(basis.length, config.quad_points)
    loads = np.empty((len(members), config.n_steps + 1, basis.n))
    for member, params in enumerate(members):
        loads[member] = assemble_loads(basis, quad, f, g, params, config.times)
    return members, quad, loads


def _by_member(op, *stacks: np.ndarray):
    """``op`` on arrays stacked by member; when the stack is singular, one member at a time.

    Returns the result and the LinAlgError of each singular member by its
    index in the stack; a singular member's result is NaN.
    """
    try:
        return op(*stacks), {}
    except np.linalg.LinAlgError:
        result = np.full_like(stacks[-1], np.nan)
        errors = {}
        for member in range(len(result)):
            try:
                result[member] = op(*(stack[member] for stack in stacks))
            except np.linalg.LinAlgError as exc:
                errors[member] = exc
        return result, errors


def _integrate(
    order: int,
    members: list[ModelParams],
    basis: SpectralBasis,
    masses: TimeVaryingMass,
    loads: np.ndarray,
    config: SolverConfig,
    bc: BoundaryKind,
    rounds: int = 1,
) -> tuple[list[Trajectory], SingularStepMatrixError | None]:
    """BDF2 core of both solvers; ``order`` is the system's order in time (3 or 2).

    The members of a batch share basis, quadrature (``masses.quad``), time
    grid and boundary kind, and are stepped together; B = 1 is the single
    run.  Member b has parameters ``members[b]``, its masses in ``masses``
    (member axis first, of length B, or 1 for masses shared by all) and its
    load ``loads[b, m]`` at grid time m.  One rule steps the whole batch: if
    ``masses.constant``, the mass is built once and the step matrix is
    inverted at the startup and at the BDF2 c0, so each step is
    ``inverse @ rhs``; otherwise each step rebuilds the mass and the step
    matrix and makes one stacked solve.  Every batch an entry point builds is
    uniform, so a member's numbers are bit for bit those of a lone run; in a
    mixed batch, which only tests build, a constant member solves with the
    others and matches its lone run to roundoff.

    ``rounds`` > 1 steps a window of that many consecutive Picard rounds of
    the members (``masses`` with k, and not constant) as one batch of
    ``rounds * B`` rows, round-major.  Round 0 is the batch above.  Round j
    starts j steps late, and its mass at its step m is formed by
    ``masses.frozen_matrix`` from the psi_t that round j - 1 stored for
    t_{m+1} one loop step earlier.  Row (j, b) stores grid time t in column
    t + j of the window, so each loop step reads and writes one column of the
    rows that are stepping.  The startup and BDF2 gains are per row; they
    differ only at a round's startup step.  So every row does the operations
    of its lone round and keeps its bits.

    The stored derivatives are xi and its first ``order - 1`` time
    derivatives, and the highest of them is the unknown of each step.  With
    s = c0/dt, BDF2 makes each lower derivative j an affine function of it,
    s**-(order - 1 - j) * top + shift_j, and the derivative above it the BDF
    difference s*top - h/dt.  Inserting these into the momentum balance
    leaves one n x n system per step and member.  For order 3 the top is
    xi'' and xi''' is its BDF difference; for order 2 (params at tau = 0, so
    b = delta) the top is xi' and xi'' is its BDF difference.

    The step matrix is the gain-weighted sum of the coefficients; its elastic,
    damping and inertia terms depend only on c0 (1 at the startup step, 1.5
    after it), so they are summed once per c0.

    Every row is stepped to the horizon, and failures are read after the
    loop: a row fails at its first step, step 0 (the F(0)/tau of order 3)
    included, with a stored derivative that is not finite.  So numpy's
    overflow and invalid-value warnings are off in the loop.  A singular
    stacked solve or inversion falls back to one row at a time, and a
    singular row's step or inverse is NaN.  Returns the trajectories and
    None, or the trajectories of the rows before the first failing one and
    its SingularStepMatrixError, caused by that step's LinAlgError if any:
    the failure of running the rows one after another.
    """
    n = basis.n
    steps = config.n_steps
    dt = config.dt
    times = config.times
    count = len(members)
    rows = rounds * count

    stiffness = assemble_stiffness(basis, masses.quad)
    boundary = assemble_boundary(basis, End.RIGHT) if bc is BoundaryKind.MIXED else None

    # momentum-balance coefficients of xi, xi', xi'' (M(t) + acc_extra) and xi''', per row
    coefficients = np.zeros((order + 1, rows, n, n))
    acc_extra = np.zeros((rows, n, n))
    for row, params in enumerate(members * rounds):
        coefficients[0, row] = params.c2 * stiffness
        coefficients[1, row] = params.b * stiffness
        if boundary is not None:
            coefficients[1, row] += params.c2 * params.beta * boundary
            acc_extra[row] = params.b * params.beta * boundary
        if order == 3:
            coefficients[3, row] = params.tau * np.eye(n)

    # per BDF coefficient c0 (startup, then BDF2): s, the gains of the coefficients
    # (derivative j = gains[j] * top + shifts[j]) and the step-matrix terms without mass
    plans = []
    for c0 in (1.0, 1.5):
        s = c0 / dt
        gains = s ** np.arange(1.0 - order, 2.0)
        fixed = sum(gain * coefficient for gain, coefficient in zip(gains, coefficients[:2]))
        inertia_term = gains[3] * coefficients[3] if order == 3 else None
        plans.append((s, gains[:, None, None], fixed, inertia_term))

    def plan_of(m, lo, hi):
        """The plan of rows lo:hi at loop step m, where the rows of round m take their startup."""
        if m == 0 or m >= rounds:
            s, gains, fixed, inertia_term = plans[min(m, 1)]
            return s, gains, fixed[lo:hi], None if inertia_term is None else inertia_term[lo:hi]
        startup = np.arange(lo, hi) >= m * count
        (s0, gains0, fixed0, inertia0), (s1, gains1, fixed1, inertia1) = plans
        matrix_rows = startup[:, None, None]
        return (
            np.where(startup, s0, s1)[:, None],
            np.where(startup[:, None], gains0, gains1),
            np.where(matrix_rows, fixed0[lo:hi], fixed1[lo:hi]),
            None if inertia0 is None else np.where(matrix_rows, inertia0[lo:hi], inertia1[lo:hi]),
        )

    def step_matrix(plan, lo, hi):
        _, gains, fixed, inertia_term = plan
        matrix = fixed + gains[2, ..., None] * coefficients[2, lo:hi]
        return matrix if inertia_term is None else matrix + inertia_term

    singular = {}  # (row, step) -> the LinAlgError of that row's solve or inverse
    if masses.constant:
        np.add(masses.matrix(1), acc_extra, out=coefficients[2])
        # the inverted startup (step 1) and BDF2 (steps 2 on) step matrices
        inverted = []
        for step, plan in zip((1, 2), plans):
            inverse, errors = _by_member(np.linalg.inv, step_matrix(plan, 0, rows))
            singular.update(((row, step), exc) for row, exc in errors.items())
            inverted.append(inverse)
    if rounds > 1:
        # the psi_t rows of one loop step's masses, round-major, and their k
        velocity = np.empty((rows, n))
        k_rows = np.tile(masses.k, (rounds, 1))
        # row (j, b) at loop step m reads the load of grid time m + 1 - j
        load_rows = loads.reshape(count * (steps + 1), n)
        offsets = ((steps + 1) * np.arange(count) - np.arange(rounds)[:, None]).ravel()

    # derivs[j, r] is row r's j-th time derivative; derivs[order] is the BDF difference
    derivs = np.zeros((order + 1, rows, steps + rounds, n))
    if order == 3:
        first = loads[:, 0] / np.array([[params.tau] for params in members])
        for j in range(rounds):
            derivs[3, j * count : (j + 1) * count, j] = first
    lo, hi = 0, rows  # the rows that step
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(steps + rounds - 1):
            if rounds > 1:
                # the rows of the rounds that have started and not yet reached the horizon
                lo, hi = max(0, m - steps + 1) * count, min(m + 1, rounds) * count
                plan = plan_of(m, lo, hi)
            else:
                plan = plans[min(m, 1)]
            if m == 0:
                hist = derivs[:order, lo:hi, 0]
            else:
                # a round's startup step reads the zeros before its zero initial data
                hist = 2.0 * derivs[:order, lo:hi, m] - 0.5 * derivs[:order, lo:hi, m - 1]
            s, gains = plan[:2]
            shifts = np.zeros((order + 1, hi - lo, n))
            shifts[order] = -hist[order - 1] / dt
            for j in range(order - 2, -1, -1):
                shifts[j] = (shifts[j + 1] + hist[j] / dt) / s
            if rounds > 1:
                # round 0 reads the previous iterate, round j the psi_t of round j - 1
                if m < steps:
                    velocity[:count] = masses.rows[:, m + 1]
                velocity[count:hi] = derivs[1, : hi - count, m]
                mass = masses.frozen_matrix(velocity[lo:hi], k_rows[lo:hi])
                np.add(mass, acc_extra[lo:hi], out=coefficients[2, lo:hi])
                load = load_rows[offsets[lo:hi] + m + 1, :, None]
            else:
                if not masses.constant:
                    np.add(masses.matrix(m + 1), acc_extra, out=coefficients[2])
                load = loads[:, m + 1, :, None]
            rhs = load - (coefficients[:, lo:hi] @ shifts[..., None]).sum(axis=0)
            if masses.constant:
                top = inverted[min(m, 1)] @ rhs
            else:
                top, errors = _by_member(np.linalg.solve, step_matrix(plan, lo, hi), rhs)
                for index, exc in errors.items():
                    row = lo + index
                    singular[row, m + 1 - row // count] = exc
            derivs[:, lo:hi, m + 1] = gains * top[:, :, 0] + shifts

    # bad[r, t]: a derivative that row r stores for grid time t is not finite
    bad = np.empty((rows, steps + 1), dtype=bool)
    for j in range(rounds):
        block = slice(j * count, (j + 1) * count)
        bad[block] = ~np.isfinite(derivs[:, block, j : j + steps + 1]).all(axis=(0, 3))
    failing = bad.any(axis=1)
    stop = int(failing.argmax()) if failing.any() else rows
    trajectories = []
    for row in range(stop):
        stored = derivs[:, row, row // count : row // count + steps + 1]
        trajectories.append(
            Trajectory(
                times=times,
                coeff=stored[0],
                coeff_t=stored[1],
                coeff_tt=stored[2],
                coeff_ttt=stored[3] if order == 3 else None,
                bc=bc,
                params=members[row % count],
            )
        )
    if stop == rows:
        return trajectories, None
    step = int(bad[stop].argmax())
    failure = SingularStepMatrixError(step, times[step])
    failure.__cause__ = singular.get((stop, step))
    return trajectories, failure


def _solve_linear(
    order: int,
    members: list[ModelParams],
    basis: SpectralBasis,
    field: CoefficientField,
    f: SpaceTimeFn | None,
    g: WindowedSignal | None,
    config: SolverConfig,
    bc: BoundaryKind,
) -> list[Trajectory]:
    """Linear runs of a batch of members under one coefficient field, stepped together.

    Raises what the first failing member raises when the members are solved
    one after another.
    """
    members, quad, loads = _prepare_data(order, members, basis, f, g, config, bc)
    # one shared coefficient: a member axis of 1 broadcasts over the batch
    masses = TimeVaryingMass(basis, quad, sample_field(field, quad.nodes, config.times)[None])
    trajectories, failure = _integrate(order, members, basis, masses, loads, config, bc)
    if failure is not None:
        raise failure
    return trajectories


def solve_smgt_linear(
    params: ModelParams,
    basis: SpectralBasis,
    field: CoefficientField,
    f: SpaceTimeFn | None,
    g: WindowedSignal | None,
    config: SolverConfig,
    bc: BoundaryKind = BoundaryKind.PURE_NEUMANN,
) -> Trajectory:
    """Integrate the third-order system with a prescribed coefficient field.

    The unknown u = (xi, xi', xi'') satisfies

        tau*xi''' + (M(t) + b*beta*B)xi'' + (b*K + c2*beta*B)xi' + c2*K*xi = F(t)

    with B = 0 under pure Neumann conditions; tau must be positive
    (InvalidParameters otherwise).  Every step solves one dense linear
    system of size n for xi''.
    """
    return _solve_linear(3, [params], basis, field, f, g, config, bc)[0]


def solve_westervelt_linearized(
    params: ModelParams,
    basis: SpectralBasis,
    field: CoefficientField,
    f: SpaceTimeFn | None,
    g: WindowedSignal | None,
    config: SolverConfig,
    bc: BoundaryKind = BoundaryKind.PURE_NEUMANN,
) -> Trajectory:
    """Integrate the second-order strongly damped system (the tau = 0 limit).

    tau is ignored: the damping coefficient collapses to delta, both in the
    operator and in the boundary load.  The stored parameter snapshot has
    tau = 0 so that downstream energy weights are consistent.  Every step
    solves one dense linear system of size n for xi'.
    """
    return _solve_linear(2, [params], basis, field, f, g, config, bc)[0]
