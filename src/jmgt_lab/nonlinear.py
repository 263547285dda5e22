"""Fixed-point solvers for the nonlinear acoustic models.

The nonlinearity is handled by whole-horizon successive substitution: freeze
the coefficient 1 - 2k*psi_t (or its clamped relaxation) at the previous
iterate, re-solve the linear problem on [0, T], and measure the difference in
the energy norm in which the underlying map contracts for small data.  One
driver serves every variant, and the variant alone picks the system, the
clamp and the degeneracy guard.  A run assembles its loads once, and each
iterate's masses step by step from the previous iterate's psi_t
coefficients: in closed form for the unclamped coefficient, from the triple
products of the modes built once per run, and as quadrature Grams for the
clamped one.  Runs that share basis, grid and drive (the tau-members of a
sweep) iterate in lockstep, with failures and warnings reported as if the
members ran one after another.  Round 1 is one batched step loop; after it,
one step loop serves a window of consecutive rounds, each a step behind the
one before, since round r + 1 at step m reads only round r's psi_t at
t_{m+1} (the pipelining of waveform-relaxation iterates).  The rounds of a
window are then judged in order, and the rows of members that have already
converged or failed are discarded.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .assembly import SpaceTimeFn, TimeVaryingMass, _triple_products
from .basis import SpectralBasis, mode_matrix
from .energy import AuditMode, energy_lower
from .exceptions import (
    NonDegeneracyViolated,
    NonFiniteNormError,
    PicardDivergenceError,
    SolverFailure,
)
from .integrate import Trajectory, _integrate, _prepare_data
from .model import BoundaryKind, ModelParams, SolverConfig, WindowedSignal

__all__ = [
    "NonlinearVariant",
    "PicardReport",
    "trajectory_distance",
    "solve_jmgt",
    "solve_westervelt_nonlinear",
]


class NonlinearVariant(Enum):
    """Which nonlinear coefficient multiplies the second time derivative.

    FULL_JMGT uses 1 - 2k*psi_t as is and is guarded against degeneracy;
    RELAXED_JMGT clamps the argument so the coefficient stays in [0, 2];
    WESTERVELT is the tau = 0 model with the unclamped coefficient.
    """

    FULL_JMGT = "full"
    RELAXED_JMGT = "relaxed"
    WESTERVELT = "westervelt"


@dataclass
class PicardReport:
    """Convergence log of one fixed-point run, one entry per iterate.

    ``differences[m]`` is the energy-norm distance between iterates m and
    m+1 (the first entry measures the distance from the zero initial
    iterate), ``iterate_norms[m]`` the distance of iterate m+1 from the zero
    iterate and ``margins[m]`` the minimum of 1 - 2k*psi_t over iterate m+1's
    space-time evaluation grid.  The iteration count, the contraction factors
    and the last iterate's degeneracy margin are read from these series.
    """

    differences: list[float] = field(default_factory=list)
    iterate_norms: list[float] = field(default_factory=list)
    margins: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.differences)

    @property
    def factors(self) -> list[float]:
        """Consecutive ratios of differences (a run's divisors are at least picard_tol > 0)."""
        d = self.differences
        return [b / a for a, b in zip(d, d[1:])]

    @property
    def degeneracy_margin(self) -> float:
        """The last iterate's margin; NaN before the first iterate."""
        return self.margins[-1] if self.margins else math.nan


def trajectory_distance(a: Trajectory, b: Trajectory, basis: SpectralBasis) -> float:
    """|||a - b|||, the energy norm in which the fixed-point map contracts.

    |||v|||^2 = tau^2 ||v_ttt||^2_{L2 (H1)*} + tau ||v_tt||^2_{Linf L2}
              + ||v_tt||^2_{L2 L2} + ||v_t||^2_{Linf H1}

    is the TAU_UNIFORM energy side of ``energy_lower(v)`` at the parameters
    of ``a`` (trapezoid in time, max over stored steps).  For tau = 0 the
    first two terms drop, which is the Westervelt accounting.
    """
    return float(np.sqrt(energy_lower(a - b, basis).total(AuditMode.TAU_UNIFORM)))


def _margin_series(
    traj: Trajectory, basis: SpectralBasis, k: float, eval_grid: int
) -> np.ndarray:
    """Per-step minimum over the spatial grid of 1 - 2k*psi_t (one buffer, in place)."""
    points = np.linspace(0.0, basis.length, eval_grid)
    values = traj.coeff_t @ mode_matrix(basis, points)
    values *= 2.0 * k
    np.subtract(1.0, values, out=values)
    return values.min(axis=1)


#: A run whose contraction factor exceeds 1 this many times in a row diverges.
_GROWTH_LIMIT = 3


def _advance(
    report: PicardReport,
    previous: Trajectory | None,
    current: Trajectory,
    iteration: int,
    basis: SpectralBasis,
    config: SolverConfig,
    guarded: bool,
) -> bool:
    """Record a member's new iterate; True once the member has converged.

    Raises the member's NonDegeneracyViolated (guarded runs only), its
    NonFiniteNormError (an iterate whose energy norm overflows) or
    PicardDivergenceError.
    """
    margins = _margin_series(current, basis, current.params.k, config.eval_grid)
    margin = float(margins.min())
    if guarded and margin <= 0.0:
        first_bad = int(np.argmax(margins <= 0.0))
        raise NonDegeneracyViolated(margin, float(current.times[first_bad]), iteration)
    report.margins.append(margin)
    # the distance from the zero iterate; current - 0.0 is current, bit for bit
    norm = float(np.sqrt(energy_lower(current, basis).total(AuditMode.TAU_UNIFORM)))
    if not math.isfinite(norm):
        raise NonFiniteNormError(f"the energy norm of fixed-point iterate {iteration}", norm)
    diff = norm if previous is None else trajectory_distance(current, previous, basis)
    report.differences.append(diff)
    report.iterate_norms.append(norm)
    if diff < config.picard_tol:
        return True
    recent = report.factors[-_GROWTH_LIMIT:]
    if len(recent) == _GROWTH_LIMIT and min(recent) > 1.0:
        raise PicardDivergenceError(report.differences, config.picard_max)
    return False


#: Rows of one Picard window: W = max(2, _WINDOW_ROWS // B) rounds of B members step together.
_WINDOW_ROWS = 10


def _keep(kept: np.ndarray, member: int, traj: Trajectory) -> None:
    """Copy a member's new iterate into ``kept``, out of the window that stepped it."""
    for plane, values in zip(kept, (traj.coeff, traj.coeff_t, traj.coeff_tt, traj.coeff_ttt)):
        plane[member] = values


def _picard_loop(
    members: list[ModelParams],
    basis: SpectralBasis,
    f: SpaceTimeFn | None,
    g: WindowedSignal | None,
    config: SolverConfig,
    bc: BoundaryKind,
    variant: NonlinearVariant,
) -> list[tuple[Trajectory, PicardReport]]:
    """Fixed-point runs of a batch of members of one variant, stepped in lockstep.

    WESTERVELT solves the second-order system, the others the third-order
    one; RELAXED_JMGT clamps alpha, and every other variant is guarded.
    Each member's masses are formed step by step from its previous iterate's
    psi_t (``TimeVaryingMass`` with k, and with T built once per run unless
    clamped).  Round 1 freezes the zero iterate, so no mass of its batch
    changes (the unclamped ones are I): one ``_integrate`` call steps it and
    inverts its step matrices once, and so does every round with k = 0.
    From round 2 on, one ``_integrate`` call steps a window of W consecutive
    rounds of the B members still iterating, W = max(2, _WINDOW_ROWS // B)
    and never past ``picard_max``: round r + j runs j steps behind round
    r + j - 1 and forms its masses from that round's psi_t as it is stored.
    The members of a study share k, so every row does the operations of its
    lone round and each member keeps the bits of its lone run.

    After a window its rounds are judged in round order and member order, as
    if run one round at a time.  A member leaves once it converges or fails;
    its later rows in the window are discarded, so a speculative row never
    raises, warns or enters a report.  Only the judged iterates are kept:
    each is copied into one array of every member's latest iterate, out of
    the window, which is freed before the next one is stepped, and the next
    window's round 0 reads its psi_t from there.  Results, failures and
    degeneracy warnings are those of running the members one after another
    in ``members`` order: once a member fails, the members after it stop and
    the ones before it run on, and the first failing member's failure is
    raised after the warnings of the members up to it.  A single run is a
    batch of one.  Every caller is a public entry point, so the warnings
    point one frame above it.
    """
    order = 2 if variant is NonlinearVariant.WESTERVELT else 3
    clamped = variant is NonlinearVariant.RELAXED_JMGT
    members, quad, loads = _prepare_data(order, members, basis, f, g, config, bc)
    count = len(members)
    k = np.array([[params.k] for params in members])
    reports = [PicardReport() for _ in members]
    # kept[j, b] is the j-th stored derivative of member b's latest iterate
    kept = np.empty((order + 1, count, config.n_steps + 1, basis.n))
    last = [
        Trajectory(config.times, *kept[:3, b], kept[3, b] if order == 3 else None, bc, params)
        for b, params in enumerate(members)
    ]
    # the first failing member and its failure; every member still iterating is before it
    stop, failure = count, None
    active = list(range(count))  # the members iterating into round `iteration`, in order
    products = None if clamped else _triple_products(basis)
    # round 1 freezes the zero iterate; a broadcast view stores no zero grid
    velocity = np.broadcast_to(0.0, (count, config.n_steps + 1, basis.n))
    iteration = 1
    while active and iteration <= config.picard_max:
        masses = TimeVaryingMass(basis, quad, velocity, k[active], products)
        window = 1
        if not masses.constant:
            window = min(max(2, _WINDOW_ROWS // len(active)), config.picard_max - iteration + 1)
        batch = loads if len(active) == count else loads[active]
        iterates, singular = _integrate(
            order, [members[i] for i in active], basis, masses, batch, config, bc, window
        )
        position = {member: i for i, member in enumerate(active)}  # a member's row in a round
        for j in range(window):
            # (row, member) of the members iterating into this round
            rows = [(j * len(position) + position[member], member) for member in active]
            missing = [row for row, _ in rows if row >= len(iterates)]
            if missing and missing[0] != len(iterates):
                break  # a discarded row failed first: this round is stepped again
            going = []  # the members that iterate on
            for row, member in rows:
                if row == len(iterates):
                    stop, failure = member, singular
                    break
                try:
                    converged = _advance(
                        reports[member], last[member] if iteration > 1 else None,
                        iterates[row], iteration, basis, config, not clamped,
                    )
                except SolverFailure as exc:
                    stop, failure = member, exc
                    break
                _keep(kept, member, iterates[row])
                if not converged:
                    going.append(member)
            active = going
            iteration += 1
            if not active:
                break
        del iterates  # frees the window: no kept iterate is a view into it
        velocity = kept[1] if len(active) == count else kept[1][active]
    if active:
        stop = active[0]
        failure = PicardDivergenceError(reports[stop].differences, config.picard_max)
    # a guarded run warns of its margins below 0.1, up to the first failing member
    close = [margin for report in reports[: stop + 1] for margin in report.margins if margin < 0.1]
    for margin in [] if clamped else close:
        warnings.warn(
            f"degeneracy margin {margin:.3g} < 0.1; the model is close to degenerate",
            RuntimeWarning,
            stacklevel=3,
        )
    if failure is not None:
        raise failure
    return list(zip(last, reports))


def solve_jmgt(
    params: ModelParams,
    basis: SpectralBasis,
    f: SpaceTimeFn | None,
    g: WindowedSignal | None,
    config: SolverConfig,
    bc: BoundaryKind = BoundaryKind.PURE_NEUMANN,
    variant: NonlinearVariant = NonlinearVariant.FULL_JMGT,
) -> tuple[Trajectory, PicardReport]:
    """Solve a nonlinear model by successive substitution.

    The first iterate freezes alpha = 1 (the zero initial iterate); each
    following iterate rebuilds alpha from the previous trajectory.  The loop
    stops when the energy-norm difference falls below ``picard_tol`` and
    raises PicardDivergenceError at the iteration cap, or once the contraction
    factor has exceeded 1 in three consecutive iterations.  FULL_JMGT runs
    abort with NonDegeneracyViolated as soon as an iterate loses positivity
    of 1 - 2k*psi_t; the relaxed variant never aborts, that being the point
    of the relaxation.  Both need tau > 0 (InvalidParameters otherwise).
    WESTERVELT solves the second-order (tau = 0) model, the same run as
    ``solve_westervelt_nonlinear``.
    """
    return _picard_loop([params], basis, f, g, config, bc, variant)[0]


def solve_westervelt_nonlinear(
    params: ModelParams,
    basis: SpectralBasis,
    f: SpaceTimeFn | None,
    g: WindowedSignal | None,
    config: SolverConfig,
    bc: BoundaryKind = BoundaryKind.PURE_NEUMANN,
) -> tuple[Trajectory, PicardReport]:
    """Same fixed-point loop over the second-order (tau = 0) solver.

    Convergence is measured in the tau = 0 part of the energy norm.  The
    coefficient is the unclamped 1 - 2k*psi_t, so the degeneracy guard
    applies exactly as in the full third-order model.
    """
    return _picard_loop([params], basis, f, g, config, bc, NonlinearVariant.WESTERVELT)[0]
