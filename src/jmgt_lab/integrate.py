"""Implicit time integration of the Galerkin systems.

Both solvers reduce their equation to a first-order system and step it with
BDF2 after a single implicit-Euler startup step.  The pair is A-stable and
strongly damping at infinity, which the third-order system needs because its
first-order form carries 1/tau-scaled blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .assembly import (
    CoefficientField,
    SpaceTimeFn,
    TimeVaryingMass,
    assemble_boundary,
    assemble_load,
    assemble_stiffness,
)
from .basis import End, SpectralBasis, build_quadrature
from .exceptions import CompatibilityError, SingularStepMatrixError
from .model import BoundaryKind, ModelParams, SolverConfig, WindowedSignal, validate_compatibility

__all__ = [
    "Trajectory",
    "solve_smgt_linear",
    "solve_westervelt_linearized",
    "recover_third",
    "zero_trajectory",
]


@dataclass
class Trajectory:
    """Time series of Galerkin coefficients and their time derivatives.

    ``coeff_ttt`` is reconstructed from the equation for the third-order
    solver and is None for the second-order (tau = 0) solver.  Initial data
    are homogeneous: all series start at zero.
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


def zero_trajectory(
    params: ModelParams,
    basis: SpectralBasis,
    config: SolverConfig,
    bc: BoundaryKind = BoundaryKind.PURE_NEUMANN,
    with_third: bool = True,
) -> Trajectory:
    """Identically zero trajectory on the config's time grid."""
    steps = config.n_steps
    times = config.dt * np.arange(steps + 1)
    shape = (steps + 1, basis.n)
    return Trajectory(
        times=times,
        coeff=np.zeros(shape),
        coeff_t=np.zeros(shape),
        coeff_tt=np.zeros(shape),
        coeff_ttt=np.zeros(shape) if with_third else None,
        bc=bc,
        params=params,
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
    of the absorbing end (None under pure Neumann conditions).
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


def _check_signal(g: WindowedSignal | None, bc: BoundaryKind) -> None:
    if g is None:
        return
    required = 4 if bc is BoundaryKind.MIXED else 3
    violations = validate_compatibility(g, required)
    if violations:
        raise CompatibilityError(violations, required)


def _solve_step(matrix: np.ndarray, rhs: np.ndarray, step: int, time: float) -> np.ndarray:
    try:
        solution = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularStepMatrixError(step, time) from exc
    if not np.all(np.isfinite(solution)):
        raise SingularStepMatrixError(step, time)
    return solution


def _integrate(
    order: int,
    params: ModelParams,
    basis: SpectralBasis,
    field: CoefficientField,
    f: SpaceTimeFn | None,
    g: WindowedSignal | None,
    config: SolverConfig,
    bc: BoundaryKind,
) -> Trajectory:
    """BDF2 core of both solvers; ``order`` is the system's order in time (3 or 2).

    The state stacks xi and its first ``order - 1`` time derivatives.  The
    leading block rows are the kinematic identities and the last one is the
    momentum balance.  For order 3 the balance solves for xi'' and the third
    derivative is recovered afterwards; for order 2 (params at tau = 0, so
    b = delta) it solves for xi' and xi'' is the BDF difference of xi'.
    """
    _check_signal(g, bc)

    n = basis.n
    quad = build_quadrature(basis.length, config.quad_points)
    steps = config.n_steps
    dt = config.dt
    times = dt * np.arange(steps + 1)

    stiffness = assemble_stiffness(basis, quad)
    masses = TimeVaryingMass(basis, quad, field, times)
    boundary = assemble_boundary(basis, End.RIGHT) if bc is BoundaryKind.MIXED else None

    loads = np.empty((steps + 1, n))
    for m, t in enumerate(times):
        loads[m] = assemble_load(basis, quad, f, g, params, t, bc)

    damp_block = params.b * stiffness
    acc_extra = np.zeros((n, n))
    if boundary is not None:
        damp_block = damp_block + params.c2 * params.beta * boundary
        acc_extra = params.b * params.beta * boundary

    size = order * n
    kinematic = slice(0, size - n)
    balance = slice(size - n, size)
    eye = np.eye(n)
    state = np.zeros((steps + 1, size))
    coeff_tt = state[:, balance] if order == 3 else np.zeros((steps + 1, n))
    matrix = np.zeros((size, size))
    matrix[kinematic, n:] = -np.eye(size - n)
    matrix[balance, 0:n] = params.c2 * stiffness
    if order == 3:
        matrix[balance, n : 2 * n] = damp_block

    for m in range(steps):
        if m == 0:
            c0 = 1.0
            hist = state[0].copy()
        else:
            c0 = 1.5
            hist = 2.0 * state[m] - 0.5 * state[m - 1]
        scale = c0 / dt
        np.fill_diagonal(matrix[kinematic, kinematic], scale)
        if order == 3:
            matrix[balance, balance] = params.tau * scale * eye + masses.matrix(m + 1) + acc_extra
            carried = (params.tau / dt) * hist[balance]
        else:
            eff_mass = masses.matrix(m + 1) + acc_extra
            matrix[balance, balance] = scale * eff_mass + damp_block
            carried = eff_mass @ hist[balance] / dt
        rhs = np.concatenate((hist[kinematic] / dt, loads[m + 1] + carried))
        state[m + 1] = _solve_step(matrix, rhs, m + 1, times[m + 1])
        if order == 2:
            coeff_tt[m + 1] = (c0 * state[m + 1, balance] - hist[balance]) / dt

    coeff = state[:, 0:n]
    coeff_t = state[:, n : 2 * n]
    coeff_ttt = None
    if order == 3:
        coeff_ttt = np.empty_like(coeff)
        for m in range(steps + 1):
            coeff_ttt[m] = recover_third(
                params,
                stiffness,
                masses.matrix(m),
                loads[m],
                coeff[m],
                coeff_t[m],
                coeff_tt[m],
                boundary=boundary,
            )

    return Trajectory(
        times=times,
        coeff=coeff,
        coeff_t=coeff_t,
        coeff_tt=coeff_tt,
        coeff_ttt=coeff_ttt,
        bc=bc,
        params=params,
    )


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

    with B = 0 under pure Neumann conditions.  Every step solves one dense
    linear system of size 3n.
    """
    if params.tau <= 0.0:
        raise ValueError(f"the third-order solver requires tau > 0, got {params.tau}")
    return _integrate(3, params, basis, field, f, g, config, bc)


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
    tau = 0 so that downstream energy weights are consistent.
    """
    return _integrate(2, replace(params, tau=0.0), basis, field, f, g, config, bc)
