"""Fixed-point solvers for the nonlinear acoustic models.

The nonlinearity is handled by whole-horizon successive substitution: freeze
the coefficient 1 - 2k*psi_t (or its clamped relaxation) at the previous
iterate, re-solve the linear problem on [0, T], and measure the difference in
the energy norm in which the underlying map contracts for small data.  A run
assembles its loads once; each iterate's alpha is built from its psi_t
coefficients and the mode values at the quadrature nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .assembly import SpaceTimeFn, _frozen_coefficient
from .basis import SpectralBasis, mode_matrix
from .energy import AuditMode, energy_lower
from .exceptions import NonDegeneracyViolated, PicardDivergenceError
from .integrate import Trajectory, _integrate, _prepare_data, zero_trajectory
from .model import BoundaryKind, ModelParams, SolverConfig, WindowedSignal

__all__ = [
    "NonlinearVariant",
    "PicardReport",
    "trajectory_distance",
    "degeneracy_check",
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
    """Convergence log of one fixed-point run.

    ``differences[m]`` is the energy-norm distance between iterates m and
    m+1 (the first entry measures the distance from the zero initial
    iterate); ``factors`` are consecutive ratios of differences;
    ``iterate_norms[m]`` is the distance of iterate m+1 from the zero iterate.
    """

    iterations: int
    differences: list[float]
    factors: list[float]
    degeneracy_margin: float
    iterate_norms: list[float]


def trajectory_distance(a: Trajectory, b: Trajectory, basis: SpectralBasis) -> float:
    """|||a - b|||, the energy norm in which the fixed-point map contracts.

    |||v|||^2 = tau^2 ||v_ttt||^2_{L2 (H1)*} + tau ||v_tt||^2_{Linf L2}
              + ||v_tt||^2_{L2 L2} + ||v_t||^2_{Linf H1}

    is the TAU_UNIFORM energy side of ``energy_lower(v)`` at the parameters
    of ``a`` (trapezoid in time, max over stored steps).  For tau = 0 the
    first two terms drop, which is the Westervelt accounting.
    """
    if a.times.shape != b.times.shape or not np.allclose(a.times, b.times):
        raise ValueError("trajectories live on different time grids")
    difference = replace(
        a,
        coeff=a.coeff - b.coeff,
        coeff_t=a.coeff_t - b.coeff_t,
        coeff_tt=a.coeff_tt - b.coeff_tt,
        coeff_ttt=None if a.coeff_ttt is None else a.coeff_ttt - b.coeff_ttt,
    )
    return float(np.sqrt(energy_lower(difference, basis).total(AuditMode.TAU_UNIFORM)))


def _margin_series(
    traj: Trajectory, basis: SpectralBasis, k: float, eval_grid: int
) -> np.ndarray:
    """Per-step minimum over the spatial grid of 1 - 2k*psi_t."""
    points = np.linspace(0.0, basis.length, eval_grid)
    velocity = traj.coeff_t @ mode_matrix(basis, points)
    return (1.0 - 2.0 * k * velocity).min(axis=1)


def degeneracy_check(
    traj: Trajectory,
    basis: SpectralBasis,
    k: float,
    eval_grid: int | None = None,
) -> float:
    """Minimum of the coefficient 1 - 2k*psi_t over the space-time grid.

    Pure measurement; the abort policy for unclamped variants lives in the
    fixed-point drivers.  The default spatial resolution of 8 points per mode
    bounds the extremum of a band-limited cosine sum to well under 1%.
    """
    grid = eval_grid if eval_grid is not None else 8 * basis.n
    if grid < 2:
        raise ValueError(f"eval_grid must be at least 2, got {grid}")
    return float(_margin_series(traj, basis, k, grid).min())


def _guard_degeneracy(
    traj: Trajectory,
    basis: SpectralBasis,
    k: float,
    eval_grid: int,
    iteration: int,
) -> float:
    margins = _margin_series(traj, basis, k, eval_grid)
    margin = float(margins.min())
    if margin <= 0.0:
        first_bad = int(np.argmax(margins <= 0.0))
        raise NonDegeneracyViolated(margin, float(traj.times[first_bad]), iteration)
    if margin < 0.1:
        warnings.warn(
            f"degeneracy margin {margin:.3g} < 0.1; the model is close to degenerate",
            RuntimeWarning,
            stacklevel=3,
        )
    return margin


#: A run whose contraction factor exceeds 1 this many times in a row diverges.
_GROWTH_LIMIT = 3


def _picard_loop(
    order: int,
    params: ModelParams,
    basis: SpectralBasis,
    f: SpaceTimeFn | None,
    g: WindowedSignal | None,
    config: SolverConfig,
    bc: BoundaryKind,
    clamped: bool,
    guarded: bool,
) -> tuple[Trajectory, PicardReport]:
    quad, loads = _prepare_data(params, basis, f, g, config, bc)
    modes = mode_matrix(basis, quad.nodes)
    zero = previous = zero_trajectory(params, basis, config, bc, with_third=(order == 3))
    alpha = np.ones((config.n_steps + 1, quad.count))
    differences: list[float] = []
    factors: list[float] = []
    iterate_norms: list[float] = []
    for iteration in range(1, config.picard_max + 1):
        current = _integrate(order, params, basis, quad, alpha, loads, config, bc)
        if guarded:
            _guard_degeneracy(current, basis, params.k, config.eval_grid, iteration)
        diff = trajectory_distance(current, previous, basis)
        if differences:  # a previous difference is at least picard_tol > 0
            factors.append(diff / differences[-1])
        differences.append(diff)
        iterate_norms.append(trajectory_distance(current, zero, basis))
        if diff < config.picard_tol:
            break
        recent = factors[-_GROWTH_LIMIT:]
        if len(recent) == _GROWTH_LIMIT and min(recent) > 1.0:
            raise PicardDivergenceError(differences, config.picard_max)
        for m, row in enumerate(current.coeff_t):  # the solve no longer reads alpha
            alpha[m] = _frozen_coefficient(row @ modes, params.k, clamped)
        previous = current
    else:
        raise PicardDivergenceError(differences, config.picard_max)
    return current, PicardReport(
        iterations=len(differences),
        differences=differences,
        factors=factors,
        degeneracy_margin=degeneracy_check(current, basis, params.k, config.eval_grid),
        iterate_norms=iterate_norms,
    )


def solve_jmgt(
    params: ModelParams,
    basis: SpectralBasis,
    f: SpaceTimeFn | None,
    g: WindowedSignal | None,
    config: SolverConfig,
    bc: BoundaryKind = BoundaryKind.PURE_NEUMANN,
    variant: NonlinearVariant = NonlinearVariant.FULL_JMGT,
) -> tuple[Trajectory, PicardReport]:
    """Solve the third-order nonlinear model by successive substitution.

    The first iterate freezes alpha = 1 (the zero initial iterate); each
    following iterate rebuilds alpha from the previous trajectory.  The loop
    stops when the energy-norm difference falls below ``picard_tol`` and
    raises PicardDivergenceError at the iteration cap, or once the contraction
    factor has exceeded 1 in three consecutive iterations.  FULL_JMGT runs
    abort with NonDegeneracyViolated as soon as an iterate loses positivity
    of 1 - 2k*psi_t; the relaxed variant never aborts, that being the point
    of the relaxation.
    """
    if variant is NonlinearVariant.WESTERVELT:
        return solve_westervelt_nonlinear(params, basis, f, g, config, bc)
    if params.tau <= 0.0:
        raise ValueError(f"the third-order variants require tau > 0, got {params.tau}")
    clamped = variant is NonlinearVariant.RELAXED_JMGT
    return _picard_loop(3, params, basis, f, g, config, bc, clamped, guarded=not clamped)


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
    params = replace(params, tau=0.0)
    return _picard_loop(2, params, basis, f, g, config, bc, clamped=False, guarded=True)
