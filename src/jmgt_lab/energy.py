"""Energy functionals, data norms and estimate audits.

The lower-order and the higher-order estimate each have an energy record,
``LowerEnergy`` and ``HigherEnergy``, whose ``modes`` are the audits it serves.

All time integrals use the composite trapezoid rule on the trajectory grid
and all sup norms are maxima over stored steps, matching the accuracy order
of the solver.  Boundary Sobolev norms collapse to absolute values because
the boundary of an interval is a pair of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .basis import End, SpectralBasis, trace_vector
from .exceptions import InconsistentEnergyError, NonFiniteNormError
from .model import BoundaryKind, ModelParams, SolverConfig, WindowedSignal, signal_eval

if TYPE_CHECKING:
    from .integrate import Trajectory

__all__ = [
    "AuditMode",
    "LowerEnergy",
    "HigherEnergy",
    "BoundaryFlux",
    "DataNorms",
    "AuditReport",
    "energy_lower",
    "energy_higher",
    "boundary_flux",
    "data_norms",
    "audit_estimate",
    "trapezoid_total",
    "trapezoid_running",
]

#: Natural-log threshold above which the tracked tau-dependent constant is
#: reported as not tau-robust (corresponds to 1e100).
_LOG_CONSTANT_FLAG = 100.0 * np.log(10.0)


def trapezoid_total(values: np.ndarray, dt: float) -> float:
    """Composite trapezoid integral of a uniformly sampled series."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        return 0.0
    return float(dt * (values.sum() - 0.5 * (values[0] + values[-1])))


def trapezoid_running(values: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoid integral; entry m integrates over [t_0, t_m]."""
    values = np.asarray(values, dtype=float)
    out = np.zeros_like(values)
    if values.size > 1:
        out[1:] = np.cumsum(0.5 * dt * (values[1:] + values[:-1]))
    return out


def _weighted_max(tau: float, series: np.ndarray) -> float:
    """tau times the maximum of a series; 0 at tau = 0, also when the series overflows."""
    return tau * float(series.max()) if tau != 0.0 else 0.0


class AuditMode(Enum):
    TAU_DEPENDENT = "TauDependent"
    TAU_UNIFORM = "TauUniform"
    HIGHER = "Higher"


@dataclass
class LowerEnergy:
    """Left-hand-side pieces of the lower-order estimates, on the trajectory grid.

    Pointwise series are squared norms per time step; ``*_accum`` series are
    running time integrals (hence non-decreasing).
    """

    times: np.ndarray
    tau: float
    sq_tt_l2: np.ndarray
    sq_t_h1: np.ndarray
    dual_accum: np.ndarray
    tt_accum: np.ndarray

    @property
    def modes(self) -> tuple[AuditMode, ...]:
        """The audits this record serves; the tau-dependent one needs tau > 0."""
        if self.tau > 0.0:
            return (AuditMode.TAU_DEPENDENT, AuditMode.TAU_UNIFORM)
        return (AuditMode.TAU_UNIFORM,)

    @property
    def low(self) -> np.ndarray:
        """E_low(t) = tau*|psi_tt|_L2^2 + |psi_t|_H1^2."""
        return self.tau * self.sq_tt_l2 + self.sq_t_h1

    def total(self, mode: AuditMode) -> float:
        """Energy side of the estimate audited in ``mode``, one of ``modes``.

        TAU_DEPENDENT: tau^2 ||psi_ttt||^2_{L2 (H1)*} + tau ||psi_tt||^2_{Linf L2}
                       + ||psi_t||^2_{Linf H1}
        TAU_UNIFORM:   the same plus ||psi_tt||^2_{L2 L2}; on a difference of
                       iterates this is the squared contraction norm
        """
        if mode not in self.modes:
            raise ValueError(f"the lower energy at tau = {self.tau} has no {mode.value} side")
        if mode is AuditMode.TAU_DEPENDENT:
            return (
                float(self.dual_accum[-1])
                + _weighted_max(self.tau, self.sq_tt_l2)
                + float(self.sq_t_h1.max())
            )
        return (
            float(self.tt_accum[-1])
            + float(self.sq_t_h1.max())
            + float(self.dual_accum[-1])
            + _weighted_max(self.tau, self.sq_tt_l2)
        )


@dataclass
class HigherEnergy:
    """Left-hand-side pieces of the higher-order estimate, series as in ``LowerEnergy``."""

    tau: float
    sq_tt_h1: np.ndarray
    sq_grad_tt: np.ndarray
    sq_lap_t: np.ndarray
    tt_h1_accum: np.ndarray
    ttt_l2_accum: np.ndarray

    modes = (AuditMode.HIGHER,)

    @property
    def high(self) -> np.ndarray:
        """E_high(t) = tau*|grad psi_tt|_L2^2 + |Delta psi_t|_L2^2."""
        return self.tau * self.sq_grad_tt + self.sq_lap_t

    def total(self, mode: AuditMode) -> float:
        """Energy side of the HIGHER estimate: tau^2 ||psi_ttt||^2_{L2 L2}
        + tau ||psi_tt||^2_{Linf H1} + ||psi_tt||^2_{L2 H1} + ||Delta psi_t||^2_{Linf L2}."""
        if mode not in self.modes:
            raise ValueError(f"the higher energy has no {mode.value} side")
        return (
            float(self.ttt_l2_accum[-1])
            + _weighted_max(self.tau, self.sq_tt_h1)
            + float(self.tt_h1_accum[-1])
            + float(self.sq_lap_t.max())
        )


@dataclass
class BoundaryFlux:
    """Absorbing-end flux series: the accumulated acceleration flux and the
    running maximum of the velocity flux."""

    acceleration_flux_accum: np.ndarray
    velocity_flux_max: np.ndarray


def _third_accum(traj: "Trajectory", weight) -> np.ndarray:
    """tau^2 * running integral of sum xi_ttt^2 / weight; zero at tau = 0 or without xi_ttt."""
    tau = traj.params.tau
    if tau > 0.0 and traj.coeff_ttt is not None:
        return tau**2 * trapezoid_running(np.sum(traj.coeff_ttt**2 / weight, axis=1), traj.dt)
    return np.zeros(len(traj.times))


def _eigenvalues(traj: "Trajectory", basis: SpectralBasis) -> np.ndarray:
    """The basis eigenvalues, once the basis is known to have the trajectory's mode count."""
    if basis.n != traj.n_modes:
        raise ValueError(f"a basis of {basis.n} modes cannot audit a run of {traj.n_modes} modes")
    return basis.eigenvalues


def energy_lower(traj: "Trajectory", basis: SpectralBasis) -> LowerEnergy:
    """Lower-order energies: E_low(t), the dual-norm accumulator, and A_tt.

    The (H1)* norm of psi_ttt uses the diagonal formula sum xi_i^2/(1+lambda_i),
    which is the exact dual norm on the span.  ``basis`` must have the run's
    mode count (ValueError otherwise).
    """
    lam = _eigenvalues(traj, basis)
    sq_tt_l2 = np.sum(traj.coeff_tt**2, axis=1)
    return LowerEnergy(
        times=traj.times,
        tau=traj.params.tau,
        sq_tt_l2=sq_tt_l2,
        sq_t_h1=np.sum((1.0 + lam) * traj.coeff_t**2, axis=1),
        dual_accum=_third_accum(traj, 1.0 + lam),
        tt_accum=trapezoid_running(sq_tt_l2, traj.dt),
    )


def energy_higher(traj: "Trajectory", basis: SpectralBasis) -> HigherEnergy:
    """Higher-order energies: E_high(t), the H1 accumulator of psi_tt, and
    the tau^2-weighted L2 accumulator of psi_ttt; ``basis`` as in ``energy_lower``."""
    lam = _eigenvalues(traj, basis)
    sq_tt_h1 = np.sum((1.0 + lam) * traj.coeff_tt**2, axis=1)
    return HigherEnergy(
        tau=traj.params.tau,
        sq_tt_h1=sq_tt_h1,
        sq_grad_tt=np.sum(lam * traj.coeff_tt**2, axis=1),
        sq_lap_t=np.sum(lam**2 * traj.coeff_t**2, axis=1),
        tt_h1_accum=trapezoid_running(sq_tt_h1, traj.dt),
        ttt_l2_accum=_third_accum(traj, 1.0),
    )


def boundary_flux(
    traj: "Trajectory", params: ModelParams, basis: SpectralBasis
) -> BoundaryFlux | None:
    """Flux energies extracted through the absorbing end.

    Accumulates c2*beta*||tr psi_tt||^2 over time and tracks the running
    maximum of b*beta*|tr psi_t|^2.  On a pure-Neumann trajectory there is no
    absorbing end and None is returned.
    """
    if traj.bc is not BoundaryKind.MIXED:
        return None
    traces = trace_vector(basis, End.RIGHT)
    sq_trace_t = (traj.coeff_t @ traces) ** 2
    sq_trace_tt = (traj.coeff_tt @ traces) ** 2
    return BoundaryFlux(
        acceleration_flux_accum=params.c2
        * params.beta
        * trapezoid_running(sq_trace_tt, traj.dt),
        velocity_flux_max=params.b * params.beta * np.maximum.accumulate(sq_trace_t),
    )


@dataclass(frozen=True)
class DataNorms:
    """Right-hand-side data norms of the estimates.

    ``signal_sup[m]`` and ``signal_l2[m]`` are the sup-in-time and L2-in-time
    norms of the m-th signal derivative, m = 0..3 (boundary norms are plain
    absolute values on an interval end).  ``data_norms`` stores numpy floats,
    so a total whose squares overflow is not finite rather than an OverflowError.
    """

    signal_sup: tuple[float, ...]
    signal_l2: tuple[float, ...]

    def lower_total(self) -> float:
        """||g||^2_{W1inf} + ||g_t||^2_{H1}."""
        return (
            self.signal_sup[0] ** 2
            + self.signal_sup[1] ** 2
            + self.signal_l2[1] ** 2
            + self.signal_l2[2] ** 2
        )

    def higher_total(self, tau: float) -> float:
        """tau^2||g_ttt||^2_{L2} + tau||g_tt||^2_{sup} + ||g||^2_{H2} + ||g_t||^2_{sup}."""
        return (
            tau**2 * self.signal_l2[3] ** 2
            + tau * self.signal_sup[2] ** 2
            + self.signal_l2[0] ** 2
            + self.signal_l2[1] ** 2
            + self.signal_l2[2] ** 2
            + self.signal_sup[1] ** 2
        )


def data_norms(g: WindowedSignal | None, config: SolverConfig) -> DataNorms:
    """Sup and L2 time norms on the config's grid of the signal derivatives of
    orders 0..3, the orders the lower and higher totals read."""
    times = config.times
    sups, l2s = [], []
    for m in range(4):
        series = signal_eval(g, times, m) if g is not None else np.zeros(times.size)
        sups.append(np.abs(series).max())
        l2s.append(np.sqrt(trapezoid_total(series**2, config.dt)))
    return DataNorms(signal_sup=tuple(sups), signal_l2=tuple(l2s))


@dataclass(frozen=True)
class AuditReport:
    """Ratio of an estimate's energy side to its data side.

    Absolute estimate constants are never reported; sweeps of ratios are the
    judgement mechanism.  ``lhs_total`` is ``total(mode)`` of the record that serves ``mode``.
    ``log_constant`` tracks the natural log of the tau-dependent constant
    shape in TAU_DEPENDENT mode and is None otherwise.  Its prefactors, the
    coefficient bound sup|alpha| among them, are taken as 1 (the unit-prefactor
    convention), also for nonlinear runs, where alpha = 1 - 2k*psi_t.
    """

    mode: AuditMode
    lhs_total: float
    rhs_total: float
    ratio: float
    log_constant: float | None = None
    flags: tuple[str, ...] = ()


def audit_estimate(
    energy: LowerEnergy | HigherEnergy, data: DataNorms, mode: AuditMode
) -> AuditReport:
    """Compare one run's energy total against its data total.

    TAU_DEPENDENT uses the lower estimate's left side and additionally tracks
    the exp(1/tau)-shaped constant, flagging it as not tau-robust once it
    exceeds 1e100.  TAU_UNIFORM uses the tau-independent accounting and
    HIGHER the second-derivative energies; for those two modes the ratio is
    meant to be judged across a tau sweep by the caller.  An energy or data
    total that is not finite raises NonFiniteNormError.
    """
    tau = energy.tau
    lhs = energy.total(mode)
    rhs = data.higher_total(tau) if mode is AuditMode.HIGHER else data.lower_total()
    for side, total in (("energy", lhs), ("data", rhs)):
        if not np.isfinite(total):
            raise NonFiniteNormError(f"the {side} side of the {mode.value} audit", total)

    if rhs == 0.0:
        if lhs > 0.0:
            raise InconsistentEnergyError(
                f"zero data produced nonzero energy {lhs:.3e} (uniqueness violated)"
            )
        ratio = 0.0
    else:
        ratio = lhs / rhs

    log_constant = None
    flags: list[str] = []
    if mode is AuditMode.TAU_DEPENDENT:
        horizon = float(energy.times[-1])
        # unit-prefactor convention: sup|alpha| enters as 1, also for the nonlinear
        # runs, whose alpha = 1 - 2k*psi_t
        log_constant = (
            float(np.log(1.0 / tau**2 + horizon**2 + 1.0))
            + (2.0 / tau + 1.0 + horizon) * horizon
            + float(np.log1p(tau))
        )
        if log_constant > _LOG_CONSTANT_FLAG:
            flags.append("constant not tau-robust")

    return AuditReport(
        mode=mode,
        lhs_total=lhs,
        rhs_total=rhs,
        ratio=ratio,
        log_constant=log_constant,
        flags=tuple(flags),
    )
