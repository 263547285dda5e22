"""Energy functionals, data norms and estimate audits.

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
from .exceptions import InconsistentEnergyError
from .model import BoundaryKind, ModelParams, SolverConfig, WindowedSignal, signal_eval

if TYPE_CHECKING:
    from .integrate import Trajectory

__all__ = [
    "AuditMode",
    "EnergyRecord",
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


class AuditMode(Enum):
    TAU_DEPENDENT = "TauDependent"
    TAU_UNIFORM = "TauUniform"
    HIGHER = "Higher"


@dataclass
class EnergyRecord:
    """Left-hand-side energy pieces of the estimates, on the trajectory grid.

    Pointwise series are squared norms per time step; ``*_accum`` series are
    running time integrals (hence non-decreasing).  Lower-order and
    higher-order fields are filled by their respective operations and remain
    None otherwise.
    """

    times: np.ndarray
    tau: float
    sq_tt_l2: np.ndarray | None = None
    sq_t_h1: np.ndarray | None = None
    dual_accum: np.ndarray | None = None
    tt_accum: np.ndarray | None = None
    sq_tt_h1: np.ndarray | None = None
    sq_grad_tt: np.ndarray | None = None
    sq_lap_t: np.ndarray | None = None
    tt_h1_accum: np.ndarray | None = None
    ttt_l2_accum: np.ndarray | None = None

    @property
    def low(self) -> np.ndarray:
        """E_low(t) = tau*|psi_tt|_L2^2 + |psi_t|_H1^2."""
        return self.tau * self.sq_tt_l2 + self.sq_t_h1

    @property
    def high(self) -> np.ndarray:
        """E_high(t) = tau*|grad psi_tt|_L2^2 + |Delta psi_t|_L2^2."""
        return self.tau * self.sq_grad_tt + self.sq_lap_t

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def total(self, mode: AuditMode) -> float:
        """Energy side of the estimate audited in ``mode``.

        TAU_DEPENDENT: tau^2 ||psi_ttt||^2_{L2 (H1)*} + tau ||psi_tt||^2_{Linf L2}
                       + ||psi_t||^2_{Linf H1}
        TAU_UNIFORM:   the same plus ||psi_tt||^2_{L2 L2}; on a difference of
                       iterates this is the squared contraction norm
        HIGHER:        tau^2 ||psi_ttt||^2_{L2 L2} + tau ||psi_tt||^2_{Linf H1}
                       + ||psi_tt||^2_{L2 H1} + ||Delta psi_t||^2_{Linf L2}
        """
        tau = self.tau
        if mode is AuditMode.TAU_DEPENDENT:
            return (
                float(_require(self.dual_accum, "dual_accum")[-1])
                + tau * float(_require(self.sq_tt_l2, "sq_tt_l2").max())
                + float(_require(self.sq_t_h1, "sq_t_h1").max())
            )
        if mode is AuditMode.TAU_UNIFORM:
            return (
                float(_require(self.tt_accum, "tt_accum")[-1])
                + float(_require(self.sq_t_h1, "sq_t_h1").max())
                + float(_require(self.dual_accum, "dual_accum")[-1])
                + tau * float(_require(self.sq_tt_l2, "sq_tt_l2").max())
            )
        if mode is AuditMode.HIGHER:
            return (
                float(_require(self.ttt_l2_accum, "ttt_l2_accum")[-1])
                + tau * float(_require(self.sq_tt_h1, "sq_tt_h1").max())
                + float(_require(self.tt_h1_accum, "tt_h1_accum")[-1])
                + float(_require(self.sq_lap_t, "sq_lap_t").max())
            )
        raise ValueError(f"unknown audit mode {mode!r}")


@dataclass
class BoundaryFlux:
    """Absorbing-end flux series: the accumulated acceleration flux and the
    running maximum of the velocity flux."""

    acceleration_flux_accum: np.ndarray
    velocity_flux_max: np.ndarray


def _require(record_field, name: str):
    if record_field is None:
        raise ValueError(f"energy record does not carry {name}; run the matching energy op first")
    return record_field


def energy_lower(traj: "Trajectory", basis: SpectralBasis) -> EnergyRecord:
    """Lower-order energies: E_low(t), the dual-norm accumulator, and A_tt.

    The (H1)* norm of psi_ttt uses the diagonal formula sum xi_i^2/(1+lambda_i),
    which is the exact dual norm on the span.  For a tau = 0 trajectory the
    dual accumulator is identically zero.
    """
    tau = traj.params.tau
    dt = traj.dt
    lam = basis.eigenvalues
    sq_tt_l2 = np.sum(traj.coeff_tt**2, axis=1)
    sq_t_h1 = np.sum((1.0 + lam) * traj.coeff_t**2, axis=1)
    if tau > 0.0 and traj.coeff_ttt is not None:
        sq_ttt_dual = np.sum(traj.coeff_ttt**2 / (1.0 + lam), axis=1)
        dual_accum = tau**2 * trapezoid_running(sq_ttt_dual, dt)
    else:
        dual_accum = np.zeros(len(traj.times))
    return EnergyRecord(
        times=traj.times,
        tau=tau,
        sq_tt_l2=sq_tt_l2,
        sq_t_h1=sq_t_h1,
        dual_accum=dual_accum,
        tt_accum=trapezoid_running(sq_tt_l2, dt),
    )


def energy_higher(traj: "Trajectory", basis: SpectralBasis) -> EnergyRecord:
    """Higher-order energies: E_high(t), the H1 accumulator of psi_tt, and
    the tau^2-weighted L2 accumulator of psi_ttt."""
    tau = traj.params.tau
    dt = traj.dt
    lam = basis.eigenvalues
    sq_tt_h1 = np.sum((1.0 + lam) * traj.coeff_tt**2, axis=1)
    sq_grad_tt = np.sum(lam * traj.coeff_tt**2, axis=1)
    sq_lap_t = np.sum(lam**2 * traj.coeff_t**2, axis=1)
    if tau > 0.0 and traj.coeff_ttt is not None:
        sq_ttt_l2 = np.sum(traj.coeff_ttt**2, axis=1)
        ttt_l2_accum = tau**2 * trapezoid_running(sq_ttt_l2, dt)
    else:
        ttt_l2_accum = np.zeros(len(traj.times))
    return EnergyRecord(
        times=traj.times,
        tau=tau,
        sq_tt_h1=sq_tt_h1,
        sq_grad_tt=sq_grad_tt,
        sq_lap_t=sq_lap_t,
        tt_h1_accum=trapezoid_running(sq_tt_h1, dt),
        ttt_l2_accum=ttt_l2_accum,
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
    absolute values on an interval end).
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
        sups.append(float(np.abs(series).max()))
        l2s.append(float(np.sqrt(trapezoid_total(series**2, config.dt))))
    return DataNorms(signal_sup=tuple(sups), signal_l2=tuple(l2s))


@dataclass(frozen=True)
class AuditReport:
    """Ratio of an estimate's energy side to its data side.

    Absolute estimate constants are never reported; sweeps of ratios are the
    judgement mechanism.  ``lhs_total`` is ``EnergyRecord.total(mode)``.
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


def audit_estimate(energy: EnergyRecord, data: DataNorms, mode: AuditMode) -> AuditReport:
    """Compare one run's energy total against its data total.

    TAU_DEPENDENT uses the lower estimate's left side and additionally tracks
    the exp(1/tau)-shaped constant, flagging it as not tau-robust once it
    exceeds 1e100.  TAU_UNIFORM uses the tau-independent accounting and
    HIGHER the second-derivative energies; for those two modes the ratio is
    meant to be judged across a tau sweep by the caller.
    """
    tau = energy.tau
    horizon = energy.horizon
    lhs = energy.total(mode)
    rhs = data.higher_total(tau) if mode is AuditMode.HIGHER else data.lower_total()

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
        if tau <= 0.0:
            raise ValueError("the tau-dependent audit requires tau > 0")
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
