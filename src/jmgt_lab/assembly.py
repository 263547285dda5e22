"""Assembly of the Galerkin ODE system: stiffness, time-varying mass,
rank-one boundary matrices, load vectors, and the boundary-data lift.

The coefficient alpha(x, t) enters only through the mass matrix
M(t)_ij = (alpha w_i, w_j), and ``TimeVaryingMass`` forms every one: for a
general field a quadrature Gram of alpha sampled at the grid times and
quadrature nodes, for the unclamped Picard coefficient alpha = 1 - 2k*psi_t
the closed form I - 2k * sum_l c_l T_l from the mode triple products T_l,ij.
Loads are assembled for a whole time grid at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .basis import End, QuadratureRule, SpectralBasis, mode_matrix, project, trace_vector
from .exceptions import CompatibilityError
from .model import ModelParams, WindowedSignal, signal_eval, validate_compatibility

if TYPE_CHECKING:
    from .integrate import Trajectory

__all__ = [
    "CoefficientField",
    "TimeVaryingMass",
    "HarmonicLift",
    "assemble_stiffness",
    "assemble_mass",
    "assemble_boundary",
    "assemble_load",
    "assemble_loads",
    "sample_field",
    "harmonic_extension",
    "lift_forcing",
    "constant_field",
    "clamp_h",
    "field_from_trajectory",
]

SpatialFn = Callable[[np.ndarray], np.ndarray]
SpaceTimeFn = Callable[[np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class CoefficientField:
    """Coefficient alpha(x, t), optionally with its spatial and temporal derivatives.

    Evaluators take an ndarray of positions and a scalar time and return an
    array of the same shape.  The solvers read only ``value``, and only at
    the grid times of a run.
    """

    value: SpaceTimeFn
    space_derivative: SpaceTimeFn | None = None
    time_derivative: SpaceTimeFn | None = None


def constant_field(value: float = 1.0) -> CoefficientField:
    """Spatially and temporally constant coefficient field."""

    def _value(x, t):
        return np.full_like(np.asarray(x, dtype=float), value)

    return CoefficientField(value=_value)


def clamp_h(s, k: float):
    """Bounded coefficient h(s) = 1 - clamp(2ks, -1, 1), with range [0, 2].

    Coincides with 1 - 2ks whenever |2ks| <= 1.  It is active wherever
    2ks > 1, where 1 - 2ks is degenerate, and also wherever 2ks < -1, where it
    caps the coefficient at 2: a run with a positive margin can still differ
    from the unclamped one.
    """
    return 1.0 - np.clip(2.0 * k * np.asarray(s, dtype=float), -1.0, 1.0)


def _frozen_coefficient(velocity: np.ndarray, k: float, clamped: bool) -> np.ndarray:
    """The Picard coefficient from psi_t values: clamp_h(psi_t, k) or 1 - 2k*psi_t."""
    return clamp_h(velocity, k) if clamped else 1.0 - 2.0 * k * velocity


def field_from_trajectory(
    basis: SpectralBasis,
    traj: "Trajectory",
    k: float,
    clamped: bool = False,
) -> CoefficientField:
    """Coefficient field alpha = 1 - 2k*psi_t (or clamp_h(psi_t, k)) of a stored run.

    The field exists only at the trajectory's own grid times, where psi_t is
    the stored first-derivative series; any other time raises ValueError.
    """
    times = traj.times
    coeff_t = traj.coeff_t

    def _value(x, t):
        m = int(np.searchsorted(times, t))
        if m == len(times) or times[m] != t:
            raise ValueError(f"t = {t} is not a grid time of the trajectory")
        velocity = coeff_t[m] @ mode_matrix(basis, np.atleast_1d(np.asarray(x, dtype=float)))
        return _frozen_coefficient(velocity, k, clamped)

    return CoefficientField(value=_value)


def sample_field(field: CoefficientField, x: np.ndarray, times) -> np.ndarray:
    """alpha[m] = field.value(x, times[m]) (scalars broadcast); the only caller of ``value``."""
    pts = np.asarray(x, dtype=float)
    alpha = np.empty((len(times),) + pts.shape)
    for m, t in enumerate(times):
        alpha[m] = field.value(pts, float(t))
    return alpha


def _weighted_gram(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Symmetrized quadrature Gram matrix sum_q rows[i, q] weights[..., q] rows[j, q].

    Leading axes of ``weights`` are member axes; each member's matrix has the
    bits of its own two-dimensional einsum.  ``(rows * weights) @ rows.T`` is
    about five times faster, but it moves the ``mms`` report cells by up to
    1.26e-7 relative, so it waits for a re-recorded benchmark reference.
    """
    matrix = np.einsum("iq,...q,jq->...ij", rows, weights, rows)
    return 0.5 * (matrix + matrix.swapaxes(-1, -2))


def _triple_products(basis: SpectralBasis) -> np.ndarray:
    """Triple products T[l, i*n + j] = integral of w_i w_j w_l, in closed form.

    cos A cos B cos C is a quarter of the sum of cos(A + B + C), cos(A + B - C),
    cos(A - B + C) and cos(-A + B + C), so the integral over [0, L] is
    (L/4) N_i N_j N_l times the number of the conditions i + j + l = 0,
    i + j = l, i + l = j, j + l = i that hold.  The mass of sum_l c_l w_l is
    ``(c @ T).reshape(n, n)``, a Toeplitz-plus-Hankel matrix in c.  Rows are
    exactly symmetric in (i, j); the array holds n**3 doubles.
    """
    n = basis.n
    index = np.arange(n)
    l, i, j = index[:, None, None], index[None, :, None], index[None, None, :]
    count = (l + i + j == 0).astype(float) + (i + j == l) + (i + l == j) + (j + l == i)
    norm = basis.normalizations
    pair = norm[:, None] * norm[None, :]
    return (0.25 * basis.length * count * (norm[:, None, None] * pair)).reshape(n, n * n)


def assemble_stiffness(basis: SpectralBasis, quad: QuadratureRule) -> np.ndarray:
    """Stiffness K_ij = integral of w_i' w_j' (diag of eigenvalues to roundoff)."""
    return _weighted_gram(mode_matrix(basis, quad.nodes, deriv=1), quad.weights)


def assemble_mass(
    basis: SpectralBasis,
    quad: QuadratureRule,
    field: CoefficientField,
    t: float,
) -> np.ndarray:
    """Mass matrix M(t)_ij = integral of alpha(x, t) w_i w_j."""
    return TimeVaryingMass(basis, quad, sample_field(field, quad.nodes, [t])).matrix(0)


def assemble_boundary(basis: SpectralBasis, end: End) -> np.ndarray:
    """Rank-one trace matrix B_ij = w_i(a) w_j(a) at one end.

    The caller scales by c2*beta (velocity term) and b*beta (acceleration
    term) when inserting it into the mixed-boundary system.
    """
    traces = trace_vector(basis, end)
    return np.outer(traces, traces)


class TimeVaryingMass:
    """Mass matrices M(t_m) of one run, or of a batch of runs; every mass the step loop reads.

    ``rows[..., m, :]`` is read at step m, behind an optional leading member
    axis; a member axis of length 1 is one coefficient shared by a batch.
    With ``k`` None a row is alpha(., t_m) at the quadrature nodes.  With
    ``k``, ``rows[b, m]`` holds the psi_t coefficients of member b's previous
    Picard iterate and ``k[b, 0]`` its nonlinearity, so no alpha grid is
    stored.  With ``products`` from ``_triple_products`` that coefficient is
    the unclamped 1 - 2k*psi_t and each mass is exact in closed form,
    I - 2k * (c @ T).reshape(n, n), with no quadrature (zero velocity or
    k = 0 gives I exactly).  Every other mass is the quadrature Gram of
    ``alpha_values(m)``, clamp_h(psi_t, k) for an iterate without ``products``.
    Every mass is split as M = ``_fixed`` + ``_varying(values, k)``: the fixed
    part is I for the closed form (the varying part (-2k c) @ T) and 0 for a
    Gram (the varying part the Gram itself).  ``_varying`` also forms the
    masses of psi_t rows that are not stored in ``rows``: the later rounds of
    a window of Picard rounds.  ``constant`` tells that no mass of the batch
    changes after M(t_1): no member's row from 1 on differs from the one
    before (a NaN differs from itself, and a row of a member with k = 0 never
    differs, since its coefficient is exactly 1 whatever psi_t is).
    """

    def __init__(
        self,
        basis: SpectralBasis,
        quad: QuadratureRule,
        rows: np.ndarray,
        k: np.ndarray | None = None,
        products: np.ndarray | None = None,
    ):
        self.quad = quad
        self._modes = mode_matrix(basis, quad.nodes)
        self.rows = rows
        self.k = k
        self._products = products
        self._fixed = np.eye(basis.n) if products is not None else 0.0
        differs = np.any(rows[..., 2:, :] != rows[..., 1:-1, :], axis=-1)
        if k is not None:
            differs &= k != 0.0
        self.constant = not differs.any()

    def alpha_values(self, m: int) -> np.ndarray:
        if self.k is None:
            return self.rows[..., m, :]
        return self._coefficient(self.rows[:, m], self.k)

    def matrix(self, m: int) -> np.ndarray:
        """M(t_m), one per member; a constant batch builds its one mass through here."""
        if self._products is None:
            return _weighted_gram(self._modes, self.quad.weights * self.alpha_values(m))
        return self._fixed + self._varying(self.rows[:, m], self.k)

    def _varying(self, values: np.ndarray, k: np.ndarray | None) -> np.ndarray:
        """The varying part of the masses of mass rows ``values[b]`` (alpha rows, or psi_t
        coefficient rows with nonlinearities ``k[b, 0]``); each has the bits of a lone row's."""
        if self.k is None:
            return _weighted_gram(self._modes, self.quad.weights * values)
        if self._products is None:
            return _weighted_gram(self._modes, self.quad.weights * self._coefficient(values, k))
        count, n = values.shape
        # a stacked [B, 1, n] @ [n, n*n] product gives each member the bits of a lone run
        return ((-2.0 * k * values)[:, None, :] @ self._products).reshape(count, n, n)

    def _coefficient(self, velocity: np.ndarray, k: np.ndarray) -> np.ndarray:
        """The frozen Picard coefficient at the quadrature nodes of psi_t coefficient rows."""
        values = (velocity[:, None, :] @ self._modes)[:, 0]
        return _frozen_coefficient(values, k, self._products is None)


def assemble_loads(
    basis: SpectralBasis,
    quad: QuadratureRule,
    f: SpaceTimeFn | None,
    g: WindowedSignal | None,
    params: ModelParams,
    times,
) -> np.ndarray:
    """Loads F_i(t) = (f(., t), w_i) + (c2*g(t) + b*g_t(t)) * w_i(0), one row per time.

    The signal always drives the left end; an absorbing right end enters
    through the boundary matrices, so the load is the same under both
    boundary kinds.
    """
    times = np.asarray(times, dtype=float)
    loads = np.zeros((times.size, basis.n))
    if f is not None:
        modes = mode_matrix(basis, quad.nodes)
        for m, t in enumerate(times):
            loads[m] += modes @ (quad.weights * np.asarray(f(quad.nodes, t), dtype=float))
    if g is not None:
        gain = params.c2 * signal_eval(g, times, 0) + params.b * signal_eval(g, times, 1)
        loads += np.outer(gain, trace_vector(basis, End.LEFT))
    return loads


def assemble_load(
    basis: SpectralBasis,
    quad: QuadratureRule,
    f: SpaceTimeFn | None,
    g: WindowedSignal | None,
    params: ModelParams,
    t: float,
) -> np.ndarray:
    """Load vector F(t) at one time; see ``assemble_loads``."""
    return assemble_loads(basis, quad, f, g, params, [t])[0]


@dataclass(frozen=True)
class HarmonicLift:
    """Closed-form solution of -v'' + v = 0, -v'(0) = h, v'(L) = 0.

    ``coeffs`` holds the L2 projection of the profile onto the basis span.
    """

    boundary_value: float
    length: float
    coeffs: np.ndarray

    def profile(self, x) -> np.ndarray:
        """Evaluate v(x) = h * cosh(L - x) / sinh(L) (overflow-safe form)."""
        pts = np.asarray(x, dtype=float)
        L = self.length
        num = np.exp(-pts) + np.exp(pts - 2.0 * L)
        return self.boundary_value * num / (1.0 - math.exp(-2.0 * L))


def harmonic_extension(basis: SpectralBasis, quad: QuadratureRule, h: float) -> HarmonicLift:
    """Extend Neumann data h at the left end into the interior.

    The extension is the unique solution of -v'' + v = 0 with inward flux h
    at x = 0 and zero flux at x = L; it is returned in closed form together
    with its projection coefficients.
    """
    if not math.isfinite(h):
        raise ValueError(f"boundary value must be finite, got {h}")
    lift = HarmonicLift(boundary_value=float(h), length=basis.length, coeffs=np.zeros(basis.n))
    coeffs = project(basis, quad, lift.profile)
    return HarmonicLift(boundary_value=float(h), length=basis.length, coeffs=coeffs)


def lift_forcing(
    basis: SpectralBasis,
    g: WindowedSignal,
    field: CoefficientField,
    params: ModelParams,
    t: float,
    f: SpaceTimeFn | None = None,
) -> SpatialFn:
    """Forcing of the homogenized problem at time t.

    Shifting the unknown by the lifted boundary data N g turns the
    inhomogeneous-Neumann problem into a homogeneous one whose source is

        f - tau*N g_ttt - alpha*N g_tt + c2*N g + b*N g_t,

    where the identity -N g + Delta(N g) = 0 replaced Delta(N g) by N g.
    Returns a spatial function of x for the given time.
    """
    violations = validate_compatibility(g, 3)
    if violations:
        raise CompatibilityError(violations, 3)
    unit = HarmonicLift(boundary_value=1.0, length=basis.length, coeffs=np.zeros(basis.n))
    g0 = signal_eval(g, t, 0)
    g1 = signal_eval(g, t, 1)
    g2 = signal_eval(g, t, 2)
    g3 = signal_eval(g, t, 3)
    static_gain = params.c2 * g0 + params.b * g1 - params.tau * g3

    def source(x: np.ndarray) -> np.ndarray:
        pts = np.asarray(x, dtype=float)
        profile = unit.profile(pts)
        total = (static_gain - sample_field(field, pts, [t])[0] * g2) * profile
        if f is not None:
            total = total + f(pts, t)
        return total

    return source
