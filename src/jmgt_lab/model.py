"""Physical parameters, boundary-signal family, and solver configuration.

All types here are immutable and safe to share across concurrent runs.  The
dataclasses are the only home of their fields' rules and defaults: each
checks every field on construction and raises InvalidParameters (a
ValueError) naming every field that breaks its rule.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .exceptions import InvalidParameters, UnsupportedOrderError

__all__ = [
    "BoundaryKind",
    "ModelParams",
    "WindowedSignal",
    "SolverConfig",
    "signal_eval",
    "validate_compatibility",
    "MAX_SIGNAL_ORDER",
]

#: Highest time-derivative order that ``signal_eval`` supports.  No src path goes
#: above order 3 (the data norms and the homogenized forcing use orders 0-3); the
#: fourth derivative is the last one that an onset power of 5 makes vanish at t = 0.
MAX_SIGNAL_ORDER = 4


def _check_fields(obj, rules: list[tuple[str, bool, str]]) -> None:
    """Raise InvalidParameters naming every field of ``obj`` that breaks a rule.

    Every field annotated ``float`` must be finite.  ``rules`` are
    ``(field, holds, rule)`` triples.  A field is reported once, with the first
    rule it breaks (finiteness first), in the order the fields are declared.
    """
    failed = {
        item.name: "must be finite"
        for item in fields(obj)
        if item.type == "float" and not math.isfinite(getattr(obj, item.name))
    }
    for name, holds, rule in rules:
        if not holds:
            failed.setdefault(name, rule)
    if failed:
        raise InvalidParameters(
            type(obj).__name__,
            [
                (item.name, f"{failed[item.name]}, got {getattr(obj, item.name)}")
                for item in fields(obj)
                if item.name in failed
            ],
        )


def _is_integer(value) -> bool:
    """An int or numpy integer; a bool is not an integer here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class BoundaryKind(Enum):
    """Boundary regime of a run.

    PURE_NEUMANN drives the left end with the signal and leaves the right end
    with a homogeneous Neumann condition.  MIXED keeps the signal on the left
    and places an absorbing condition (normal derivative = -beta * velocity)
    on the right end.
    """

    PURE_NEUMANN = "neumann"
    MIXED = "mixed"


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the acoustic model.

    ``b`` is always derived from the stored fields, so it cannot drift out of
    sync: b = delta + tau * c2.
    """

    c2: float
    delta: float
    tau: float
    k: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        _check_fields(
            self,
            [
                ("c2", self.c2 > 0.0, "must be positive"),
                ("delta", self.delta > 0.0, "must be positive"),
                ("tau", self.tau >= 0.0, "must be nonnegative"),
                ("beta", self.beta >= 0.0, "must be nonnegative"),
            ],
        )

    @property
    def b(self) -> float:
        """Damping coefficient combining diffusivity and relaxation."""
        return self.delta + self.tau * self.c2


@dataclass(frozen=True)
class WindowedSignal:
    """Boundary drive g(t) = A * t^p * exp(-sigma*t) * sin(omega*t), t >= 0.

    An onset power ``p >= 5`` makes g and its first four time derivatives
    vanish at t = 0, which is what the zero-initial-data runs require.  Lower
    powers are representable so that compatibility violations can be detected
    rather than silently excluded.
    """

    amplitude: float
    frequency: float
    onset_power: int = 5
    decay_rate: float = 0.0

    def __post_init__(self):
        whole = float(self.onset_power).is_integer() and self.onset_power >= 0
        _check_fields(
            self,
            [
                ("onset_power", whole, "must be a nonnegative integer"),
                ("decay_rate", self.decay_rate >= 0.0, "must be nonnegative"),
            ],
        )


def signal_eval(sig: WindowedSignal, t, order: int = 0):
    """Evaluate the signal or one of its exact time derivatives.

    The m-th derivative of t^p * exp(z*t) with z = -sigma + i*omega is the
    finite Leibniz sum over derivatives of the two factors; taking the
    imaginary part afterwards recovers the sine factor.  No finite
    differencing is involved.

    Parameters
    ----------
    sig : WindowedSignal
    t : float or array, must be >= 0
    order : derivative order in 0..4

    Returns
    -------
    float or ndarray matching the shape of ``t``.
    """
    if not 0 <= order <= MAX_SIGNAL_ORDER:
        raise UnsupportedOrderError(
            f"derivative order {order} unsupported (must be in 0..{MAX_SIGNAL_ORDER})"
        )
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("signal is defined for t >= 0 only")
    p = int(sig.onset_power)
    z = complex(-sig.decay_rate, sig.frequency)
    acc = np.zeros(arr.shape, dtype=complex)
    for j in range(min(order, p) + 1):
        coeff = math.comb(order, j) * math.perm(p, j)
        acc += coeff * arr ** (p - j) * z ** (order - j)
    values = sig.amplitude * np.imag(acc * np.exp(z * arr))
    if np.isscalar(t) or arr.ndim == 0:
        return float(values)
    return values


def validate_compatibility(sig: WindowedSignal, required_order: int) -> list[int]:
    """Check that g and its derivatives up to ``required_order - 1`` vanish at t = 0.

    Returns the (possibly empty) list of violated derivative orders; an empty
    list means the signal is compatible with zero initial data up to the
    requested order.  Never raises for a well-formed signal.
    """
    if required_order not in (2, 3, 4):
        raise ValueError(f"required_order must be in {{2, 3, 4}}, got {required_order}")
    return [m for m in range(required_order) if signal_eval(sig, 0.0, m) != 0.0]


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and fixed-point settings shared by all solvers.

    ``dt``, ``t_final`` and ``picard_tol`` are finite and positive, and
    ``dt`` must divide ``t_final`` (to a relative 1e-9), so the grid ends
    exactly at the horizon.  The sizes that follow from ``n_modes`` are
    derived, so ``dataclasses.replace`` with a new ``n_modes`` carries them
    along: ``quad_points`` = 4 * n_modes quadrature nodes and ``eval_grid``
    = 8 * n_modes spatial sample points, the fewest that integrate every
    product of two modes to roundoff and that resolve every mode extremum
    used in the checks.
    """

    dt: float
    t_final: float
    n_modes: int
    picard_tol: float = 1e-8
    picard_max: int = 25

    def __post_init__(self):
        # the rules that compare dt with t_final wait until t_final passes its own
        below = not self.t_final > 0.0 or self.dt < self.t_final
        ratio = self.t_final / self.dt if 0.0 < self.dt < self.t_final < math.inf else 1.0
        divides = math.isfinite(ratio) and not abs(ratio - round(ratio)) > 1e-9 * ratio
        # the count fields are integers (a bool is not one); their bounds are checked on
        # integers only
        whole = {"n_modes": _is_integer(self.n_modes), "picard_max": _is_integer(self.picard_max)}
        _check_fields(
            self,
            [
                ("dt", self.dt > 0.0, "must be positive"),
                ("dt", below, f"must be smaller than t_final = {self.t_final}"),
                ("dt", divides, f"must divide t_final = {self.t_final}"),
                ("t_final", self.t_final > 0.0, "must be positive"),
                *[(name, ok, "must be an integer") for name, ok in whole.items()],
                ("n_modes", whole["n_modes"] and self.n_modes >= 1, "must be at least 1"),
                ("picard_tol", self.picard_tol > 0.0, "must be positive"),
                ("picard_max", whole["picard_max"] and self.picard_max >= 1, "must be at least 1"),
            ],
        )

    @property
    def quad_points(self) -> int:
        """Quadrature nodes of a run, 4 * n_modes."""
        return 4 * self.n_modes

    @property
    def eval_grid(self) -> int:
        """Spatial sample points of the degeneracy margin, 8 * n_modes (both ends included)."""
        return 8 * self.n_modes

    @property
    def n_steps(self) -> int:
        """Number of uniform steps covering [0, t_final]."""
        return round(self.t_final / self.dt)

    @property
    def times(self) -> np.ndarray:
        """The n_steps + 1 grid times dt * m of a run."""
        return self.dt * np.arange(self.n_steps + 1)
