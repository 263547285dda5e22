"""Exception types shared across the solver stack."""

from __future__ import annotations

__all__ = [
    "JmgtLabError",
    "SolverFailure",
    "SingularStepMatrixError",
    "NonDegeneracyViolated",
    "PicardDivergenceError",
    "NonFiniteNormError",
    "CompatibilityError",
    "UnsupportedOrderError",
    "InconsistentEnergyError",
    "ConfigFileError",
    "InvalidParameters",
]


class JmgtLabError(Exception):
    """Base class for package-specific errors."""


class SolverFailure(JmgtLabError):
    """A time-stepping or fixed-point run could not be completed."""


class SingularStepMatrixError(SolverFailure):
    """The implicit step matrix was singular at some time step."""

    def __init__(self, step: int, time: float):
        self.step = step
        self.time = time
        super().__init__(f"singular step matrix at step {step} (t = {time:.6g})")


class NonDegeneracyViolated(SolverFailure):
    """The coefficient 1 - 2k*psi_t lost positivity somewhere on the grid."""

    def __init__(self, margin: float, time: float, iteration: int):
        self.margin = margin
        self.time = time
        self.iteration = iteration
        super().__init__(
            f"degeneracy margin {margin:.6g} <= 0 at t = {time:.6g} "
            f"(fixed-point iteration {iteration})"
        )


class PicardDivergenceError(SolverFailure):
    """The fixed-point loop diverged (stopped before ``max_iterations``, its
    differences growing) or hit its iteration cap without converging."""

    def __init__(self, differences: list[float], max_iterations: int):
        self.differences = differences
        self.max_iterations = max_iterations
        last = differences[-1] if differences else float("nan")
        reason = f"did not converge within {max_iterations} iterations"
        if len(differences) < max_iterations:
            reason = f"diverged at iteration {len(differences)} of at most {max_iterations}"
        super().__init__(f"fixed-point loop {reason} (last difference {last:.6g})")


class NonFiniteNormError(SolverFailure):
    """A norm that a run reports overflowed: the run is too large for double precision."""

    def __init__(self, quantity: str, value: float):
        self.quantity = quantity
        self.value = value
        super().__init__(f"{quantity} is not finite ({value}): the run overflows double precision")


class CompatibilityError(ValueError, JmgtLabError):
    """Boundary data violate the zero-initial-data compatibility conditions."""

    def __init__(self, violations: list[int], required_order: int):
        self.violations = violations
        self.required_order = required_order
        super().__init__(
            f"signal derivatives of orders {violations} are nonzero at t = 0 "
            f"(compatibility up to order {required_order} required)"
        )


class UnsupportedOrderError(ValueError, JmgtLabError):
    """A derivative order outside the supported range was requested."""


class InconsistentEnergyError(JmgtLabError):
    """Zero data produced a nonzero energy record (uniqueness violated)."""


class InvalidParameters(ValueError, JmgtLabError):
    """Fields of a parameter object break their rules.

    ``violations`` lists every failing ``(field, rule)`` pair, one per field,
    where ``rule`` reads after the field name ("must be positive, got -1.0").
    """

    def __init__(self, owner: str, violations: list[tuple[str, str]]):
        self.violations = list(violations)
        details = "; ".join(f"{name} {rule}" for name, rule in self.violations)
        super().__init__(f"invalid {owner}: {details}")


class ConfigFileError(JmgtLabError):
    """One or more errors were found while parsing a config file."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid config file:\n" + "\n".join(self.errors))
