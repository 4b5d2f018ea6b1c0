"""Exception types shared across the package."""


class HybridFleetError(Exception):
    """Base class for all package errors."""


class ParameterError(HybridFleetError):
    """An argument violates a documented precondition."""


class InvariantViolation(HybridFleetError):
    """A data structure breaks one of its declared invariants."""

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        msg = invariant if not detail else f"{invariant}: {detail}"
        super().__init__(msg)


class ParseError(HybridFleetError):
    """A file failed to parse; message carries field/line diagnostics."""


class RoutingError(HybridFleetError):
    """No route exists between the requested endpoints."""


class TspSizeError(ParameterError):
    """Instance too large for the exact solver."""


class PlanConsistencyError(HybridFleetError):
    """A plan does not match the scenario/fleet it is executed against."""


class ConfigError(HybridFleetError):
    """Invalid experiment configuration."""
