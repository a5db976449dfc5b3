"""Exception taxonomy shared by all modules.

Two families matter for the CLI exit-code mapping: configuration /
validation problems (exit 2) and numerical failures (exit 3).
"""


class MultigridError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MultigridError):
    """A specification, scenario, or argument is malformed."""


class DanglingEndpoint(ValidationError):
    """An ILC references a microgrid index that does not exist."""


class DisconnectedGraph(ValidationError):
    """The microgrid/ILC graph is not connected."""


class SchemaViolation(ValidationError):
    """A scenario document does not match the expected schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class UnknownScheme(ValidationError):
    """An ILC controller scheme tag is not recognised."""


class SchemeStateMismatch(ValidationError):
    """A state vector does not match the selected scheme's layout."""


class PortMismatch(ValidationError):
    """Component ports cannot be wired into the network interconnection."""


class NonFiniteInput(ValidationError):
    """An input value is NaN or infinite."""


class EmptySeries(ValidationError):
    """A plot was requested for an empty or non-finite data series."""


class NumericalError(MultigridError):
    """A numerical procedure failed or left its domain of validity."""


class DcVoltageCollapse(NumericalError):
    """The DC-bus voltage dropped to or below zero."""


class NewtonDivergence(NumericalError):
    """Newton iteration failed to reach the residual tolerance."""


class SingularResolvent(NumericalError):
    """(jw*I - A) is singular at a requested frequency."""


class NonBracketing(NumericalError):
    """A bisection interval is stable only at the end its search direction
    expects to be unstable."""
