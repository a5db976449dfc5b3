"""Exception taxonomy shared by all modules.

Two families matter for the CLI exit-code mapping: configuration /
validation problems (:class:`ValidationError`, exit 2) and numerical
failures (:class:`NumericalError`, exit 3). A subclass exists only where
code tells it apart from its family.
"""


class MultigridError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MultigridError):
    """A specification, scenario, or argument is malformed."""


class SchemaViolation(ValidationError):
    """A scenario document does not match the expected schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class NumericalError(MultigridError):
    """A numerical procedure failed or left its domain of validity."""


class DcVoltageCollapse(NumericalError):
    """The DC-bus voltage dropped to or below zero."""


class NewtonDivergence(NumericalError):
    """Newton iteration failed to reach the residual tolerance."""
