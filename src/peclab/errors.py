"""Exception hierarchy.

Everything raised on bad data or bad requests derives from PeclabError so
the CLI can map it to a single exit code. model.validate_scenario returns
scenario-invariant violations as data; model.check_scenario raises them as
one ParameterError that names the scenario.
"""


class PeclabError(Exception):
    """Base class for all data/validation errors raised by this package."""


class ParameterError(PeclabError):
    """Invalid distribution or model parameters."""


class SchemaError(PeclabError):
    """A dataset is missing required columns or has a malformed layout."""


class SingularDesignError(PeclabError):
    """Design matrix is rank deficient; every rank check raises ``of(columns)``."""

    def __init__(self, message, columns=None):
        super().__init__(message)
        self.columns = list(columns) if columns is not None else []

    @classmethod
    def of(cls, columns: list[str]) -> "SingularDesignError":
        names = ", ".join(columns)
        return cls(f"design matrix is rank deficient (offending columns: {names})", columns)


class SeparationError(PeclabError):
    """Logistic likelihood is unbounded (perfectly separated response)."""


class ConvergenceError(PeclabError):
    """Iterative fit did not converge; carries the iteration trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class DiscretenessError(PeclabError):
    """A column expected to have small discrete support is continuous."""


class SupportError(PeclabError):
    """A requested value lies outside a table's support."""


class CapabilityError(PeclabError):
    """The requested model/link/error combination is not supported."""


class ScenarioFormatError(PeclabError):
    """A scenario file could not be parsed."""
