"""Exception hierarchy shared across the package."""

from __future__ import annotations


class AllosteryError(Exception):
    """Base class for all errors raised by this package."""


class RankMismatchError(AllosteryError):
    """Vectors or elements of incompatible ranks were combined."""


class BudgetExceededError(AllosteryError):
    """An enumeration would exceed the configured budget."""

    def __init__(self, needed: int, budget: int, what: str = "states"):
        self.needed = needed
        self.budget = budget
        self.what = what
        super().__init__(f"{what} budget exceeded: need {needed}, budget {budget}")


class ForgeError(AllosteryError):
    """A subgroup cannot be forged from the given inputs."""


class DatumInvariantError(AllosteryError):
    """A subgroup datum violates one of its structural invariants."""


class WindowError(AllosteryError):
    """A window built from data of mixed ranks, or given a state that is
    not one of its states."""


class MeasureConditionError(AllosteryError):
    """The strict measure inequality required for comparison fails."""


class CertificateError(AllosteryError):
    """A certificate is structurally unusable (wrong kind, invalid input)."""


class TextParseError(AllosteryError):
    """Parse failure in a text form, with position information when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)
