"""Exception hierarchy, and the count, real-number and field type checks.

Every failure mode the library reports deliberately (as opposed to plain bugs)
derives from BilevelError so callers can catch one base class. The CLI maps
ConfigError/ParseError/InfeasiblePlanError to exit code 2 and NumericalError
(including SingularMatrixError) to exit code 3.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import operator


class BilevelError(Exception):
    """Base class for all deliberate library errors."""


class ContractViolationError(BilevelError):
    """An argument violated a documented precondition (shape, dtype, range).

    field, when set, names the argument at fault; the config loader appends
    it to the section path.
    """

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


class NumericalError(BilevelError):
    """A numerical procedure failed: non-finite values, divergence, breakdown.

    step_index, when known, names the iteration at which the failure occurred;
    member, in a batched computation, names the first failing member.
    """

    def __init__(self, message: str, step_index: int | None = None,
                 member: int | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.member = member

    def __str__(self) -> str:
        text = super().__str__()
        return text if self.member is None else f"{text} (member {self.member})"


class SingularMatrixError(NumericalError):
    """A direct solve hit a (numerically) singular matrix."""


class ConfigError(BilevelError):
    """A config value failed validation. field_path names the offending key."""

    def __init__(self, message: str, field_path: str = ""):
        super().__init__(message)
        self.field_path = field_path


class ParseError(ConfigError):
    """The config file could not be parsed at all. line is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message, field_path="")
        self.line = line


class InfeasiblePlanError(ConfigError):
    """A split plan asks for more than the data admits (e.g. U > C(n, m_val))."""


def require_count(value, name: str, minimum: int = 0) -> None:
    """Refuse a count that is not an integer (2.7, "7", True) or is below minimum.

    Python and numpy integers pass, through operator.index.
    """
    try:
        ok = not isinstance(value, bool) and operator.index(value) >= minimum
    except TypeError:
        ok = False
    if not ok:
        raise ContractViolationError(f"{name} must be an integer >= {minimum}, got {value!r}",
                                     field=name)


def require_real(value, name: str) -> None:
    """Refuse a value that is not a finite real number ("0.1", True, None, nan, inf)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ContractViolationError(f"{name} must be a finite real number, got {value!r}",
                                     field=name)


def require_fields(obj) -> None:
    """Check each int, float and bool field of a dataclass against its string annotation."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.type == "int":
            require_count(value, f.name)
        elif f.type == "float":
            require_real(value, f.name)
        elif f.type == "bool" and not isinstance(value, bool):
            raise ContractViolationError(f"{f.name} must be true or false, got {value!r}",
                                         field=f.name)
