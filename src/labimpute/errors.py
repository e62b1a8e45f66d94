"""Exception taxonomy shared across the package, and the field checks that
raise it.

DataError covers everything caused by the input data or configuration
(parse failures, schema violations, shape mismatches, degenerate inputs).
InvariantError marks violated internal guarantees, e.g. a verified
algebraic identity failing beyond tolerance.  The CLI maps DataError to
exit code 2 and InvariantError to exit code 3.
"""

import numpy as np


class DataError(Exception):
    """Invalid or degenerate input data, configuration, or file contents."""


class SchemaError(DataError):
    """Column schema violated: unknown category, name/width mismatch."""


class InvariantError(Exception):
    """An internal guarantee did not hold; indicates a bug, not bad input."""


# Field converters return the value in its canonical type or raise the
# TypeError or ValueError that checked() turns into a DataError.

def _of(kind: type):
    """A converter that passes only values of one type."""
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {kind.__name__}")
        return value
    return check


def _number(value) -> float:
    if isinstance(value, (bool, np.bool_, str)):
        raise TypeError("expected a number")
    return float(value)


def _integer(value) -> int:
    _number(value)  # bools and strings are not integers
    if int(value) != value:
        raise ValueError("expected an integer")
    return int(value)


def _optional_integer(value) -> int | None:
    return None if value is None else _integer(value)


def _tuple_of(convert):
    """A converter for a list or tuple whose items all pass convert."""
    def check(values):
        if not isinstance(values, (list, tuple)):
            raise TypeError("expected a list")
        return tuple(convert(v) for v in values)
    return check


def checked(value, convert, key: str):
    """convert(value); any failure is a DataError naming key."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"{key!r} has an invalid value: {value!r}") from None


def check_fields(obj, converters: dict) -> None:
    """Replace each named field of a frozen dataclass by its converted value."""
    for name, convert in converters.items():
        object.__setattr__(obj, name, checked(getattr(obj, name), convert, name))
