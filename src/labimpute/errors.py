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
# TypeError or ValueError, with the reason as its message, that checked()
# turns into a DataError.

def _of(kind: type):
    """A converter that passes only values of one type."""
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {kind.__name__}")
        return value
    return check


_NOT_NUMBERS = (bool, np.bool_, str, bytes)


def _number(value) -> float:
    try:
        if not isinstance(value, _NOT_NUMBERS):
            return float(value)
    except TypeError:
        pass
    raise TypeError("expected a number")


def _integer(value) -> int:
    try:
        if not isinstance(value, _NOT_NUMBERS) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise TypeError("expected an integer")


def _where(convert, ok, rule: str):
    """convert, then require ok(converted value); rule says what failed."""
    def check(value):
        out = convert(value)
        if not ok(out):
            raise ValueError(rule)
        return out
    return check


def _optional(convert):
    """convert, letting None through."""
    return lambda value: None if value is None else convert(value)


def _tuple_of(convert):
    """A converter for a list or tuple whose items all pass convert."""
    def check(values):
        if not isinstance(values, (list, tuple)):
            raise TypeError("expected a list")
        return tuple(convert(v) for v in values)
    return check


_positive = _where(_integer, lambda n: n >= 1, "must be >= 1")
_non_negative = _where(_integer, lambda n: n >= 0, "must be >= 0")
_non_negative_real = _where(_number, lambda r: 0.0 <= r < np.inf, "must be finite and >= 0")
# every seed is folded to 64 bits, and a 64-bit integer survives JSON
_seed = _where(_integer, lambda n: -(1 << 63) <= n < 1 << 64, "outside [-2**63, 2**64)")


def _shown(value) -> str:
    """repr(value), or a description where repr fails (an int too long
    for str, an object whose __repr__ raises)."""
    try:
        return repr(value)
    except Exception:
        if isinstance(value, int):
            return f"an integer of {value.bit_length()} bits"
        return f"a {type(value).__name__} that cannot be shown"


def checked(value, convert, key: str):
    """convert(value); any failure is a DataError naming key and the reason."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{key!r} has an invalid value: {_shown(value)}; {exc}") from None


def check_fields(obj, converters: dict) -> None:
    """Replace each named field of a frozen dataclass by its converted value."""
    for name, convert in converters.items():
        object.__setattr__(obj, name, checked(getattr(obj, name), convert, name))
