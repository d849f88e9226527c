"""Exception hierarchy shared across the toolkit.

Each class maps onto one stable CLI exit code (see ``biphoton.cli``).
"""

import functools
import math
import numbers
import types
import typing


class BiphotonError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(BiphotonError):
    """Invalid input, configuration, or parameter domain violation."""

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)


def check_fields(obj):
    """Check each field of the dataclass ``obj`` against its annotation: an
    ``int`` is an integer and a ``float`` a finite integer or real, neither
    a bool; ``tuple[int, ...]`` takes a list or tuple of ints, stored as a
    tuple; ``dict[int, float]`` takes int or integer-string keys, stored as
    ints, and float values; ``X | None`` also takes None; any other class,
    an instance of it. Numbers are stored as given. A value that fails
    raises ``ValidationError`` naming its field."""
    for name, hint in _hints(type(obj)).items():
        object.__setattr__(obj, name, _checked(getattr(obj, name), hint, name))


_hints = functools.cache(typing.get_type_hints)  # once per class


def _checked(value, hint, name):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # X | None
        return value if value is None else _checked(value, args[0], name)
    if origin is tuple and isinstance(value, (list, tuple)):
        return tuple(_checked(v, args[0], name) for v in value)
    if origin is dict and isinstance(value, dict):
        return {_checked(int(k) if isinstance(k, str) and k.removeprefix("-").isdecimal()
                         else k, args[0], name): _checked(v, args[1], name)
                for k, v in value.items()}
    if hint in (int, float):  # a comparison with inf is False for NaN
        ok = (isinstance(value, numbers.Integral if hint is int else numbers.Real)
              and not isinstance(value, bool) and -math.inf < value < math.inf)
    else:
        ok = origin is None and isinstance(value, hint)
    if not ok:
        kind = {int: "an integer", float: "a finite number"}.get(hint, hint)
        raise ValidationError(f"{value!r} is not {kind}", field=name)
    return value


class OrderingError(ValidationError):
    """Records or events were required to be time-sorted but are not."""


class StreamFormatError(BiphotonError):
    """File does not look like a time-tag stream (bad magic/version)."""


class CorruptionError(BiphotonError):
    """Stream is structurally damaged; ``offset`` is the failing byte."""

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"{message} (byte offset {offset})")


class BudgetError(ValidationError):
    """Compiled sequence exceeds the hardware word budget."""

    def __init__(self, message, overflow_words):
        self.overflow_words = overflow_words
        super().__init__(f"{message} ({overflow_words} words over budget)")

