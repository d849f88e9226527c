"""Exception hierarchy shared across the toolkit.

Each class maps onto one stable CLI exit code (see ``biphoton.cli``).
"""


class BiphotonError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(BiphotonError):
    """Invalid input, configuration, or parameter domain violation."""

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)


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

