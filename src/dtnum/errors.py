"""Exception hierarchy shared by all modules.

Every error carries a stable machine-readable ``code`` which the CLI
prints on stderr, so scripts can dispatch on failures without parsing
prose messages.
"""

from __future__ import annotations


class NumerationError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"


class DslSyntaxError(NumerationError):
    """Malformed substitution rule text."""

    code = "SyntaxError"


class EmptyImageError(NumerationError):
    code = "EmptyImage"


class UnknownLetterError(NumerationError):
    code = "UnknownLetter"


class NoGrowingLetterError(NumerationError):
    code = "NoGrowingLetter"


class InvalidSeedError(NumerationError):
    code = "InvalidSeed"


class OffsetOutOfRangeError(NumerationError):
    code = "OffsetOutOfRange"


class SideMissingError(NumerationError):
    code = "SideMissing"


class DigitOutOfRangeError(NumerationError):
    code = "DigitOutOfRange"


class NotFixedPointSeedError(NumerationError):
    code = "NotFixedPointSeed"


class CapExceededError(NumerationError):
    code = "CapExceeded"


class DigitCapExceededError(NumerationError):
    """The answer needs more levels (digits per word) than ``core._MAX_LEVEL``,
    or weights holding more bits than ``positionality._MAX_WEIGHT_BITS``."""

    code = "DigitCapExceeded"


class OutOfMemoryError(NumerationError):
    """The interpreter ran out of memory (``MemoryError``) while answering.
    The library lets ``MemoryError`` pass; the CLI refuses the request with
    this code, exit 2 and no traceback."""

    code = "OutOfMemory"


class NotPositionalSystemError(NumerationError):
    code = "NotPositionalSystem"


class NotLengthUniformError(NumerationError):
    """Image lengths differ across the non-final letters.

    ``witness`` holds ``(letter1, letter2, exponent, length1, length2)``.
    """

    code = "NotLengthUniform"

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ShapeMismatchError(NumerationError):
    code = "ShapeMismatch"
