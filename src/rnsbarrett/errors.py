"""Exception types raised across the package.

Every class maps to one failure mode of the public API. All inherit from
RnsBarrettError so callers can catch the package's errors wholesale.
Messages render integers through ``int_text``, so an operand too long for
``str()`` cannot turn a named error into a ``ValueError``. ``parse_int``
reads the integers of the command line and of parameter files.
"""

import sys


def int_text(value: int) -> str:
    """Decimal text of ``value``, or ``<N-bit integer>`` past the str limit.

    CPython 3.11, and 3.10.7 and later 3.10 releases, refuse to convert
    integers of more than ``sys.int_max_str_digits`` decimal digits (4300
    by default) to text.
    """
    try:
        return str(value)
    except ValueError:
        sign = "-" if value < 0 else ""
        return f"{sign}<{value.bit_length()}-bit integer>"


def parse_int(text: str) -> int:
    """The integer that decimal or ``0x`` hex ``text`` spells.

    A ValueError shows at most a short prefix of ``text``; a valid decimal
    past the str limit (see ``int_text``) is refused with a pointer to hex.
    """
    try:
        if text.lower().startswith("0x"):
            return int(text, 16)
        return int(text, 10)
    except ValueError:
        digits = text.strip().lstrip("+-").replace("_", "")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and len(digits) > limit and digits.isdecimal():  # valid, but too long
            raise ValueError(
                f"decimal number {text[:12]!r}... is too long to parse "
                f"({len(digits)} digits, limit {limit}); write it in 0x hex"
            ) from None
        shown = repr(text) if len(text) <= 40 else f"{text[:12]!r}..."
        raise ValueError(f"not a number: {shown}") from None


class RnsBarrettError(Exception):
    """Base class for every error raised by this package."""


class ModulusTooSmall(RnsBarrettError):
    """A modulus smaller than 2 was supplied."""


class DuplicateOrNonCoprime(RnsBarrettError):
    """Two moduli in a set share a common factor."""


class OutOfRange(RnsBarrettError):
    """An integer lies outside the representable range [0, M)."""


class SetMismatch(RnsBarrettError):
    """A residue vector met a vector, partition or context over another moduli set."""


class EmptyKnownSet(RnsBarrettError):
    """A partial residue vector has no known positions."""


class ConditionViolation(RnsBarrettError):
    """A divisor or capacity condition required by the reduction fails."""


class InputOutOfRange(RnsBarrettError):
    """An operand exceeds the admissible input range for its range case."""


class CaseMismatch(RnsBarrettError):
    """The context's range case does not fit the requested operation."""


class SelectionFailed(RnsBarrettError):
    """No satisfying parameter set was found within the search budget."""


class NotCoprime(RnsBarrettError):
    """Arguments that must be coprime are not."""
