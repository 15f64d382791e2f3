"""Exception types and the three-valued verdict, shared across the package."""

import enum


class Verdict(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class ItypesError(Exception):
    pass


class ParseError(ItypesError):
    """Syntax error with the byte offset of the offending token."""

    def __init__(self, message, offset, expected=None):
        self.offset = offset
        self.expected = expected
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"at offset {offset}: {message}{suffix}")


class UnknownAtomError(ItypesError):
    def __init__(self, atom):
        self.atom = atom
        super().__init__(f"atom {atom!r} is not in the theory's constant set")


class UnsupportedTheory(ItypesError):
    """Raised when an operation needs more structure than the theory has."""


class ResourceLimit(ItypesError):
    """An enumeration universe exceeded its configured cap."""


class EmptyEnvFilter(ItypesError):
    """An environment maps a variable to the empty filter in an omega-free theory."""
