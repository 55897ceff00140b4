"""Exception types shared across the package."""

from __future__ import annotations


class AvcyclicError(Exception):
    """Base class for all package errors."""


class InputError(AvcyclicError, ValueError):
    """Invalid input rejected at a module boundary.

    ``code`` is a short machine-readable tag; the message stays human
    oriented.  cli._failure, the one exit mapping, gives these exit code 1
    when the code is in cli._REFUSAL_CODES (well-formed input refused on
    mathematical grounds, e.g. a reducible polynomial handed to the
    classifier) and 2 otherwise (malformed input), for a command and for
    each context of a sweep alike.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class CapabilityError(AvcyclicError):
    """A request outside the supported desk-scale envelope: a degree over
    DEGREE_CAP, an enumeration past its q or g cap, a factor or divisor
    search past FACTOR_BOX_CAP, a g = 1 default bound past G1_INDEX_CAP, a
    primality test past MILLER_RABIN_BOUND, or a q too long for the JSON
    writer."""


class DegenerateLatticeError(AvcyclicError):
    """Generating set does not span a full-rank lattice."""

    def __init__(self, message: str = "degenerate lattice"):
        super().__init__(message)


class ConsistencyError(AvcyclicError):
    """Two routes that must agree disagreed.  Indicates a kernel bug, never
    a user error; the CLI maps this to exit code 3."""
