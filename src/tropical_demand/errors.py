"""Exception types shared across the package."""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInput(ToolkitError):
    """Input is structurally unusable (zero vector, duplicate bundles, ...)."""


class UnsupportedDimension(ToolkitError):
    """The operation is only available in a different ambient dimension."""


class NonConservative(ToolkitError):
    """A labeled subdivision is inconsistent with any single potential.

    ``cycle`` lists region ids of a closed adjacency walk witnessing the
    inconsistency, when one is available.
    """

    def __init__(self, message: str, cycle: tuple[int, ...] | None = None):
        super().__init__(message)
        self.cycle = cycle


class DomainError(ToolkitError):
    """An argument lies outside the domain required by the operation."""


class InstanceTooLarge(ToolkitError):
    """An input exceeds one of the package's fixed size caps: a hull's
    points, an allocation enumeration or a correspondence sample's pairs."""


class ValidationError(ToolkitError):
    """A parsed document is syntactically valid JSON but semantically broken."""


QUOTE_LIMIT = 40


def clipped(text: str) -> str:
    """``text`` cut to its first QUOTE_LIMIT characters, with its full
    length, when it is longer: an input or computed value may run to
    thousands of digits, and an error message should stay one short line."""
    if len(text) <= QUOTE_LIMIT:
        return text
    return f"{text[:QUOTE_LIMIT]}... ({len(text)} characters)"


def quoted(value) -> str:
    """``repr(value)`` for an error message, clipped."""
    return clipped(repr(value))
