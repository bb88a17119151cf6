"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes, so the distinctions are part of the
public contract: configuration problems are recoverable user errors,
genericity failures carry a certificate (a low-degree form through the
point scheme), and degenerate results signal that a precondition the
ambient geometry normally guarantees has failed.
"""


class SheafLociError(Exception):
    """Base class for all package-specific errors."""


class ParseError(SheafLociError):
    """Malformed polynomial or rational text.

    ``position`` is the 0-based offset of the offending token when the
    error came from the tokenizer, else None.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class ConfigError(SheafLociError):
    """Invalid point configuration or input data."""


class GenericityError(SheafLociError):
    """The configuration violates a genericity assumption.

    ``certificate`` holds a witness when one exists: the nonzero
    low-degree form vanishing on the whole point scheme.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class ShapeError(SheafLociError):
    """Matrix or polynomial-matrix shape/degree inconsistency."""


class DegenerateError(SheafLociError):
    """A quantity that must be nondegenerate on the supported strata is not.

    Raised e.g. for a vanishing determinant where a curve was expected, or
    for a singular locus whose codimension contradicts the asserted value.
    ``expected`` and ``actual`` hold the two values when an invariant
    check failed, else None.
    """

    def __init__(self, message, expected=None, actual=None):
        super().__init__(message)
        self.expected = expected
        self.actual = actual


class NotInFibreError(SheafLociError):
    """A curve that was required to pass through the point scheme does not."""
