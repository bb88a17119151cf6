"""Exception taxonomy and the immutable-record base shared across the package.

The CLI maps the exceptions onto exit codes, so the distinctions are
part of the public contract: configuration problems are recoverable
user errors, genericity failures carry a certificate (a low-degree form
through the point scheme), and degenerate results signal that a
precondition the ambient geometry normally guarantees has failed.

Record is the base of the package's value types (QMatrix, HomPoly,
PointConfig, ...).  It lives here because every command loads this
module, and it imports nothing: the standard library's dataclasses
would pull in inspect, ast and dis at every start.
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


class Record:
    """Immutable value with named fields, compared and hashed by value.

    A subclass declares its fields as class annotations, in order, after
    those of the record it extends, and may validate them in
    __post_init__.  Instances are built by position or keyword; they
    are equal only to instances of the same class with equal fields,
    hash as the tuple of their fields, and raise AttributeError on
    assignment or deletion.  Each instance keeps a __dict__, so
    functools.cached_property works.
    """

    _fields = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = dict(zip(fields, args), **kwargs)
            if len(values) != len(args) + len(kwargs) or values.keys() != set(fields):
                raise TypeError(
                    f"{type(self).__name__}() takes the fields "
                    f"{', '.join(fields)}, each once, by position or keyword"
                )
            self.__dict__.update(values)
        else:
            self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")
