"""Exception hierarchy shared across the package."""


class MonappellError(Exception):
    """Base class for errors raised by this package."""


class ContextMismatchError(MonappellError):
    """Operands belong to Clifford algebras of different dimension."""


class NonScalarInputError(MonappellError):
    """A scalar-valued (grade-0) polynomial was required."""


class NonVectorInputError(MonappellError):
    """A vector-valued (grade-1) polynomial was required."""


class DependsOnX0Error(MonappellError):
    """Cauchy-Kovalevskaya initial data must not involve x_0."""


class InvalidInitialTermError(MonappellError):
    """Candidate initial term is not homogeneous monogenic of the stated degree."""


class DimensionTooSmallError(MonappellError):
    """No built-in initial term of this degree exists in this dimension."""


class NotAxialFormError(MonappellError):
    """Polynomial cannot be written as (A + (x/r) B) times the initial term."""


class EvenDimensionError(MonappellError):
    """The Fueter map implemented here requires an odd dimension."""


class DegreeLimitError(MonappellError, ValueError):
    """A monomial degree reaches the limit of the packed exponent fields; a
    ValueError too, like every other rejected input value."""


class ArgumentTooSmallError(MonappellError):
    """Index below the threshold where the Fueter factor is defined."""
