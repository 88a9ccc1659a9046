"""Exception types shared across the package."""


class PrymdimError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PrymdimError, ValueError):
    """Malformed permutation text or cover-spec document."""


class DegreeMismatch(PrymdimError):
    """Generators act on different point sets."""


class CapExceeded(PrymdimError):
    """Group closure would pass the configured element cap (it stops
    before the coset that would), or the group has more conjugacy classes
    than the character table supports."""


class NotASubgroup(PrymdimError):
    """Element set is not closed under the group operation.

    Also raised when two class profiles give a non-integral double-coset
    count, which no pair of subgroups does.
    """


class NotRationalGroup(PrymdimError):
    """Group has an irreducible character with irrational values."""


class LiftFailure(PrymdimError):
    """Modular character data did not lift to integers."""


class NonIntegerFixedDim(PrymdimError):
    """Invariant dimension of an irrep under a cyclic subgroup is impossible.

    Raised when the character sum over the subgroup is not divisible by
    its order, when the quotient lies outside [0, deg], or when the
    subgroup's class profile is one that no cyclic subgroup has.
    """


class NotSquare(PrymdimError):
    """Matrix operation requires a square matrix."""


class Singular(PrymdimError):
    """Linear system has no unique solution."""


class OddRamificationDegree(PrymdimError):
    """Ramification divisor degree is odd; no such cover exists."""


class NegativeGenus(PrymdimError):
    """Riemann-Hurwitz yields a negative genus; no such cover exists."""


class NonIntegerSolution(PrymdimError):
    """Isotypic dimension system has a non-integral solution."""


class NonIntegerDimension(PrymdimError):
    """Closed-form dimension is not an integer."""


class UnsupportedType(PrymdimError):
    """Weyl type/rank outside the supported table."""


class OutOfRegime(PrymdimError):
    """Base dimension count is outside the Riemann-Roch regime."""


class SamplingExhausted(PrymdimError):
    """Branch-tuple rejection sampling ran out of attempts."""
