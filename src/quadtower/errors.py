"""Exception types shared across the toolkit."""


class QuadTowerError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgument(QuadTowerError, ValueError):
    """Argument outside the function's domain, such as an empty scan range;
    also a ValueError."""


class BoundExceeded(QuadTowerError):
    """Input exceeds a configured enumeration or factoring bound."""


class NotFundamental(QuadTowerError):
    """Integer is not a fundamental discriminant."""


class NotImaginary(QuadTowerError):
    """Discriminant is not negative."""


class SquareDiscriminant(QuadTowerError):
    """Form discriminant is zero or a perfect square."""


class DiscriminantMismatch(QuadTowerError):
    """Forms do not share the required discriminant."""


class InertPrime(QuadTowerError):
    """No prime ideal of residue degree one above this prime."""


class NonIntegralResult(QuadTowerError):
    """Class number formula produced a non-integral or non-2-power value."""


class PreconditionViolated(QuadTowerError):
    """Congruence or symbol precondition failed; message lists the culprit."""


class InvalidParams(QuadTowerError):
    """Group parameters outside the supported family ranges."""


class GroupMismatch(QuadTowerError):
    """Elements belong to different groups."""


class RankMismatch(QuadTowerError):
    """Frattini quotient does not have the expected rank."""


class IndexNotTwo(QuadTowerError):
    """Subgroup index is not 2 where the transfer map requires it."""


class ElementOutsideK(QuadTowerError):
    """Transfer argument lies outside the source subgroup."""


class NotNormal(QuadTowerError):
    """Quotient requested by a non-normal subgroup."""


class NonAbelianQuotient(QuadTowerError):
    """Abelian invariants requested for a non-abelian quotient."""


class UnsupportedKind(QuadTowerError):
    """Operation defined only for the supported discriminant kinds."""


class StructureMismatch(QuadTowerError):
    """A computed structure contradicts the expected shape: a class group,
    or a subgroup series or derived-subgroup certificate in a finite group."""
