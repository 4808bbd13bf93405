"""Exception hierarchy.

Every domain error raised by the library derives from ArtinMarkError, so the
CLI can map them uniformly to exit code 1.  Malformed textual input raises
ParseError, which the CLI maps to exit code 2.
"""

from __future__ import annotations


class ArtinMarkError(Exception):
    """Base class for all domain errors."""


class UnsupportedType(ArtinMarkError):
    """(family, rank) is not one of the finite types."""


class MixedContext(ArtinMarkError):
    """Operands belong to different groups / root systems."""


class NotPositive(ArtinMarkError):
    """Operation defined only on elements of the monoid."""


class EmptySubset(ArtinMarkError):
    """Operation requires a nonempty generator subset."""


class Disconnected(ArtinMarkError):
    """Generator subset does not induce a connected subgraph."""


class NotIrreducible(ArtinMarkError):
    """Parabolic subgroup is not irreducible."""


class NotProper(ArtinMarkError):
    """Parabolic subgroup is the whole group."""


class NotASimplex(ArtinMarkError):
    """Vertex set is not pairwise adjacent (or has repeats)."""


class NotStandard(ArtinMarkError):
    """Operation requires standard parabolic subgroups."""


class NotMaximal(ArtinMarkError):
    """Simplex is not maximal."""


class NotAStandardizer(ArtinMarkError):
    """Element does not carry the simplex to standard subgroups."""


class BudgetExceeded(ArtinMarkError):
    """A search reached count nodes, past its cap."""

    def __init__(self, count: int, cap: int):
        self.count, self.cap = count, cap
        super().__init__(f"{count} nodes exceed the node cap {cap}")


class NotCorankOne(ArtinMarkError):
    """Subset does not miss exactly one generator."""


class NotAnXRibbonX(ArtinMarkError):
    """Ribbon composition does not return to the starting subset."""


class BaseNotMaximal(ArtinMarkError):
    """Base of a marking does not span a maximal simplex."""


class TransversalityPatternBroken(ArtinMarkError):
    """z-commutation pattern of a marking fails at a pair of indices."""

    def __init__(self, i: int, j: int):
        self.indices = (i, j)
        super().__init__(f"z-commutation pattern broken at pair ({i}, {j})")


class NotSimultaneouslyStandardizable(ArtinMarkError):
    """Transversal cannot be standardized together with the base."""

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"pair {index} is not simultaneously standardizable")


class PreconditionViolated(ArtinMarkError):
    """Operation preconditions not met."""


class InvariantViolated(ArtinMarkError):
    """An internal invariant failed: a bug, not bad input."""


class UnknownFormat(ArtinMarkError):
    """Unknown export format."""


class ParseError(ArtinMarkError):
    """Malformed textual input, with the offset of the fault in the parsed
    text when there is one."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        super().__init__(message if position is None else f"{message} (at offset {position})")
