"""Simplices of the complex of irreducible parabolic subgroups.

A simplex is a set of pairwise adjacent vertices, adjacency meaning the
central elements z_P commute.  The level of a vertex is one plus the number
of vertices properly containing it; level 1 is the set of maximal elements.
Levels are read off the standardized subsets: the canonical standardizer
ghat conjugates every vertex to a standard A_X, conjugation preserves
containment, and A_X lies in A_Y exactly when X lies in Y, so plain subset
inclusion of the targets decides nesting.
A maximal simplex of standard subgroups is characterized combinatorially:
the union of the subsets misses exactly one generator t, and inside every
vertex the union of the properly contained vertices misses exactly one
generator t_i.  Enumeration of maximal standard simplices applies that
characterization recursively, component by component.

The canonical positive standardizer of a simplex is the minimal
simultaneous standardizer of all its vertices.  The program needs no other
standardizer: the paper's statements about them (ascending products of
powers of Delta_{X_i} and Delta_Gamma, simplex stabilizers) have reference
implementations in tests/oracles.py, which the tests check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InvariantViolated, NotASimplex, PreconditionViolated
from .garside import ArtinElement, GarsideContext
from .parabolic import (
    ParabolicSubgroup,
    check_simplex_family,
    delta_permutation,
    parabolics_from_json,
    simultaneous_standardizer,
    standard_adjacent,
)

Subset = frozenset[int]


def pattern_break(graph, y: Subset, subsets, i: int) -> int | None:
    """The first m with standard_adjacent(y, subsets[m]) != (m != i), or None:
    whether A_y keeps the transversality pattern at index i, adjacent to
    every A_{subsets[m]} except A_{subsets[i]}."""
    for m, x in enumerate(subsets):
        if standard_adjacent(graph, y, x) != (m != i):
            return m
    return None


def transversal_subset(ctx: GarsideContext, subsets, i: int) -> Subset:
    """The standard transversal subset at index i of a maximal standard
    family: the one connected proper Y that keeps the transversality pattern.

    Every maximal standard family has exactly one such Y at each index (the
    tests compare it with an independent recursive construction on every
    family of 25 types up to rank 8); any other count raises
    InvariantViolated.  Memoized in ctx.transversal_subsets.
    """
    key = (tuple(subsets), i)
    if key not in ctx.transversal_subsets:
        found = [
            y for y in ctx.connected_proper_subsets()
            if pattern_break(ctx.graph, y, subsets, i) is None
        ]
        if len(found) != 1:
            raise InvariantViolated(
                f"{len(found)} subsets keep the transversality pattern at index {i}"
            )
        ctx.transversal_subsets[key] = found[0]
    return ctx.transversal_subsets[key]


def delta_twisted(
    ctx: GarsideContext, subsets, i: int, twist: int
) -> tuple[Subset, ...]:
    """The image of a standard simplex family under conjugation by
    Delta_{X_i}^twist, X_i = subsets[i].

    Each X_m is nested in X_i, contains it, or is disjoint from it and not
    adjacent to it.  Delta_{X_i} lies in A_{X_m} when X_i <= X_m, commutes
    with A_{X_m} in the disjoint case, and maps A_{X_m} with X_m < X_i to
    A_{pi(X_m)} by its involution pi of the generators of X_i
    (Brieskorn-Saito 1972), so only the nested subsets move, and only at odd
    twists.
    """
    subsets = tuple(subsets)
    if twist % 2 == 0:
        return subsets
    x_i = subsets[i]
    pi = delta_permutation(ctx, x_i)
    return tuple(frozenset(pi[s] for s in x) if x < x_i else x for x in subsets)


@dataclass(frozen=True)
class LevelDecomposition:
    """Partition of the vertex indices into levels."""

    levels: tuple[tuple[int, ...], ...]

    def level_of(self, index: int) -> int:
        for k, layer in enumerate(self.levels):
            if index in layer:
                return k + 1
        raise PreconditionViolated(f"vertex index {index} is in no level")


def nesting_levels(subsets: tuple[Subset, ...]) -> LevelDecomposition:
    """Levels of distinct subsets, by inclusion: a subset's level is one plus
    the number of subsets properly containing it."""
    n = len(subsets)
    depth = [1 + sum(x < y for y in subsets) for x in subsets]
    levels = tuple(
        tuple(i for i in range(n) if depth[i] == k) for k in range(1, max(depth, default=0) + 1)
    )
    return LevelDecomposition(levels)


class CparabSimplex:
    """A set of pairwise adjacent vertices, in canonical order.

    Vertices are sorted by (level, canonical key), so the index of a vertex
    is deterministic.  The canonical data, and with it the levels, is
    computed once per vertex set: one standardized family, built by
    canonical_positive_standardizer and then listed in that order.
    """

    def __init__(self, ctx: GarsideContext, vertices):
        vertices = list(vertices)
        if not all(v.gens for v in vertices):
            check_simplex_family(vertices)  # a vertex without generators has no key
        by_key = {}
        for v in vertices:
            by_key.setdefault(v.key(), v)
        self.ctx = ctx
        cache_key = ";".join(sorted(by_key))
        value = ctx.simplex_canonical.get(cache_key)
        if value is None:
            # the climb checks the family before the repeats are reported
            self.vertices = tuple(by_key.values())
            ghat, std = canonical_positive_standardizer(self)
            order = sorted(
                range(len(self.vertices)),
                key=lambda i: (std.levels.level_of(i), self.vertices[i].key()),
            )
            value = (tuple(self.vertices[i].key() for i in order), ghat, std.reordered(order))
            ctx.simplex_canonical[cache_key] = value
        if len(by_key) != len(vertices):
            raise NotASimplex("repeated vertices")
        keys, ghat, std = value
        self.vertices: tuple[ParabolicSubgroup, ...] = tuple(by_key[k] for k in keys)
        self._canonical: tuple[ArtinElement, StandardizedSimplex] = (ghat, std)
        self._key = ";".join(keys)

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    @property
    def levels(self) -> LevelDecomposition:
        return self._canonical[1].levels

    def key(self) -> str:
        return self._key

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CparabSimplex)
            and self.ctx is other.ctx
            and self.key() == other.key()
        )

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Simplex[{', '.join(map(repr, self.vertices))}]"

    def all_standard(self) -> bool:
        """Whether every vertex is a standard subgroup A_X, however its
        conjugator is written."""
        return all(v.canonical()[0].is_identity for v in self.vertices)

    def conjugated_by(self, x: ArtinElement) -> CparabSimplex:
        return CparabSimplex(self.ctx, [v.conjugated_by(x) for v in self.vertices])

    def canonical_data(self) -> tuple[ArtinElement, StandardizedSimplex]:
        """(canonical positive standardizer ghat, standardized simplex)."""
        return self._canonical

    def to_json(self) -> dict:
        return {"vertices": [v.to_json() for v in self.vertices]}

    @staticmethod
    def from_json(ctx: GarsideContext, data: dict) -> CparabSimplex:
        return CparabSimplex(ctx, parabolics_from_json(ctx, data["vertices"]))


@dataclass(frozen=True)
class StandardizedSimplex:
    """Subsets of a standard simplex with level data and maximality witnesses.

    subsets follow the owning simplex's vertex order.  For maximal simplices,
    missing is the generator t outside the union and t_map[i] the generator
    t_i of the per-vertex condition; both are None otherwise.
    """

    subsets: tuple[Subset, ...]
    levels: LevelDecomposition
    missing: int | None
    t_map: tuple[int | None, ...]

    @property
    def is_maximal(self) -> bool:
        return self.missing is not None

    def reordered(self, order) -> StandardizedSimplex:
        """The same family listed in the given index order: only the levels
        are read again, as the adjacency and maximality checks do not depend
        on the order."""
        subsets = tuple(self.subsets[i] for i in order)
        t_map = tuple(self.t_map[i] for i in order)
        return StandardizedSimplex(subsets, nesting_levels(subsets), self.missing, t_map)


def build_standardized(ctx: GarsideContext, subsets) -> StandardizedSimplex:
    """Level data and maximality witnesses for a family of standard subsets."""
    subsets = tuple(frozenset(s) for s in subsets)
    graph = ctx.graph
    if len(set(subsets)) != len(subsets):
        raise NotASimplex("repeated subsets")
    for x, y in itertools.combinations(subsets, 2):
        if not standard_adjacent(graph, x, y):
            raise NotASimplex(f"{sorted(x)} and {sorted(y)} are not adjacent")
    missing, t_map = _maximality_witnesses(graph, subsets)
    return StandardizedSimplex(subsets, nesting_levels(subsets), missing, t_map)


def _maximality_witnesses(graph, subsets) -> tuple[int | None, tuple[int | None, ...]]:
    everything = frozenset(graph.vertices)
    union = frozenset().union(*subsets) if subsets else frozenset()
    rest = everything - union
    if len(rest) != 1:
        return None, (None,) * len(subsets)
    t_map: list[int | None] = []
    for x in subsets:
        inside = frozenset().union(frozenset(), *[y for y in subsets if y < x])
        gap = x - inside
        if len(gap) != 1:
            return None, (None,) * len(subsets)
        t_map.append(next(iter(gap)))
    (t,) = rest
    return t, tuple(t_map)


def _maximal_families(graph, scope: Subset) -> list[tuple[Subset, ...]]:
    if not scope:
        return [()]
    out: list[tuple[Subset, ...]] = []
    for t in sorted(scope):
        comps = graph.components(scope - {t})
        per_comp = []
        for comp in comps:
            per_comp.append(
                [(comp,) + fam for fam in _maximal_families(graph, comp)]
            )
        for combo in itertools.product(*per_comp):
            out.append(tuple(itertools.chain.from_iterable(combo)))
    return out


def enumerate_maximal_standard(ctx: GarsideContext) -> list[CparabSimplex]:
    """All maximal simplices with standard vertices, by the characterization."""
    scope = frozenset(ctx.graph.vertices)
    simplices = []
    for family in filter(None, _maximal_families(ctx.graph, scope)):  # A1: only ()
        simplices.append(
            CparabSimplex(
                ctx, [ParabolicSubgroup.standard(ctx, x) for x in family]
            )
        )
    simplices.sort(key=CparabSimplex.key)
    return simplices


def canonical_positive_standardizer(
    simplex: CparabSimplex,
) -> tuple[ArtinElement, StandardizedSimplex]:
    """The minimal simultaneous standardizer of all vertices, with the
    standardized simplex."""
    ctx = simplex.ctx
    ghat, subsets = simultaneous_standardizer(ctx, list(simplex.vertices))
    return ghat, build_standardized(ctx, subsets)
