"""Maximal standard families are the maximal tubings of the Coxeter diagram,
and the flip of a marking is the flip of a tubing (Carr-Devadoss, Coxeter
complexes and graph-associahedra, 2006).  The tubings come from the
definition in tests/oracles.py.  On A_n the flip graph is the rotation graph
of binary trees with n+1 leaves, and the connectivity report's distances
between standard markings are distances in the flip graph of families."""

import pytest

from artinmark.garside import context
from artinmark.graph import all_standard_markings, standard_marking_connectivity
from artinmark.marking import is_flip_edge, standard_transversals
from artinmark.parabolic import ParabolicSubgroup
from artinmark.simplex import CparabSimplex, _maximal_families, transversal_subset
from oracles import maximal_tubings, rotation_graph

# the number of maximal tubings: Catalan numbers for the paths A_n and B_n
FAMILY_COUNTS = {
    "A2": 2, "A3": 5, "A4": 14, "A5": 42, "A6": 132,
    "B2": 2, "B3": 5, "B4": 14, "B5": 42, "B6": 132,
    "D4": 16, "D5": 51, "D6": 166,
    "E6": 176, "F4": 14, "H3": 5, "H4": 14, "I2(5)": 2,
}
RANK_AT_MOST_4 = ["A2", "A3", "A4", "B2", "B3", "B4", "D4", "F4", "H3", "H4", "I2(5)"]


def families(ctx):
    return _maximal_families(ctx.graph, frozenset(ctx.graph.vertices))


def family_edges(ctx):
    """(F, j, F') with F' the family F with X_j swapped for its transversal
    subset."""
    for family in families(ctx):
        for j in range(len(family)):
            swapped = family[:j] + (transversal_subset(ctx, family, j),) + family[j + 1:]
            yield family, j, swapped


@pytest.mark.parametrize("spec", sorted(FAMILY_COUNTS))
def test_maximal_families_are_the_maximal_tubings(spec):
    ctx = context(spec)
    found = families(ctx)
    as_sets = {frozenset(family) for family in found}
    assert len(as_sets) == len(found) == FAMILY_COUNTS[spec]
    assert all(len(family) == ctx.rank - 1 for family in found)
    assert as_sets == maximal_tubings(ctx.graph)


@pytest.mark.parametrize("spec", sorted(FAMILY_COUNTS))
def test_transversal_swap_is_the_tubing_flip(spec):
    # F - {X_j} lies in exactly two maximal tubings: F, and F with X_j
    # swapped for transversal_subset(F, j)
    ctx = context(spec)
    tubings = maximal_tubings(ctx.graph)
    for family, j, swapped in family_edges(ctx):
        rest = frozenset(family[:j] + family[j + 1:])
        completions = {t for t in tubings if rest <= t}
        assert completions == {frozenset(family), frozenset(swapped)}
        assert swapped[j] != family[j]


@pytest.mark.parametrize("spec", RANK_AT_MOST_4)
def test_family_edges_are_flip_edges(spec):
    ctx = context(spec)

    def marking(family):
        return standard_transversals(
            CparabSimplex(ctx, [ParabolicSubgroup.standard(ctx, x) for x in family])
        )

    edges = {
        frozenset((frozenset(family), frozenset(swapped))): (family, swapped)
        for family, _j, swapped in family_edges(ctx)
    }
    assert len(edges) * 2 == len(families(ctx)) * (ctx.rank - 1)
    for family, swapped in edges.values():
        a, b = marking(family), marking(swapped)
        assert is_flip_edge(a, b) and is_flip_edge(b, a)
        assert not is_flip_edge(a, a)


@pytest.mark.parametrize("n", range(2, 7))
def test_a_n_flip_graph_is_the_rotation_graph(n):
    # the generator interval [a, b] of A_n is the leaf interval {a, ..., b+1}
    # of a binary tree with n+1 leaves: tubes nested or apart are clades
    # nested or disjoint
    ctx = context(f"A{n}")

    def leaf_intervals(family):
        return frozenset(frozenset(range(min(x), max(x) + 2)) for x in family)

    nodes = {leaf_intervals(family) for family in families(ctx)}
    edges = {
        frozenset((leaf_intervals(a), leaf_intervals(b))) for a, _j, b in family_edges(ctx)
    }
    assert (nodes, edges) == rotation_graph(n + 1)


@pytest.mark.parametrize("spec", ["I2(5)", "A3", "B3", "H3", "A4", "D4"])
def test_connectivity_distances_are_family_distances(spec):
    # each standard marking is the standard transversal marking of one
    # family; its report distance to another is the distance of the two
    # families in the flip graph
    ctx = context(spec)
    report = standard_marking_connectivity(ctx)
    near = {frozenset(family): set() for family in families(ctx)}
    for family, _j, swapped in family_edges(ctx):
        near[frozenset(family)].add(frozenset(swapped))
    family_distances = {}
    for source in near:
        dist = {source: 0}
        queue = [source]
        while queue:
            nxt = []
            for a in queue:
                for b in near[a]:
                    if b not in dist:
                        dist[b] = dist[a] + 1
                        nxt.append(b)
            queue = nxt
        family_distances.update(((source, b), d) for b, d in dist.items())
    family_of = {
        m.key(): frozenset(p.gens for p, _q in m.pairs) for m in all_standard_markings(ctx)
    }
    assert len(report.distances) == len(near) ** 2
    assert report.distances == {
        (a, b): family_distances[family_of[a], family_of[b]] for a, b in report.distances
    }
