import itertools
import random

import pytest

from artinmark.errors import (
    InvariantViolated,
    NotAStandardizer,
    NotIrreducible,
    NotProper,
    PreconditionViolated,
)
from artinmark.coxeter import RootSystem, build_defining_graph, root_reflection_table
from artinmark.garside import GarsideContext, context, normalize
from artinmark.parabolic import ParabolicSubgroup, standard_adjacent
from artinmark.simplex import (
    CparabSimplex,
    _maximal_families,
    build_standardized,
    canonical_positive_standardizer,
    enumerate_maximal_standard,
    transversal_subset,
)
from oracles import (
    AscendingProduct,
    NotAStabilizer,
    NotConjugate,
    _recipe_transversals,
    adjacent,
    containment_levels,
    extract_ascending_product,
    levelwise_canonical_standardizer,
    stabilizes_simplex,
    standardization_change,
)


def gens(ctx, *names):
    return frozenset(ctx.graph.index(n) for n in names)


def std(ctx, *names):
    return ParabolicSubgroup.standard(ctx, gens(ctx, *names))


def subsets_of(simplex):
    return sorted(sorted(v.gens) for v in simplex.vertices)


def test_adjacent_trichotomy_examples():
    a3 = context("A3")
    assert adjacent(std(a3, "s1"), std(a3, "s1", "s2"))  # inclusion
    assert adjacent(std(a3, "s1"), std(a3, "s3"))  # commuting
    assert not adjacent(std(a3, "s1"), std(a3, "s2", "s3"))
    with pytest.raises(NotIrreducible):
        adjacent(ParabolicSubgroup.standard(a3, gens(a3, "s1", "s3")), std(a3, "s2"))
    with pytest.raises(NotProper):
        adjacent(std(a3, "s1", "s2", "s3"), std(a3, "s1"))


@pytest.mark.parametrize("spec,word", [("B3", "s3^-1 s1 s2^-1 s3"), ("D4", "s4 s2^-1 s1 s3")])
def test_shared_conjugator_simplex_takes_only_standard_z(monkeypatch, spec, word):
    # a simplex conjugated by one element is standard in its first vertex's
    # frame, so its adjacency check compares subsets (standard_adjacent) and
    # takes no z-element at all, neither a z_X nor a z_P = conj z_X conj^-1
    graph = build_defining_graph(spec)
    ctx = GarsideContext(graph, RootSystem(graph))  # no simplex data cached yet
    g = normalize(ctx, word)
    simplices = enumerate_maximal_standard(ctx)
    seen = []
    z_element = ParabolicSubgroup.z_element

    def spy(self):
        seen.append(self.conj.is_identity)
        return z_element(self)

    monkeypatch.setattr(ParabolicSubgroup, "z_element", spy)
    for simplex in simplices:
        CparabSimplex(ctx, [v.conjugated_by(g) for v in simplex.vertices])
    assert simplices and seen == []


def test_standard_adjacent_matches_z_commutation():
    # every ordered pair of distinct connected proper subsets of six types
    for spec in ("A4", "B4", "D4", "F4", "H3", "I2(5)"):
        ctx = context(spec)
        z = {
            x: ParabolicSubgroup.standard(ctx, x).z_element()
            for x in ctx.connected_proper_subsets()
        }
        for x, y in itertools.permutations(z, 2):
            combinatorial = standard_adjacent(ctx.graph, x, y)
            assert combinatorial == z[x].commutes_with(z[y]), (spec, sorted(x), sorted(y))


def test_e6_example_levels_and_chains():
    e6 = context("E6")
    pi = CparabSimplex(
        e6,
        [std(e6, "s1"), std(e6, "s1", "s2"), std(e6, "s4"), std(e6, "s5", "s6"), std(e6, "s6")],
    )
    levels = pi.levels
    named = [
        sorted(sorted(pi.vertices[i].gens) for i in layer) for layer in levels.levels
    ]
    assert named == [[[0, 1], [3], [4, 5]], [[0], [5]]]
    keys, _levels, chains = containment_levels(pi.vertices)
    assert keys == tuple(v.key() for v in pi.vertices)
    chain_sets = sorted(
        [sorted(pi.vertices[i].gens) for i in chain] for chain in chains
    )
    # chains run from the largest subgroup down
    assert chain_sets == [[[0, 1], [0]], [[3]], [[4, 5], [5]]]
    data = build_standardized(e6, subsets_of(pi))
    assert data.is_maximal and data.missing == e6.graph.index("s3")
    witnesses = dict(zip(data.subsets, data.t_map))
    assert witnesses[gens(e6, "s1", "s2")] == e6.graph.index("s2")


def test_b_n_chain_levels():
    b4 = context("B4")
    chain = CparabSimplex(
        b4, [std(b4, "s1"), std(b4, "s1", "s2"), std(b4, "s1", "s2", "s3")]
    )
    named = [
        [sorted(chain.vertices[i].gens) for i in layer]
        for layer in chain.levels.levels
    ]
    assert named == [[[0, 1, 2]], [[0, 1]], [[0]]]
    data = build_standardized(b4, subsets_of(chain))
    assert data.is_maximal and data.missing == 3
    assert len(containment_levels(chain.vertices)[2]) == 1


@pytest.mark.parametrize("index", [-1, 3])
def test_level_of_an_index_outside_the_levels_is_rejected(index):
    b4 = context("B4")
    chain = CparabSimplex(
        b4, [std(b4, "s1"), std(b4, "s1", "s2"), std(b4, "s1", "s2", "s3")]
    )
    assert [chain.levels.level_of(i) for i in range(3)] == [1, 2, 3]
    with pytest.raises(PreconditionViolated, match="in no level"):
        chain.levels.level_of(index)


def test_singleton_not_maximal_in_a3():
    a3 = context("A3")
    singleton = CparabSimplex(a3, [std(a3, "s1")])
    data = build_standardized(a3, subsets_of(singleton))
    assert not data.is_maximal and data.missing is None
    assert len(singleton.levels.levels) == 1


def test_maximality_examples():
    a3 = context("A3")
    pair = CparabSimplex(a3, [std(a3, "s1"), std(a3, "s3")])
    data = build_standardized(a3, subsets_of(pair))
    assert data.is_maximal and data.missing == 1
    witnesses = dict(zip(data.subsets, data.t_map))
    assert witnesses[gens(a3, "s1")] == 0 and witnesses[gens(a3, "s3")] == 2


def brute_force_maximal_standard(ctx):
    """Independent enumeration: filter all pairwise-adjacent standard families
    for maximality by attempted extension."""
    n = ctx.rank
    connected = [
        frozenset(s)
        for size in range(1, n)
        for s in itertools.combinations(range(n), size)
        if ctx.graph.is_connected(frozenset(s))
    ]
    simplices = []
    for size in range(1, len(connected) + 1):
        for family in itertools.combinations(connected, size):
            if all(
                standard_adjacent(ctx.graph, x, y)
                for x, y in itertools.combinations(family, 2)
            ):
                simplices.append(frozenset(family))
    maximal = [
        fam
        for fam in simplices
        if not any(fam < other for other in simplices)
    ]
    return sorted(sorted(sorted(x) for x in fam) for fam in maximal)


@pytest.mark.parametrize("spec,count", [("A2", 2), ("A3", 5), ("I2(6)", 2), ("B3", 5)])
def test_enumerate_maximal_standard_matches_brute_force(spec, count):
    ctx = context(spec)
    enumerated = sorted(subsets_of(s) for s in enumerate_maximal_standard(ctx))
    assert enumerated == brute_force_maximal_standard(ctx)
    if spec in ("A2", "A3"):
        assert len(enumerated) == count
    for simplex in enumerate_maximal_standard(ctx):
        assert build_standardized(ctx, subsets_of(simplex)).is_maximal


def test_enumerated_maximal_simplices_have_few_maximal_elements():
    # at most 3 maximal elements, in distinct components of the graph minus
    # one vertex
    for spec in ["A4", "A5", "B4", "D4", "D5", "E6"]:
        ctx = context(spec)
        for simplex in enumerate_maximal_standard(ctx):
            top = simplex.levels.levels[0]
            assert len(top) <= 3
            union = frozenset().union(*(v.gens for v in simplex.vertices))
            (missing,) = frozenset(ctx.graph.vertices) - union
            comps = ctx.graph.components(frozenset(ctx.graph.vertices) - {missing})
            tops = [simplex.vertices[i].gens for i in top]
            homes = [next(c for c in comps if x <= c) for x in tops]
            assert len(set(homes)) == len(tops)


TRANSVERSAL_TYPES = (
    [f"A{n}" for n in range(2, 8)]
    + [f"B{n}" for n in range(2, 8)]
    + [f"D{n}" for n in range(4, 8)]
    + ["E6", "E7", "E8", "F4", "H3", "H4", "I2(5)", "I2(6)", "I2(8)"]
)


@pytest.mark.parametrize("spec", TRANSVERSAL_TYPES)
def test_transversal_subset_is_unique_and_matches_recipe(spec):
    # transversal_subset raises unless exactly one subset keeps the pattern;
    # the recipe builds it from the maximality gaps instead (E8: 2,094 families)
    ctx = context(spec)
    scope = frozenset(ctx.graph.vertices)
    families = _maximal_families(ctx.graph, scope)
    assert families
    for family in families:
        recipe = _recipe_transversals(ctx.graph, family, scope)
        for i, x in enumerate(family):
            assert transversal_subset(ctx, family, i) == recipe[x]


def test_transversal_subset_raises_off_a_maximal_family():
    # {s1} alone in A3: both {s2} and {s2,s3} keep the pattern
    a3 = context("A3")
    with pytest.raises(InvariantViolated):
        transversal_subset(a3, (gens(a3, "s1"),), 0)


def test_canonical_standardizer_all_standard_is_identity():
    e6 = context("E6")
    pi = CparabSimplex(
        e6,
        [std(e6, "s1"), std(e6, "s1", "s2"), std(e6, "s4"), std(e6, "s5", "s6"), std(e6, "s6")],
    )
    ghat, data = canonical_positive_standardizer(pi)
    assert ghat.is_identity
    assert set(data.subsets) == {v.gens for v in pi.vertices}


@pytest.mark.parametrize(
    "spec, word",
    [
        ("A3", "s2^-1 s1 s3^-1"),
        ("A4", "s1 s3^-1 s4 s2^-1"),
        # 13-atom canonical standardizers; hint-free search took seconds here
        ("B3", "s3^-1 s3^-1 s1 s2^-1"),
        ("D4", "s2 s1^-1 s4"),
        ("H3", "s1^-1 s3 s2"),
    ],
)
def test_canonical_standardizer_matches_levelwise_bfs(spec, word):
    ctx = context(spec)
    x = normalize(ctx, word)
    for simplex in enumerate_maximal_standard(ctx):
        moved = simplex.conjugated_by(x)
        want = levelwise_canonical_standardizer(moved, hint=x)
        assert canonical_positive_standardizer(moved) == want
        keys, levels, chains = containment_levels(
            [v.conjugated_by(x) for v in simplex.vertices]
        )
        assert tuple(v.key() for v in moved.vertices) == keys
        assert moved.levels.levels == levels
        # each chain descends one level per step, and the chains cover every vertex
        assert all(
            [moved.levels.level_of(i) for i in chain] == list(range(1, len(chain) + 1))
            for chain in chains
        )
        assert {i for chain in chains for i in chain} == set(range(len(moved)))


def test_canonical_standardizer_conjugated_simplex():
    a3 = context("A3")
    s2 = a3.atoms[1]
    simplex = CparabSimplex(
        a3,
        [
            ParabolicSubgroup(a3, s2, gens(a3, "s1")),
            ParabolicSubgroup(a3, s2, gens(a3, "s3")),
        ],
    )
    ghat, data = simplex.canonical_data()
    assert ghat == s2
    assert set(data.subsets) == {gens(a3, "s1"), gens(a3, "s3")}
    for vertex, subset in zip(simplex.vertices, data.subsets):
        assert vertex == ParabolicSubgroup(a3, ghat, subset)


def test_canonical_standardizer_b6_example():
    b6 = context("B6")
    d456 = b6.delta_of(gens(b6, "s4", "s5", "s6"))
    simplex = CparabSimplex(
        b6,
        [
            std(b6, "s1", "s2"),
            std(b6, "s4", "s5", "s6"),
            ParabolicSubgroup(b6, d456, gens(b6, "s4", "s5")),
        ],
    )
    ghat, data = simplex.canonical_data()
    assert ghat.is_identity
    assert set(data.subsets) == {
        gens(b6, "s1", "s2"),
        gens(b6, "s4", "s5", "s6"),
        gens(b6, "s5", "s6"),
    }
    # Delta_456 itself is also a simultaneous standardizer for the simplex
    moved = simplex.conjugated_by(d456.inverse())
    assert all(v.canonical()[0].is_identity for v in moved.vertices)


def test_simplex_conjugation_invariance():
    random.seed(12)
    for spec in ["A3", "B3"]:
        ctx = context(spec)
        simplices = enumerate_maximal_standard(ctx)
        for _ in range(10):
            simplex = random.choice(simplices)
            word = tuple(
                (random.randrange(ctx.rank), random.choice([1, -1]))
                for _ in range(random.randrange(0, 5))
            )
            x = ctx.from_word(word)
            moved = simplex.conjugated_by(x)
            assert len(moved) == len(simplex)
            assert moved.levels.levels == simplex.levels.levels
            ghat, data = moved.canonical_data()
            assert build_standardized(ctx, data.subsets).is_maximal


def test_standardization_change_examples():
    a3 = context("A3")
    r = standardization_change(
        a3, [gens(a3, "s1"), gens(a3, "s1", "s2")], [gens(a3, "s3"), gens(a3, "s2", "s3")]
    )
    assert r == a3.delta
    assert standardization_change(a3, [gens(a3, "s1")], [gens(a3, "s1")]).is_identity
    b6 = context("B6")
    r2 = standardization_change(
        b6,
        [gens(b6, "s1", "s2"), gens(b6, "s4", "s5", "s6"), gens(b6, "s5", "s6")],
        [gens(b6, "s1", "s2"), gens(b6, "s4", "s5", "s6"), gens(b6, "s4", "s5")],
    )
    assert r2 == b6.delta_of(gens(b6, "s4", "s5", "s6"))
    with pytest.raises(NotConjugate):
        standardization_change(a3, [gens(a3, "s1")], [gens(a3, "s2")])


def test_delta_conjugation_lemma_on_nested_standard_pairs():
    # whenever Delta_T carries A_X to A_Y (X inside T), it swaps Delta_X
    # and Delta_Y
    for spec in ["A3", "B3", "A4", "B4", "D4"]:
        ctx = context(spec)
        n = ctx.rank
        connected = [
            frozenset(s)
            for size in range(1, n + 1)
            for s in itertools.combinations(range(n), size)
            if ctx.graph.is_connected(frozenset(s))
        ]
        for t_set in connected:
            d_t = ctx.delta_of(t_set)
            for x in connected:
                if not x <= t_set:
                    continue
                image = d_t * ctx.delta_of(x) * d_t.inverse()
                if not image.is_positive:
                    continue
                y = image.support()
                assert image == ctx.delta_of(y)
                assert d_t * ctx.delta_of(y) * d_t.inverse() == ctx.delta_of(x)


def test_conjugation_implies_containment_lemma():
    # Delta_Z^i A_X Delta_Z^-i = A_Y with i != 0 forces X, Y inside Z when
    # z_X commutes with no nonzero power of Delta_Z
    for spec in ["A3", "B3"]:
        ctx = context(spec)
        n = ctx.rank
        connected = [
            frozenset(s)
            for size in range(1, n)
            for s in itertools.combinations(range(n), size)
            if ctx.graph.is_connected(frozenset(s))
        ]
        for z_set, x_set in itertools.product(connected, repeat=2):
            d_z = ctx.delta_of(z_set)
            z_x = ParabolicSubgroup.standard(ctx, x_set).z_element()
            if any(
                z_x.commutes_with(d_z**i) for i in range(-3, 4) if i != 0
            ):
                continue
            for i in range(-3, 4):
                if i == 0:
                    continue
                moved = ParabolicSubgroup(ctx, d_z**i, x_set)
                c, y_set = moved.canonical()
                if c.is_identity:
                    assert x_set <= z_set and y_set <= z_set, (
                        spec,
                        sorted(z_set),
                        sorted(x_set),
                        i,
                    )


def make_standard_pair_simplex(ctx):
    simplex = CparabSimplex(
        ctx,
        [
            ParabolicSubgroup.standard(ctx, gens(ctx, "s1")),
            ParabolicSubgroup.standard(ctx, gens(ctx, "s1", "s2")),
        ],
    )
    return simplex


def test_ascending_product_roundtrip_exhaustive_small():
    a3 = context("A3")
    simplex = make_standard_pair_simplex(a3)
    ghat, data = simplex.canonical_data()
    for exps in itertools.product(range(-2, 3), repeat=2):
        for gamma in (-2, -1, 0, 1, 2):
            product = AscendingProduct(data, exps, gamma)
            h = ghat * product.to_element(a3)
            recovered = extract_ascending_product(h, ghat, data)
            assert recovered.exponents == exps and recovered.gamma == gamma


def test_ascending_product_trivial_and_single_factor():
    a3 = context("A3")
    simplex = make_standard_pair_simplex(a3)
    ghat, data = simplex.canonical_data()
    assert extract_ascending_product(ghat, ghat, data).key() == ((0, 0), 0)
    j = data.subsets.index(gens(a3, "s1", "s2"))
    h = ghat * a3.delta_of(gens(a3, "s1", "s2")) ** 3
    got = extract_ascending_product(h, ghat, data)
    assert got.exponents[j] == 3 and got.gamma == 0


def test_extract_rejects_non_standardizers():
    a3 = context("A3")
    simplex = make_standard_pair_simplex(a3)
    ghat, data = simplex.canonical_data()
    with pytest.raises(NotAStandardizer):
        extract_ascending_product(ghat * a3.atoms[2], ghat, data)


def test_ascending_product_json():
    a3 = context("A3")
    simplex = make_standard_pair_simplex(a3)
    _ghat, data = simplex.canonical_data()
    product = AscendingProduct(data, (2, 1), 1)
    payload = product.to_json(a3)
    assert payload["gamma"] == 1
    assert payload["exponents"]["s1"] == 2 or payload["exponents"]["s1,s2"] == 2


def test_stabilizes_simplex_examples():
    a3 = context("A3")
    simplex = CparabSimplex(a3, [std(a3, "s1"), std(a3, "s3")])
    perm, product = stabilizes_simplex(a3.delta, simplex)
    assert perm == {0: 1, 1: 0}
    assert product.gamma == 1
    perm2, product2 = stabilizes_simplex(a3.delta**2, simplex)
    assert perm2 == {0: 0, 1: 1}
    assert product2.gamma == 2 and set(product2.exponents) == {0}
    d1 = a3.delta_of(gens(a3, "s1"))
    perm3, _product3 = stabilizes_simplex(d1, simplex)
    assert perm3 == {0: 0, 1: 1}
    with pytest.raises(NotAStabilizer):
        stabilizes_simplex(a3.atoms[1], simplex)


def test_stabilizer_decomposition_relates_standardizers():
    a3 = context("A3")
    simplex = make_standard_pair_simplex(a3)
    ghat, data = simplex.canonical_data()
    g = a3.delta_of(gens(a3, "s1", "s2")) ** 2 * a3.delta**2
    perm, product = stabilizes_simplex(g, simplex)
    assert g * ghat == ghat * product.to_element(a3)


def test_simplex_json_roundtrip():
    a3 = context("A3")
    simplex = CparabSimplex(
        a3,
        [
            ParabolicSubgroup(a3, a3.atoms[1], gens(a3, "s1")),
            ParabolicSubgroup(a3, a3.atoms[1], gens(a3, "s3")),
        ],
    )
    again = CparabSimplex.from_json(a3, simplex.to_json())
    assert again == simplex


def test_build_standardized_detects_non_simplices():
    a3 = context("A3")
    from artinmark.errors import NotASimplex

    with pytest.raises(NotASimplex):
        build_standardized(a3, [gens(a3, "s1"), gens(a3, "s2")])


def test_standardization_change_between_all_conjugate_families():
    # same-shape maximal standard families are carried onto each other by a
    # product of target Garside elements; different shapes are not conjugate
    for spec in ["A3", "B3"]:
        ctx = context(spec)
        families = [
            tuple(v.gens for v in s.vertices) for s in enumerate_maximal_standard(ctx)
        ]
        for first in families:
            for second in families:
                same_shape = sorted(map(len, first)) == sorted(map(len, second))
                if not same_shape:
                    with pytest.raises(NotConjugate):
                        standardization_change(ctx, list(first), list(second))
                    continue
                try:
                    r = standardization_change(ctx, list(first), list(second))
                except NotConjugate:
                    # same shape does not force conjugacy; cross-check with
                    # the Paris graph on each vertex subset
                    from artinmark.parabolic import standard_conjugate

                    assert not all(
                        any(standard_conjugate(ctx, x, y) for y in second)
                        for x in first
                    )
                    continue
                assert r.is_positive
                images = set()
                for x in first:
                    moved = ParabolicSubgroup(ctx, r, x)
                    c, y = moved.canonical()
                    assert c.is_identity
                    images.add(y)
                assert images == set(second)


def test_stabilizes_conjugated_simplex():
    a3 = context("A3")
    simplex = CparabSimplex(
        a3,
        [
            ParabolicSubgroup.standard(a3, frozenset({0})),
            ParabolicSubgroup.standard(a3, frozenset({2})),
        ],
    )
    x = a3.from_word(((1, 1), (0, -1)))
    moved = simplex.conjugated_by(x)
    # conjugates of stabilizers stabilize the conjugate simplex
    for g, expect_swap in [(a3.delta, True), (a3.delta**2, False)]:
        perm, product = stabilizes_simplex(x * g * x.inverse(), moved)
        swapped = any(perm[i] != i for i in perm)
        assert swapped == expect_swap
    with pytest.raises(NotAStabilizer):
        stabilizes_simplex(a3.atoms[0], moved)


def test_ascending_product_roundtrip_three_levels():
    # B4 chain simplex has three nesting levels
    b4 = context("B4")
    chain = CparabSimplex(
        b4,
        [
            ParabolicSubgroup.standard(b4, frozenset(range(k)))
            for k in (1, 2, 3)
        ],
    )
    ghat, data = chain.canonical_data()
    assert ghat.is_identity and data.is_maximal
    import random as rnd

    rnd.seed(4)
    for _ in range(25):
        exponents = tuple(rnd.randrange(-2, 3) for _ in data.subsets)
        gamma = rnd.randrange(-2, 3)
        product = AscendingProduct(data, exponents, gamma)
        h = ghat * product.to_element(b4)
        recovered = extract_ascending_product(h, ghat, data)
        assert recovered.exponents == exponents and recovered.gamma == gamma


def test_a_new_vertex_set_is_standardized_once(monkeypatch):
    # the family standardized by canonical_positive_standardizer is listed
    # in canonical order, not built a second time: one build per new vertex
    # set, equal to building it in that order
    import artinmark.simplex as simplex_module

    ctx = GarsideContext(build_defining_graph("A4"), root_reflection_table("A4"))
    x = normalize(ctx, "s2 s4^-1 s1")
    simplices = enumerate_maximal_standard(ctx)
    build = simplex_module.build_standardized
    calls = []

    def spy(ctx_, subsets):
        calls.append(subsets)
        return build(ctx_, subsets)

    monkeypatch.setattr(simplex_module, "build_standardized", spy)
    fresh = 0
    for simplex in simplices:
        vertices = [v.conjugated_by(x) for v in simplex.vertices]
        new = ";".join(sorted(v.key() for v in vertices)) not in ctx.simplex_canonical
        calls.clear()
        moved = CparabSimplex(ctx, vertices)
        assert len(calls) == new
        fresh += new
        ghat, std = moved.canonical_data()
        assert std == build(ctx, std.subsets)
        assert canonical_positive_standardizer(moved) == (ghat, std)
    assert fresh
