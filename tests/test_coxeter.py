import itertools
import random

import pytest

from artinmark import coxeter
from artinmark.coxeter import (
    ArtinType,
    RootSystem,
    build_defining_graph,
    longest_element,
    root_reflection_table,
)
from artinmark.errors import Disconnected, InvariantViolated, UnsupportedType
from artinmark.garside import GarsideContext, context, normalize

from oracles import (
    all_w,
    classify,
    descent_peel_gcd,
    descent_peel_reduced_word,
    float_positive_roots,
    float_reflection_tables,
    gcd_simples,
    left_descents,
    meet_slide_pair,
    right_complement,
    right_descents,
    ring_root_closure,
    root_perm,
    single_letter_peel,
    tuple_inverse,
    tuple_product,
)


def test_type_parsing_roundtrip():
    for spec in ["A1", "A5", "B3", "D4", "E8", "F4", "H4", "I2(7)"]:
        assert str(ArtinType.parse(spec)) == spec


@pytest.mark.parametrize(
    "bad",
    ["A0", "B1", "D3", "E9", "F5", "H5", "I2(2)", "C3", "foo", "A\u0663", "A\u00b2", "I2(\u0665)"],
)
def test_unsupported_types(bad):
    with pytest.raises(UnsupportedType) as err:
        ArtinType.parse(bad)
    assert bad in str(err.value)


@pytest.mark.parametrize("family,rank,label", [("A", 0, None), ("E", 9, None), ("I2", 2, None)])
def test_artin_type_checks_its_fields(family, rank, label):
    # built directly, not through parse, a type still rejects what is not a
    # finite type (I2 needs its label)
    with pytest.raises(UnsupportedType):
        ArtinType(family, rank, label)


def test_artin_types_are_immutable_and_compare_by_name():
    assert ArtinType("I2", 2, 5) == ArtinType.parse("I2(5)") != ArtinType("I2", 2, 7)
    assert ArtinType("H", 3) == ArtinType.parse("H3") != ArtinType("A", 3)
    assert hash(ArtinType("E", 8)) == hash(ArtinType.parse("E8"))
    # a type is hashed by its name, so none of its fields can be rebound
    with pytest.raises(AttributeError):
        ArtinType("A", 3).rank = 4


def test_a2_graph_is_braid_path():
    g = build_defining_graph("A2")
    assert g.label(0, 1) == 3


def test_b3_graph_labels():
    g = build_defining_graph("B3")
    assert g.label(0, 1) == 4
    assert g.label(1, 2) == 3
    assert g.label(0, 2) == 2


def test_i2_4_label():
    g = build_defining_graph("I2(4)")
    assert g.label(0, 1) == 4


@pytest.mark.parametrize(
    "spec,count",
    [
        ("A1", 2),
        ("A2", 6),
        ("A3", 12),
        ("A4", 20),
        ("B2", 8),
        ("B3", 18),
        ("D4", 24),
        ("E6", 72),
        ("E7", 126),
        ("E8", 240),
        ("F4", 48),
        ("H3", 30),
        ("H4", 120),
        ("I2(5)", 10),
        ("I2(6)", 12),
        ("I2(7)", 14),
        ("I2(8)", 16),
    ],
)
def test_root_counts(spec, count):
    assert len(root_reflection_table(spec).roots) == count


def test_a1_roots_are_plus_minus_alpha():
    rs = root_reflection_table("A1")
    assert len(rs.roots) == 2
    assert sorted(rs.is_positive_root) == [False, True]


def test_reflections_are_involutions():
    for spec in ["A3", "B3", "H3", "I2(7)"]:
        rs = root_reflection_table(spec)
        for g in rs.generators:
            assert g * g == rs.identity
            assert g.length == 1


# every supported type up to rank 8, and both tuple-kernel systems
ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "H3", "H4"]
    + [f"I2({m})" for m in range(3, 13)]
    + ["A16", "B12"]
)


@pytest.mark.parametrize("spec", ALL_TYPES)
def test_positive_roots_match_float_signs(spec):
    # every supported type up to rank 8, and both tuple-kernel systems: the
    # reflection closure of the simple roots gives the same flags as the
    # float sign of the first nonzero coordinate
    system = root_reflection_table(spec)
    assert system.is_positive_root == float_positive_roots(system)


@pytest.mark.parametrize(
    "spec", ["A3", "B4", "D5", "E6", "E7", "E8", "F4", "H3", "H4", "I2(7)", "A16", "B12"]
)
def test_generator_tables_match_float_reflections(spec):
    # the tables record each image index once, during the reflection
    # closure; the float reflection in the cosine form finds the same ones
    # (both encodings: byte tables, and int tuples past 256 roots)
    system = root_reflection_table(spec)
    count = len(system.roots)
    tables = [tuple(g.perm[:count]) for g in system.generators]
    assert tables == float_reflection_tables(system)


@pytest.mark.parametrize(
    "spec",
    ["A1", "A3", "B3", "D4", "E6", "E7", "E8", "F4", "H3", "H4",
     "I2(5)", "I2(7)", "I2(12)", "A16", "B12", "D12"],
)
def test_integer_closure_matches_the_ring_closure(spec):
    # the closure on flat integer vectors finds the roots in the order of
    # the closure on tuples of ring elements, so the root order and the
    # generator tables of either encoding are the ring closure's, and the
    # positive roots are those with a positive first nonzero coordinate
    system = root_reflection_table(spec)
    roots, tables = ring_root_closure(system.graph)
    assert system.roots == roots
    assert [tuple(g.perm[: len(roots)]) for g in system.generators] == tables
    positive = float_positive_roots(system)
    assert system.is_positive_root == positive
    assert system.positive_indices == tuple(r for r, p in enumerate(positive) if p)


@pytest.mark.parametrize("spec", ALL_TYPES)
def test_simple_roots_are_the_first_roots(spec):
    # descent keys read the images of roots 0..n-1 as those of the simple
    # roots; RootSystem raises InvariantViolated otherwise
    system = root_reflection_table(spec)
    n = system.graph.rank
    assert system.simple_index == tuple(range(n))
    for i in range(n):
        assert system.roots[i] == tuple(
            system.ring.one if j == i else system.ring.zero for j in range(n)
        )


def test_each_generator_negates_one_positive_root():
    rs = root_reflection_table("B3")
    for i, g in enumerate(rs.generators):
        flipped = [
            j
            for j in rs.positive_indices
            if not rs.is_positive_root[g.perm[j]]
        ]
        assert flipped == [rs.simple_index[i]]


@pytest.mark.parametrize(
    "spec,order",
    [
        ("A1", 2),
        ("A2", 6),
        ("A3", 24),
        ("A4", 120),
        ("B2", 8),
        ("B3", 48),
        ("D4", 192),
        ("H3", 120),
        ("I2(5)", 10),
        ("I2(6)", 12),
        ("I2(7)", 14),
        ("I2(8)", 16),
    ],
)
def test_group_orders_by_orbit_enumeration(spec, order):
    assert len(all_w(spec)) == order


@pytest.mark.parametrize("spec", ["A2", "A3", "B3", "I2(5)"])
def test_length_subadditive(spec):
    elements = all_w(spec)
    for a, b in itertools.product(elements, repeat=2):
        prod = a * b
        assert prod.length <= a.length + b.length
        assert (prod.length - a.length - b.length) % 2 == 0
        # a shared descent across the junction forces strict inequality
        if right_descents(a) & left_descents(b):
            assert prod.length < a.length + b.length
        # reduced products concatenate reduced words
        if prod.length == a.length + b.length:
            assert prod == a * b and len(a.reduced_word() + b.reduced_word()) == prod.length


def test_length_inverse_invariant():
    for w in all_w("B3"):
        assert w.length == w.inverse().length


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "I2(5)"])
def test_length_counts_the_inversions(spec):
    # the length is read off the inversion bits (RootSystem._inversions);
    # against the count of positive roots that w sends negative, over all W
    for w in all_w(spec):
        pos = w.system.is_positive_root
        assert w.length == sum(1 for i in w.system.positive_indices if not pos[w.perm[i]]), w


def test_descents_examples():
    rs = root_reflection_table("A2")
    s1, s2 = rs.generators
    assert left_descents(rs.identity) == frozenset()
    w0 = longest_element(rs, frozenset({0, 1}))
    assert left_descents(w0) == right_descents(w0) == frozenset({0, 1})
    w = s1 * s2
    assert left_descents(w) == frozenset({0})
    assert right_descents(w) == frozenset({1})


def test_longest_element_examples():
    rs = root_reflection_table("A2")
    w0 = longest_element(rs, frozenset({0, 1}))
    assert w0.length == 3
    assert w0 == rs.generators[0] * rs.generators[1] * rs.generators[0]
    rs3 = root_reflection_table("A3")
    w13 = longest_element(rs3, frozenset({0, 2}))
    assert w13.length == 2
    assert w13 == rs3.generators[0] * rs3.generators[2]
    assert longest_element(rs3, frozenset()) == rs3.identity
    # idempotent under repetition
    assert longest_element(rs3, frozenset({0, 2})) is w13


@pytest.mark.parametrize("spec", ["A4", "B4", "D4", "F4", "H3", "I2(6)"])
def test_longest_element_conjugation_permutes_subset(spec):
    rs = root_reflection_table(spec)
    n = rs.graph.rank
    for size in range(1, n + 1):
        for subset in map(frozenset, itertools.combinations(range(n), size)):
            w0x = longest_element(rs, subset)
            for s in subset:
                image = rs.generator_of(w0x * rs.generators[s] * w0x.inverse())
                assert image is not None and image in subset


def test_cox_support():
    rs = root_reflection_table("A3")
    assert rs.identity.support() == frozenset()
    w0 = longest_element(rs, frozenset({0, 1, 2}))
    assert w0.support() == frozenset({0, 1, 2})
    assert (rs.generators[0] * rs.generators[2]).support() == frozenset({0, 2})


def test_classify_induced_subgraphs():
    g = build_defining_graph("E8")
    assert str(classify(g, frozenset(range(6)))) == "E6"
    assert str(classify(g, frozenset(range(7)))) == "E7"
    assert str(classify(g, frozenset({0, 1, 2, 3, 4}))) == "D5"
    assert str(classify(g, frozenset({2, 3, 4, 5, 6, 7}))) == "A6"
    assert str(classify(g, frozenset({0, 1, 2, 4, 5, 6, 7}))) == "A7"
    b4 = build_defining_graph("B4")
    assert str(classify(b4, frozenset({0, 1}))) == "B2"
    assert str(classify(b4, frozenset({1, 2, 3}))) == "A3"
    f4 = build_defining_graph("F4")
    assert str(classify(f4, frozenset({0, 1, 2, 3}))) == "F4"
    assert str(classify(f4, frozenset({1, 2}))) == "B2"
    h4 = build_defining_graph("H4")
    assert str(classify(h4, frozenset({0, 1, 2}))) == "H3"
    with pytest.raises(Disconnected):
        classify(build_defining_graph("A3"), frozenset({0, 2}))


def test_components():
    g = build_defining_graph("E6")
    comps = g.components(frozenset({0, 1, 3}))
    assert sorted(map(sorted, comps)) == [[0, 1], [3]]
    assert g.components(frozenset()) == []


@pytest.mark.parametrize("spec", ["A3", "B3", "D4", "H3", "I2(5)", "E8"])
def test_products_and_inverses_match_tuple_kernel(spec):
    rs = root_reflection_table(spec)
    rng = random.Random(spec)
    elements = []
    for _ in range(12):
        w, perm = rs.identity, root_perm(rs.identity)
        for _ in range(rng.randrange(1, 30)):
            g = rng.choice(rs.generators)
            w, perm = w * g, tuple_product(perm, root_perm(g))
        assert root_perm(w) == perm
        elements.append(w)
    for a in elements:
        assert root_perm(a.inverse()) == tuple_inverse(root_perm(a))
        assert a.inverse().inverse() is a
        assert (a * a.inverse()).is_identity
        for b in elements:
            assert root_perm(a * b) == tuple_product(root_perm(a), root_perm(b))


@pytest.mark.parametrize("spec,roots,delta_len", [("A16", 272, 136), ("B12", 288, 144)])
def test_more_than_256_roots(spec, roots, delta_len):
    ctx = context(spec)
    assert len(ctx.system.roots) == roots
    assert ctx.delta_len == delta_len
    w0_word = " ".join(ctx.graph.name(i) for i in ctx.delta_w.reduced_word())
    assert normalize(ctx, w0_word) == ctx.delta
    g = normalize(ctx, "s1 s5^-1 s2 s9 s12^-1 s3 s3 s1^-1")
    assert (g * g.inverse()).is_identity


def test_wrong_root_count_raises_invariant_violated(monkeypatch):
    monkeypatch.setattr(coxeter, "_root_count", lambda family, rank, m: 7)
    with pytest.raises(InvariantViolated):
        RootSystem(build_defining_graph("A2"))


def test_closure_past_the_root_count_raises_invariant_violated(monkeypatch):
    # the generator tables are sized by the root count, so the closure
    # stops at the first root past it instead of writing outside them
    monkeypatch.setattr(coxeter, "_root_count", lambda family, rank, m: 5)
    with pytest.raises(InvariantViolated, match="more than 5 roots"):
        RootSystem(build_defining_graph("A2"))


def random_simple(system, rng, length):
    """A seeded simple of the given length, one ascent at a time."""
    w = system.identity
    while w.length < length:
        ascents = sorted(set(range(system.graph.rank)) - right_descents(w))
        w = w * system.generators[rng.choice(ascents)]
    return w


def random_simple_pairs(system, rng, count, length):
    """Seeded pairs of simples; every other pair shares a random prefix, so
    that long meets are peeled too."""
    pairs = []
    for k in range(count):
        head = random_simple(system, rng, length) if k % 2 else system.identity
        pairs.append(tuple(head * random_simple(system, rng, length) for _ in range(2)))
    return pairs


def fresh_context(spec):
    # an empty meet memo, so the peel runs once for each unordered pair
    return GarsideContext(build_defining_graph(spec), root_reflection_table(spec))


def assert_meets_match_oracles(ctx, pairs):
    """The block-strip meet against the single-letter peel on raw tables
    and the descent peel on interned elements."""
    for a, b in pairs:
        meet = gcd_simples(ctx, a, b)
        assert meet.perm == single_letter_peel(ctx.system, (a.perm, b.perm))[1]
        assert meet is descent_peel_gcd(ctx, a, b)


def assert_words_match_oracles(elements):
    for w in elements:
        assert w.reduced_word() == descent_peel_reduced_word(w)
        assert w.reduced_word() is w.reduced_word()  # kept on the interned element
        assert list(w.reduced_word()) == single_letter_peel(w.system, (w.perm,))[0]


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "A4", "D4", "I2(7)"])
def test_peel_matches_descent_peel_oracles_on_all_simples(spec):
    ctx = fresh_context(spec)
    elements = all_w(spec)
    assert_meets_match_oracles(ctx, itertools.product(elements, repeat=2))
    assert_words_match_oracles(elements)


@pytest.mark.parametrize(
    "spec,count,length",
    [
        ("E8", 2000, 24),
        ("H4", 600, 20),
        ("F4", 600, 8),
        ("A16", 150, 36),
        ("B12", 150, 36),
    ],
)
def test_peel_matches_descent_peel_oracles_on_random_simples(spec, count, length):
    # E8, H4 and F4 store byte tables; A16 (272 roots) and B12 (288) store
    # int tuples
    ctx = fresh_context(spec)
    rng = random.Random(spec)
    pairs = random_simple_pairs(ctx.system, rng, count, length)
    assert_meets_match_oracles(ctx, pairs)
    assert_words_match_oracles([x for pair in pairs[:100] for x in pair] + [ctx.delta_w])


def test_peel_matches_oracles_on_long_e8_meets():
    # normal forms meet the right complement of a factor with the next
    # factor; right complements of short simples are long, so these meets
    # strip many blocks
    ctx = fresh_context("E8")
    rng = random.Random("E8 complements")
    pairs = [
        tuple(
            right_complement(ctx, random_simple(ctx.system, rng, rng.randrange(1, 9)))
            for _ in range(2)
        )
        for _ in range(300)
    ]
    lengths = sorted(gcd_simples(ctx, a, b).length for a, b in pairs)
    assert lengths[len(lengths) // 2] >= 100  # the median meet has length 110
    assert_meets_match_oracles(ctx, pairs)


def assert_slides_match_meet_oracle(ctx, pairs):
    """The raw-table slide against the meet of the right complement, by
    identity of the interned outputs; a slid pair no longer slides."""
    for u, v in pairs:
        slid, expected = ctx._slide_pair(u, v), meet_slide_pair(ctx, u, v)
        if expected is None:
            assert slid is None
            continue
        assert slid[0] is expected[0] and slid[1] is expected[1]
        assert ctx._slide_pair(*slid) is None and meet_slide_pair(ctx, *slid) is None


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "I2(5)"])
def test_slide_matches_meet_oracle_on_all_pairs(spec):
    ctx = fresh_context(spec)
    assert_slides_match_meet_oracle(ctx, itertools.product(all_w(spec), repeat=2))


@pytest.mark.parametrize("spec,count,length", [("E8", 600, 24), ("A16", 60, 36), ("B12", 60, 36)])
def test_slide_matches_meet_oracle_on_random_pairs(spec, count, length):
    # each seeded pair (u, v) also as (u, Delta v^-1): a long second factor,
    # as a negative run gives one
    ctx = fresh_context(spec)
    rng = random.Random(f"{spec} slides")
    pairs = random_simple_pairs(ctx.system, rng, count, length)
    pairs += [(u, ctx.left_complement(v)) for u, v in pairs]
    assert_slides_match_meet_oracle(ctx, pairs)


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "D4", "I2(7)"])
def test_w0_of_is_the_longest_involution_and_interns_only_itself(spec):
    graph = build_defining_graph(spec)
    ctx = GarsideContext(graph, RootSystem(graph))
    n = graph.rank
    for size in range(n + 1):
        for subset in map(frozenset, itertools.combinations(range(n), size)):
            # W_X by the all_w oracle: the elements with support in X
            longest = max(
                w.length for w in all_w(spec) if set(descent_peel_reduced_word(w)) <= subset
            )
            before = set(ctx.system._elements)
            w0 = ctx.w0_of(subset)
            assert set(ctx.system._elements) - before == {w0.perm} - before
            assert (w0 * w0).is_identity
            assert w0.length == longest
            assert ctx.w0_of(subset) is w0
