import collections
import itertools
import math
import random

import pytest

from artinmark import cli as cli_module
from artinmark import parabolic as parabolic_module
from artinmark.coxeter import build_defining_graph, root_reflection_table
from artinmark.errors import (
    Disconnected,
    EmptySubset,
    NotASimplex,
    NotIrreducible,
    NotProper,
    PreconditionViolated,
)
from artinmark.garside import ArtinElement, GarsideContext, context, member_of_standard, normalize
from artinmark.graph import standard_marking_connectivity
from artinmark.marking import standard_transversals, standardize_marking, validate_marking
from artinmark.parabolic import (
    ParabolicSubgroup,
    _descent_strips,
    _standard_target,
    central_generator_z,
    check_simplex_family,
    conjugacy_edge_count,
    delta_permutation,
    elementary_ribbon,
    minimal_standardizer,
    simultaneous_standardizer,
    standard_conjugate,
    z_exponent,
)
from artinmark.simplex import enumerate_maximal_standard
from oracles import (
    all_w,
    bfs_minimal_standardizer,
    bfs_simultaneous_standardizer,
    conjugacy_component,
    conjugating_standardize_marking,
    contains,
    is_prefix_of,
    membership_standard_target,
    pairwise_z_check,
    positive_elements,
    shortest_path,
    table_conjugacy_edges,
    table_z_exponent,
    trial_product_minimal_standardizer,
)


def gens(ctx, *names):
    return frozenset(ctx.graph.index(n) for n in names)


def std(ctx, *names):
    return ParabolicSubgroup.standard(ctx, gens(ctx, *names))


def test_garside_delta_examples():
    a2 = context("A2")
    assert a2.delta_of(gens(a2, "s1", "s2")) == normalize(a2, "s1 s2 s1")
    a3 = context("A3")
    assert a3.delta_of(gens(a3, "s1", "s3")) == normalize(a3, "s1 s3")
    b3 = context("B3")
    assert b3.delta_of(gens(b3, "s1", "s2")) == normalize(b3, "s1 s2 s1 s2")
    assert a3.delta_of(frozenset()) == a3.identity


def test_central_generator_z():
    a2 = context("A2")
    x = gens(a2, "s1", "s2")
    assert central_generator_z(a2, x) == a2.delta_of(x) ** 2
    i4 = context("I2(4)")
    assert central_generator_z(i4, gens(i4, "s1", "s2")) == i4.delta
    assert central_generator_z(a2, gens(a2, "s1")) == a2.atoms[0]
    with pytest.raises(EmptySubset):
        central_generator_z(a2, frozenset())
    # reducible: product of component z's
    a3 = context("A3")
    assert central_generator_z(a3, gens(a3, "s1", "s3")) == normalize(a3, "s1 s3")


def test_z_of_parabolic_representation_independent():
    a2 = context("A2")
    p = ParabolicSubgroup(a2, a2.atoms[0], gens(a2, "s2"))
    z = p.z_element()
    assert z == normalize(a2, "s1 s2 s1^-1")
    alternate = ParabolicSubgroup(a2, a2.atoms[0] * a2.delta**2, gens(a2, "s2"))
    assert alternate == p and alternate.z_element() == z
    # standard: z_X itself; whole group: Delta^2 for A2
    assert std(a2, "s2").z_element() == a2.atoms[1]
    assert std(a2, "s1", "s2").z_element() == a2.delta**2


def test_irreducible_components():
    a3 = context("A3")
    assert a3.graph.components(gens(a3, "s1", "s3")) == [
        gens(a3, "s1"),
        gens(a3, "s3"),
    ]
    e6 = context("E6")
    comps = e6.graph.components(gens(e6, "s1", "s2", "s4"))
    assert sorted(map(sorted, comps)) == [[0, 1], [3]]
    assert a3.graph.components(gens(a3, "s1", "s2")) == [
        gens(a3, "s1", "s2")
    ]


def test_minimal_standardizer_examples():
    a2 = context("A2")
    p = ParabolicSubgroup(a2, a2.atoms[0], gens(a2, "s2"))
    c, target = minimal_standardizer(p)
    assert c == a2.atoms[0] and target == gens(a2, "s2")
    # Delta <s1> Delta^-1 is <s2> standard, trivial standardizer
    q = ParabolicSubgroup(a2, a2.delta, gens(a2, "s1"))
    c, target = q.canonical()
    assert c.is_identity and target == gens(a2, "s2")
    assert q == std(a2, "s2")
    # already standard
    assert std(a2, "s1").canonical() == (a2.identity, gens(a2, "s1"))
    with pytest.raises(EmptySubset):
        minimal_standardizer(std(a2))


def test_canonical_form_ignores_a_central_delta_power():
    # the descent starts below the central Delta^2 powers of the conjugator,
    # so a huge one costs nothing and changes nothing
    a3 = context("A3")
    x = ParabolicSubgroup(a3, normalize(a3, "s2 s1"), gens(a3, "s3"))
    far = ParabolicSubgroup(a3, a3.delta ** (2 * 10**6) * x.conj, x.gens)
    assert far.canonical() == x.canonical()
    assert far.key() == x.key()


def test_minimal_standardizer_is_prefix_of_bounded_search_hits():
    # every positive standardizer found by independent search has the
    # minimal one as a prefix
    a3 = context("A3")
    p = ParabolicSubgroup(a3, normalize(a3, "s2 s1"), gens(a3, "s3"))
    c, _target = p.canonical()
    z_p = p.z_element()
    found = []
    for g in positive_elements(a3, 4):
        w = g.inverse() * z_p * g
        if not w.is_positive:
            continue
        y = w.support()
        if p.conjugated_by(g.inverse()) == ParabolicSubgroup.standard(a3, y):
            found.append(g)
    assert found
    for g in found:
        assert is_prefix_of(c, g)


def test_minimal_standardizer_inside_parabolic_has_bounded_support():
    # P <= A_X forces the standardizer inside A_X
    a3 = context("A3")
    x12 = gens(a3, "s1", "s2")
    inner = a3.atoms[0] * a3.atoms[1]  # s1 s2 in A_{12}
    p = ParabolicSubgroup(a3, inner, gens(a3, "s1"))
    c, _target = p.canonical()
    if not c.is_identity:
        assert c.support() <= x12


def test_parabolic_equality_is_equivalence_on_reconjugations():
    random.seed(9)
    a3 = context("A3")
    base = std(a3, "s2")
    variants = []
    for _ in range(8):
        word = tuple((random.randrange(3), random.choice([1, -1])) for _ in range(3))
        x = a3.from_word(word)
        z = base.z_element()
        # conjugating by elements of the subgroup or its centralizer-ish powers
        variants.append(
            ParabolicSubgroup(a3, x * a3.delta**2, gens(a3, "s2")).conjugated_by(
                x.inverse()
            )
        )
    for v in variants:
        assert v == base and hash(v) == hash(base)
        assert v.z_element() == base.z_element()


def test_parabolic_contains():
    a3 = context("A3")
    assert contains(std(a3, "s1", "s2"), std(a3, "s1"))
    assert not contains(std(a3, "s1"), std(a3, "s1", "s2"))
    x = normalize(a3, "s2 s3")
    big = ParabolicSubgroup(a3, x, gens(a3, "s1", "s2"))
    small = ParabolicSubgroup(a3, x, gens(a3, "s2"))
    assert contains(big, small)


def test_delta_permutation_family_tables():
    # A_n reversal
    for spec in ["A2", "A3", "A4", "A5"]:
        ctx = context(spec)
        n = ctx.rank
        table = delta_permutation(ctx, frozenset(range(n)))
        assert table == {i: n - 1 - i for i in range(n)}
    # central types: identity permutation
    for spec in ["B3", "B4", "D4", "F4", "H3", "H4", "I2(4)", "I2(6)", "E7"]:
        ctx = context(spec)
        n = ctx.rank
        table = delta_permutation(ctx, frozenset(range(n)))
        assert table == {i: i for i in range(n)}, spec
    # D_n odd: swap the prong tips
    for spec in ["D5", "D7"]:
        ctx = context(spec)
        n = ctx.rank
        table = delta_permutation(ctx, frozenset(range(n)))
        expect = {i: i for i in range(n - 2)}
        expect[n - 2] = n - 1
        expect[n - 1] = n - 2
        assert table == expect, spec
    # E6: fix the prong, reverse the A5 chain
    e6 = context("E6")
    assert delta_permutation(e6, frozenset(range(6))) == {
        0: 5, 1: 4, 2: 2, 3: 3, 4: 1, 5: 0,
    }
    # I2 odd: swap
    for spec in ["I2(5)", "I2(7)"]:
        ctx = context(spec)
        assert delta_permutation(ctx, frozenset({0, 1})) == {0: 1, 1: 0}


def test_delta_permutation_is_involution_on_subsets():
    for spec in ["A4", "B4", "D4", "E6"]:
        ctx = context(spec)
        n = ctx.rank
        for size in range(1, n + 1):
            for subset in map(frozenset, itertools.combinations(range(n), size)):
                if not ctx.graph.is_connected(subset):
                    continue
                table = delta_permutation(ctx, subset)
                assert all(table[table[s]] == s for s in subset)


def test_delta_permutation_requires_connected():
    a3 = context("A3")
    with pytest.raises(Disconnected):
        delta_permutation(a3, gens(a3, "s1", "s3"))


def test_delta_permutation_is_read_only():
    a3 = context("A3")
    table = delta_permutation(a3, frozenset({0, 1, 2}))
    with pytest.raises(TypeError):
        table[0] = 0
    assert table == {0: 2, 1: 1, 2: 0}


CENTRE_SPECS = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "H3", "H4"]
    + [f"I2({m})" for m in range(3, 13)]
)


def test_z_exponent_matches_type_table():
    # Delta_X is central exactly when its involution is trivial; the type
    # table of centres (Brieskorn-Saito) is the oracle on every connected subset
    checked = 0
    for spec in CENTRE_SPECS:
        ctx = context(spec)
        n = ctx.rank
        for mask in range(1, 1 << n):
            subset = frozenset(i for i in range(n) if mask >> i & 1)
            if ctx.graph.is_connected(subset):
                assert z_exponent(ctx, subset) == table_z_exponent(ctx.graph, subset), (spec, subset)
                checked += 1
    assert checked == 523


@pytest.mark.parametrize("kind", [set, tuple, list])
def test_z_exponent_and_involution_take_any_iterable(kind):
    # both read one memo, keyed by the frozenset whatever the input type
    fresh = GarsideContext(build_defining_graph("A3"), root_reflection_table("A3"))
    for subset in [frozenset({0, 1}), frozenset({1}), frozenset({0, 1, 2})]:
        given = kind(sorted(subset))
        assert z_exponent(fresh, given) == z_exponent(context("A3"), subset)
        assert delta_permutation(fresh, given) == delta_permutation(context("A3"), subset)
    assert fresh.delta_involutions
    assert all(type(key) is frozenset for key in fresh.delta_involutions)


def test_conjugacy_graph_edges_match_type_table():
    # the edge count by connected component against the edges of the type
    # table's graph on all 2^n subsets
    for spec in CENTRE_SPECS + ["A12"]:
        ctx = context(spec)
        assert conjugacy_edge_count(ctx) == len(table_conjugacy_edges(ctx)), spec


def test_conjugacy_graph_e8_example():
    e8 = context("E8")
    x = gens(e8, "s1", "s2", "s3", "s4")
    y = gens(e8, "s5", "s6", "s7", "s8")
    assert standard_conjugate(e8, x, y)
    graph = table_conjugacy_edges(e8)
    component = conjugacy_component(graph, x)
    e6_image = gens(e8, "s3", "s4", "s5", "s6")
    d5_image = gens(e8, "s1", "s2", "s3", "s5")
    assert e6_image in component and d5_image in component
    via_e6 = shortest_path(graph, x, y, via=e6_image)
    via_d5 = shortest_path(graph, x, y, via=d5_image)
    assert via_e6 and via_d5 and via_e6 != via_d5


def test_conjugacy_size_mismatch_false():
    e8 = context("E8")
    assert not standard_conjugate(
        e8, gens(e8, "s1", "s2", "s3", "s4"), gens(e8, "s5", "s6", "s7")
    )


def test_conjugacy_components_have_constant_size():
    b4 = context("B4")
    graph = table_conjugacy_edges(b4)
    n = b4.rank
    for mask in range(1 << n):
        subset = frozenset(i for i in range(n) if mask >> i & 1)
        for other in conjugacy_component(graph, subset):
            assert len(other) == len(subset)


def conjugacy_disagreements(spec):
    """The same-size subset pairs (X, X') on which standard_conjugate differs
    from the oracle, X' in the component of X in the Paris graph, and the
    number of pairs compared (ordered, X = X' included)."""
    ctx = context(spec)
    graph = table_conjugacy_edges(ctx)
    n = ctx.rank
    subsets = [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
    component = {}
    for x in subsets:
        if x not in component:
            found = conjugacy_component(graph, x)
            component.update(dict.fromkeys(found, found))
    pairs = [(x, y) for x in subsets for y in subsets if len(x) == len(y)]
    wrong = [(x, y) for x, y in pairs if standard_conjugate(ctx, x, y) != (y in component[x])]
    return wrong, len(pairs)


@pytest.mark.parametrize(
    "spec", ["A3", "B3", "B4", "D4", "F4", "H3", "H4", "I2(5)", "A5", "E6"]
)
def test_standard_conjugate_matches_graph_component(spec):
    wrong, pairs = conjugacy_disagreements(spec)
    n = context(spec).rank
    assert pairs == sum(math.comb(n, k) ** 2 for k in range(n + 1))
    assert wrong == []


def test_standard_conjugate_never_builds_the_graph(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(parabolic_module, "conjugacy_edge_count", calls.append)
    monkeypatch.setattr(cli_module, "conjugacy_edge_count", calls.append)
    argv = ["--type", "E8", "conj-graph", "--query", "s1,s2,s3,s4", "s5,s6,s7,s8"]
    assert cli_module.run_command(argv) == 0
    assert capsys.readouterr().out == "true\n"
    a16 = context("A16")
    first = gens(a16, "s1", "s2", "s3", "s4", "s5")
    last = gens(a16, "s12", "s13", "s14", "s15", "s16")
    assert standard_conjugate(a16, first, last)
    assert calls == []


def test_a_n_connected_equal_size_conjugate():
    a4 = context("A4")
    assert standard_conjugate(a4, gens(a4, "s1", "s2"), gens(a4, "s3", "s4"))
    assert standard_conjugate(a4, gens(a4, "s1"), gens(a4, "s4"))
    a5 = context("A5")
    assert standard_conjugate(
        a5, gens(a5, "s1", "s2", "s3"), gens(a5, "s3", "s4", "s5")
    )


def test_conjugacy_graph_edges_satisfy_theorem_conditions():
    b3 = context("B3")
    graph = table_conjugacy_edges(b3)
    for y, t, t2 in graph:
        assert t in y and t2 in y and t != t2
        comp = next(c for c in b3.graph.components(y) if t in c)
        assert t2 in comp
        assert z_exponent(b3, comp) == 2
        table = delta_permutation(b3, comp)
        assert table[t] == t2


def test_simultaneous_standardizer():
    a3 = context("A3")
    s2 = a3.atoms[1]
    collection = [
        ParabolicSubgroup(a3, s2, gens(a3, "s1")),
        ParabolicSubgroup(a3, s2, gens(a3, "s3")),
    ]
    c, targets = simultaneous_standardizer(a3, collection)
    assert c == s2
    assert targets == [gens(a3, "s1"), gens(a3, "s3")]


@pytest.mark.parametrize("spec", ["A3", "A4", "B3", "D4", "H3"])
def test_minimal_standardizer_matches_prefix_bfs(spec):
    ctx = context(spec)
    rng = random.Random(spec)
    subsets = list(ctx.connected_proper_subsets()) + [frozenset({0, 2})]
    for _ in range(12):
        word = tuple(
            (rng.randrange(ctx.rank), rng.choice((1, -1)))
            for _ in range(rng.randrange(5))
        )
        p = ParabolicSubgroup(ctx, ctx.from_word(word), rng.choice(subsets))
        assert minimal_standardizer(p) == bfs_minimal_standardizer(p), word


@pytest.mark.parametrize("spec", ["A3", "B3", "D4", "H3", "I2(5)", "F4"])
def test_z_standard_target_matches_membership_oracle(spec):
    # P = c A_Y c^-1 with Y any nonempty subset, reducible ones included;
    # candidates are true standardizers c y Delta^k with y in A_Y, and near
    # misses: one more atom or atom inverse on the right, or c times a short
    # signed word
    ctx = context(spec)
    rng = random.Random(spec)
    subsets = [
        frozenset(i for i in range(ctx.rank) if mask >> i & 1)
        for mask in range(1, 1 << ctx.rank)
    ]
    hits = misses = 0
    for _ in range(150):
        y = rng.choice(subsets)
        c = signed_element(rng, ctx, rng.randint(0, 4))
        p = ParabolicSubgroup(ctx, c, y)
        z_p = p.z_element()
        word = tuple((rng.choice(sorted(y)), rng.choice((1, -1))) for _ in range(3))
        true = c * ctx.from_word(word) * ctx.delta ** rng.randint(-2, 2)
        atom = ctx.atoms[rng.randrange(ctx.rank)]
        for cand in (
            true,
            true * (atom if rng.randrange(2) else atom.inverse()),
            c * signed_element(rng, ctx, rng.randint(1, 2)),
        ):
            target = _standard_target(ctx, cand, z_p)
            assert target == membership_standard_target(ctx, cand, z_p, c, y), (y, cand)
            if cand is true:
                assert target is not None
            hits += target is not None
            misses += target is None
    assert hits >= 150 and misses >= 60


def test_simultaneous_standardizer_matches_seeded_bfs():
    # conjugates of a standard family: the conjugator seeds the oracle
    d4 = context("D4")
    family = [std(d4, "s1"), std(d4, "s3"), std(d4, "s1", "s2", "s3")]
    rng = random.Random(4)
    for _ in range(4):
        word = tuple((rng.randrange(4), rng.choice((1, -1))) for _ in range(3))
        x = d4.from_word(word)
        moved = [p.conjugated_by(x) for p in family]
        assert simultaneous_standardizer(d4, moved) == bfs_simultaneous_standardizer(
            d4, moved, seed=x
        ), word


def test_simultaneous_standardizer_rejects_non_simplices():
    a3 = context("A3")
    with pytest.raises(NotASimplex):
        simultaneous_standardizer(a3, [std(a3, "s1"), std(a3, "s2")])
    x = normalize(a3, "s2^-1 s3")
    with pytest.raises(NotASimplex):
        simultaneous_standardizer(
            a3, [std(a3, "s1").conjugated_by(x), std(a3, "s2").conjugated_by(x)]
        )


def simplex_check_outcome(check, family):
    try:
        check(family)
    except (NotASimplex, NotIrreducible, NotProper) as error:
        return type(error), str(error)
    return None


def signed_element(rng, ctx, length):
    return ctx.from_word(
        tuple((rng.randrange(ctx.rank), rng.choice((1, -1))) for _ in range(length))
    )


def second_representative(rng, ctx, p):
    """p written as conj * Delta^2 or conj * s_x with x in its subset."""
    tail = ctx.delta**2 if rng.randrange(2) else ctx.atoms[rng.choice(sorted(p.gens))]
    return ParabolicSubgroup(ctx, p.conj * tail, p.gens)


def mixed_conjugator_family(rng, ctx, vertices, g):
    """2-4 of the vertices plus, half the time, one more irreducible proper
    standard subgroup, each conjugated by g, by g times a word in letters that
    normalize its subset (the same subgroup, another conjugator), or by g
    times a random signed word (most often no longer adjacent)."""
    pool = list(vertices)
    if rng.randrange(2):
        pool.append(ParabolicSubgroup.standard(ctx, rng.choice(ctx.connected_proper_subsets())))
    family = []
    for v in rng.sample(pool, rng.randint(2, min(4, len(pool)))):
        kind = rng.randrange(3)
        if kind == 0:
            h = ctx.identity
        elif kind == 1:
            letters = [
                t for t in range(ctx.rank)
                if t in v.gens or not any(ctx.graph.adjacent(t, x) for x in v.gens)
            ]
            word = tuple((rng.choice(letters), rng.choice((1, -1))) for _ in range(3))
            h = ctx.from_word(word)
        else:
            h = signed_element(rng, ctx, rng.randint(1, 3))
        family.append(ParabolicSubgroup(ctx, g * h, v.gens))
    return family


def test_framed_simplex_check_matches_pairwise_z_oracle():
    # the check conjugates a family into its first vertex's frame; the oracle
    # multiplies the z's of the given representatives: same verdict, same
    # exception type and message
    rng = random.Random(19)
    shared, rewritten, mixed = [], [], []
    for spec in ["A3", "B3", "H3", "D4"]:
        ctx = context(spec)
        for simplex in enumerate_maximal_standard(ctx):
            vertices = list(simplex.vertices)
            for _ in range(2):
                g = signed_element(rng, ctx, rng.randint(1, 4))
                family = [v.conjugated_by(g) for v in vertices]
                shared.append(family)
                rewritten.append([second_representative(rng, ctx, v) for v in family])
                mixed += [mixed_conjugator_family(rng, ctx, vertices, g) for _ in range(2)]
    a3 = context("A3")
    x = normalize(a3, "s2^-1 s3")
    non_simplices = [
        [std(a3, "s1"), std(a3, "s2")],
        [std(a3, "s1").conjugated_by(x), std(a3, "s2").conjugated_by(x)],
    ]
    bad_vertices = [
        [std(a3, "s1").conjugated_by(x), std(a3, "s1", "s3")],
        [std(a3, "s2"), std(a3, "s1", "s2", "s3").conjugated_by(x)],
    ]
    outcomes = {}
    for name, families in [
        ("shared", shared), ("rewritten", rewritten), ("mixed", mixed),
        ("non_simplices", non_simplices), ("bad_vertices", bad_vertices),
    ]:
        outcomes[name] = [simplex_check_outcome(pairwise_z_check, f) for f in families]
        assert outcomes[name] == [
            simplex_check_outcome(check_simplex_family, f) for f in families
        ], name
    assert outcomes["shared"] == outcomes["rewritten"] == [None] * len(shared)
    rejected = sum(o is not None for o in outcomes["mixed"])
    assert len(mixed) // 4 <= rejected <= len(mixed) - len(mixed) // 4
    assert all(o[0] is NotASimplex for o in outcomes["non_simplices"])
    assert [o[0] for o in outcomes["bad_vertices"]] == [NotIrreducible, NotProper]


def test_parabolic_json_roundtrip():
    a3 = context("A3")
    p = ParabolicSubgroup(a3, normalize(a3, "s2 s1^-1"), gens(a3, "s3"))
    assert ParabolicSubgroup.from_json(a3, p.to_json()) == p


def test_parabolics_interned_per_representative():
    a3 = context("A3")
    c = normalize(a3, "s2 s1^-1")
    x = gens(a3, "s3")
    assert ParabolicSubgroup(a3, c, x) is ParabolicSubgroup(a3, c, x)
    p = std(a3, "s1")
    assert p.conjugated_by(c) is p.conjugated_by(c)
    assert a3.parabolics[c, x] is ParabolicSubgroup(a3, c, x)


def test_interning_keeps_equality_by_canonical_form():
    # s1 A_{s1} s1^-1 = A_{s1}: one subgroup, two representatives
    a3 = context("A3")
    p = std(a3, "s1")
    q = ParabolicSubgroup(a3, a3.atoms[0], gens(a3, "s1"))
    assert p == q and hash(p) == hash(q)
    assert p is not q


def test_minimal_standardizer_runs_once_per_representative(monkeypatch):
    fresh = GarsideContext(build_defining_graph("A3"), root_reflection_table("A3"))
    calls = collections.Counter()

    def spy(p):
        calls[p.conj, p.gens] += 1
        return minimal_standardizer(p)

    monkeypatch.setattr(parabolic_module, "minimal_standardizer", spy)
    standard_marking_connectivity(fresh)
    assert calls and max(calls.values()) == 1
    assert set(calls) == set(fresh.parabolics)


def test_descent_strips_built_once_per_target_in_descent_order():
    # after A4 std-connectivity the memo holds at most one entry per subset
    # of the vertices, each the strips in the order the descent tries them:
    # atom inverses of the target ascending, then d_{Y,t}^-1 for t ascending,
    # each with its target after and the inversions of its simple d
    fresh = GarsideContext(build_defining_graph("A4"), root_reflection_table("A4"))
    standard_marking_connectivity(fresh)
    inversions = fresh.system._inversions
    memo = fresh.standardizer_strips
    assert memo and len(memo) <= 2**fresh.rank
    for target, strips in memo.items():
        inline = [
            (fresh.atoms[s].inverse(), target, inversions(fresh.atoms[s].body[0].perm))
            for s in sorted(target)
        ]
        for t in range(fresh.rank):
            if t not in target:
                d = elementary_ribbon(fresh, target, t)
                inline.append((d.element.inverse(), d.target, inversions(d.element.body[0].perm)))
        assert list(strips) == inline, sorted(target)


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "I2(5)"])
def test_right_divisors_are_read_off_the_right_head(spec):
    # for positive c and simple d, c d^-1 is positive exactly when the
    # inversions of d lie in those of the right head rho(c); Delta c stands
    # for a descent start Delta^(2N) conj of infimum 1, whose head is Delta
    ctx = context(spec)
    inversions = ctx.system._inversions
    simples = [(d, ctx.element(0, (d,)).inverse()) for d in all_w(spec)[1:]]
    for c in positive_elements(ctx, 5):
        for start in (c, ctx.delta * c):
            head = inversions(start.right_head().perm)
            for d, d_inv in simples:
                divides = not inversions(d.perm) & ~head
                assert (start * d_inv).is_positive == divides, (start, d)
    assert ctx.delta.right_head() is ctx.delta_w
    assert ctx.identity.right_head() is ctx.system.identity
    # the descent reads the inversions of each strip's simple off its record
    for mask in range(1, 1 << ctx.rank):
        target = frozenset(i for i in range(ctx.rank) if mask >> i & 1)
        simples = [ctx.atoms[s].body[0] for s in sorted(target)] + [
            elementary_ribbon(ctx, target, t).element.body[0]
            for t in range(ctx.rank)
            if t not in target
        ]
        bits = tuple(bits for _d_inv, _image, bits in _descent_strips(ctx, target))
        assert bits == tuple(inversions(d.perm) for d in simples)


@pytest.mark.parametrize("spec", ["A4", "B3", "D4"])
def test_descent_matches_trial_products_on_conjugated_markings(spec):
    # every parabolic reached on a fresh context by min-std on each base
    # vertex, canon-std, validate-marking and standardize-marking of the
    # standard-transversal markings of every maximal simplex, conjugated by
    # Delta^-2k times a positive word of length 7 (k = 0, 1), and by the
    # conjugating standardization oracle, whose conjugated pairs
    # standardize-marking no longer builds
    ctx = GarsideContext(build_defining_graph(spec), root_reflection_table(spec))
    rng = random.Random(spec)
    for simplex in enumerate_maximal_standard(ctx):
        for k in (0, 1):
            word = tuple((rng.randrange(ctx.rank), 1) for _ in range(7))
            marking = standard_transversals(simplex).conjugated_by(
                ctx.delta ** (-2 * k) * ctx.from_word(word)
            )
            for p, _ in marking.pairs:
                p.canonical()
            marking.base_simplex().canonical_data()
            validate_marking(marking)
            standardize_marking(marking)
            conjugating_standardize_marking(marking)
    reached = [p for p in ctx.parabolics.values() if p.gens]
    assert len(reached) >= 60
    for p in reached:
        assert minimal_standardizer(p) == trial_product_minimal_standardizer(p), p


def test_descent_builds_one_product_per_strip_taken(monkeypatch):
    # each step computes the right head once; the start Delta^(2N) conj is
    # one product and every strip taken one more: a strip that does not
    # right-divide c is ruled out in W
    ctx = GarsideContext(build_defining_graph("A4"), root_reflection_table("A4"))
    rng = random.Random(7)
    subsets = ctx.connected_proper_subsets()
    parabolics = [
        ParabolicSubgroup(ctx, signed_element(rng, ctx, 8), rng.choice(subsets))
        for _ in range(40)
    ]
    counts = collections.Counter()
    real_mul, real_head = ArtinElement.__mul__, ArtinElement.right_head

    def mul(a, b):
        counts["products"] += 1
        return real_mul(a, b)

    def head(c):
        counts["steps"] += 1
        return real_head(c)

    monkeypatch.setattr(ArtinElement, "__mul__", mul)
    monkeypatch.setattr(ArtinElement, "right_head", head)
    taken = 0
    for p in parabolics:
        counts.clear()
        minimal_standardizer(p)
        assert counts["products"] == 1 + (counts["steps"] - 1), p
        taken += counts["steps"] - 1
    assert taken >= 100


@pytest.mark.parametrize(
    "x,x2", [({9}, {9}), ({-1}, {-1}), ({9}, {0, 1}), ({9}, {8})]
)
def test_standard_conjugate_rejects_indices_outside_the_rank(x, x2):
    # the search used to stop at X == X' and the size test to answer first,
    # so the first three read as True, True and False on A3
    with pytest.raises(PreconditionViolated):
        standard_conjugate(context("A3"), x, x2)


def test_generator_indices_outside_the_rank_are_rejected():
    # index 9 on A3: each call raised a bare KeyError, or read the stray
    # index as absent (the identity for Delta_X, False for membership)
    a3 = context("A3")
    calls = [
        lambda: central_generator_z(a3, {9}),
        lambda: delta_permutation(a3, {9}),
        lambda: standard_conjugate(a3, {9}, {8}),
        lambda: a3.delta_of({9}),
        lambda: member_of_standard(a3.atoms[0], {9}),
    ]
    for call in calls:
        with pytest.raises(PreconditionViolated):
            call()


if __name__ == "__main__":
    # every same-size pair of types too large for each test run, e.g.
    #   PYTHONPATH=src python tests/test_parabolic.py E7 E8
    import sys

    for name in sys.argv[1:]:
        wrong, pairs = conjugacy_disagreements(name)
        print(f"{name}: {pairs} pairs, {len(wrong)} disagreements")
