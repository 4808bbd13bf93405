"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass lines; every
tolerance is fixed here (exact equality unless a bound is stated).
"""

import random
import time

import pytest

from artinmark.garside import context, normalize
from artinmark.graph import (
    all_standard_markings,
    bfs,
    neighbors,
    standard_marking_connectivity,
)
from artinmark.marking import (
    Marking,
    enumerate_flip_moves,
    is_flip_edge,
    is_twist_edge,
    marking_stabilizer,
    standard_transversals,
    twist_move,
    validate_marking,
)
from artinmark.parabolic import (
    ParabolicSubgroup,
    delta_permutation,
    standard_conjugate,
)
from artinmark.ribbons import elementary_ribbon, ribbon_delta_form
from artinmark.simplex import CparabSimplex, build_standardized, enumerate_maximal_standard

from oracles import (
    AscendingProduct,
    atom_length,
    extract_ascending_product,
    marking_stabilizer_probe,
    orbit_representatives,
    positive_words,
    projections,
    shortest_path,
    table_conjugacy_edges,
    transversal_swap_path,
    verify_action_isometry,
    word_partition,
)
from test_simplex import brute_force_maximal_standard

pytestmark = pytest.mark.acceptance


def report(number: int, text: str):
    print(f"ACCEPTANCE {number}: PASS — {text}")


def test_criterion_01_garside_kernel_vs_rewriting_oracle():
    started = time.time()
    checked = 0
    # exhaustive on the rank-2 types, all positive words of length <= 8
    for spec in ["A2", "B2"]:
        ctx = context(spec)
        for length in range(0, 9):
            reps = word_partition(ctx.graph, length)
            forms = {}
            for word in positive_words(ctx.rank, length):
                forms[word] = ctx.from_word(tuple((i, 1) for i in word))
                checked += 1
            by_rep = {}
            by_nf = {}
            for word, rep in reps.items():
                by_rep.setdefault(rep, set()).add(word)
            for word, nf in forms.items():
                by_nf.setdefault(nf, set()).add(word)
            assert sorted(map(sorted, by_rep.values())) == sorted(
                map(sorted, by_nf.values())
            ), (spec, length)
    # randomized pairs on the rank-3 and dihedral types, words of length <= 6
    rng = random.Random(2024)
    for spec in ["A3", "B3", "I2(5)", "I2(6)", "I2(7)", "I2(8)"]:
        ctx = context(spec)
        reps = {}
        for length in range(0, 7):
            reps.update(word_partition(ctx.graph, length))
        pool = [w for length in range(0, 7) for w in positive_words(ctx.rank, length)]
        disagreements = 0
        for _ in range(5000):
            u, v = rng.choice(pool), rng.choice(pool)
            oracle_same = len(u) == len(v) and reps[u] == reps[v]
            nf_same = ctx.from_word(tuple((i, 1) for i in u)) == ctx.from_word(
                tuple((i, 1) for i in v)
            )
            if oracle_same != nf_same:
                disagreements += 1
            checked += 1
        assert disagreements == 0, spec
    elapsed = time.time() - started
    assert elapsed < 120, f"criterion 1 took {elapsed:.1f}s"
    report(1, f"normalize vs rewriting oracle, {checked} checks in {elapsed:.1f}s")


def test_criterion_02_section_2_2_examples_bit_exact():
    i4 = context("I2(4)")
    g = normalize(i4, "s1 s2 s1 s2 s2")
    assert normalize(i4, "s1 s2 s1").inverse() * g == normalize(i4, "s2 s2")
    assert normalize(i4, "s2 s1 s2").inverse() * g == normalize(i4, "s1 s2")
    assert atom_length(g) == 5
    assert atom_length(normalize(i4, "s2 s2 s2 s2 s2 s2")) == 6
    assert g.support() == frozenset({0, 1})
    assert normalize(i4, "s2 s2 s2 s2 s2 s2").support() == frozenset({1})
    # Delta-conjugation tables
    for spec in ["A2", "A3", "A4", "A5"]:
        ctx = context(spec)
        n = ctx.rank
        assert delta_permutation(ctx, frozenset(range(n))) == {
            i: n - 1 - i for i in range(n)
        }
    for spec in ["D5", "D7"]:
        ctx = context(spec)
        n = ctx.rank
        expected = {i: i for i in range(n - 2)}
        expected.update({n - 2: n - 1, n - 1: n - 2})
        assert delta_permutation(ctx, frozenset(range(n))) == expected
    e6 = context("E6")
    assert delta_permutation(e6, frozenset(range(6))) == {
        0: 5, 1: 4, 2: 2, 3: 3, 4: 1, 5: 0,
    }
    for spec in ["I2(5)", "I2(7)"]:
        assert delta_permutation(context(spec), frozenset({0, 1})) == {0: 1, 1: 0}
    report(2, "I2(4) prefix/support/length examples and all four conjugation tables")


def test_criterion_03_paris_conjugacy_e8():
    started = time.time()
    e8 = context("E8")
    x = frozenset({0, 1, 2, 3})
    y = frozenset({4, 5, 6, 7})
    assert standard_conjugate(e8, x, y)
    graph = table_conjugacy_edges(e8)
    e6_milestone = frozenset({2, 3, 4, 5})  # delta_0 of E6 applied to x
    d5_milestone = frozenset({0, 1, 2, 4})  # delta_0 of D5 applied to x
    via_e6 = shortest_path(graph, x, y, via=e6_milestone)
    via_d5 = shortest_path(graph, x, y, via=d5_milestone)
    assert via_e6 is not None and via_d5 is not None and via_e6 != via_d5
    # every size-mismatched query is false
    n = e8.rank
    rng = random.Random(7)
    for _ in range(200):
        a = frozenset(rng.sample(range(n), rng.randrange(1, n)))
        b = frozenset(rng.sample(range(n), rng.randrange(1, n)))
        if len(a) != len(b):
            assert not standard_conjugate(e8, a, b)
    elapsed = time.time() - started
    assert elapsed < 30, f"criterion 3 took {elapsed:.1f}s"
    report(3, f"E8 conjugacy with E6- and D5-route witnesses in {elapsed:.1f}s")


def test_criterion_04_maximal_simplices():
    a3 = context("A3")
    enumerated = sorted(
        sorted(sorted(v.gens) for v in s.vertices)
        for s in enumerate_maximal_standard(a3)
    )
    assert enumerated == brute_force_maximal_standard(a3)
    assert len(enumerated) == 5
    e6 = context("E6")
    pi = CparabSimplex(
        e6,
        [
            ParabolicSubgroup.standard(e6, frozenset(s))
            for s in [{0}, {0, 1}, {3}, {4, 5}, {5}]
        ],
    )
    data = build_standardized(e6, [v.gens for v in pi.vertices])
    assert data.is_maximal and data.missing == 2
    named = [
        sorted(sorted(pi.vertices[i].gens) for i in layer)
        for layer in pi.levels.levels
    ]
    assert named == [[[0, 1], [3], [4, 5]], [[0], [5]]]
    for spec in ["B4", "B5"]:
        ctx = context(spec)
        n = ctx.rank
        chain = CparabSimplex(
            ctx,
            [
                ParabolicSubgroup.standard(ctx, frozenset(range(k)))
                for k in range(1, n)
            ],
        )
        data = build_standardized(ctx, [v.gens for v in chain.vertices])
        assert data.is_maximal and data.missing == n - 1
        for depth, layer in enumerate(chain.levels.levels, start=1):
            (vertex,) = layer
            assert chain.vertices[vertex].gens == frozenset(range(n - depth))
    report(4, "A3 enumeration matches brute force (5); E6 and B_n examples verified")


def test_criterion_05_ascending_product_roundtrips():
    rng = random.Random(99)
    total = 0
    for spec in ["A2", "B2", "A3", "B3", "I2(5)", "I2(6)"]:
        ctx = context(spec)
        simplices = enumerate_maximal_standard(ctx)
        successes = 0
        for _ in range(200):
            simplex = rng.choice(simplices)
            word = tuple(
                (rng.randrange(ctx.rank), rng.choice([1, -1]))
                for _ in range(rng.randrange(0, 3))
            )
            moved = simplex.conjugated_by(ctx.from_word(word))
            ghat, data = moved.canonical_data()
            exponents = tuple(rng.randrange(-2, 3) for _ in data.subsets)
            gamma = rng.randrange(-2, 3)
            product = AscendingProduct(data, exponents, gamma)
            h = ghat * product.to_element(ctx)
            recovered = extract_ascending_product(h, ghat, data)
            assert recovered.exponents == exponents and recovered.gamma == gamma
            successes += 1
        assert successes == 200, spec
        total += successes
    report(5, f"{total} ascending-product roundtrips, 100% recovered")


def test_criterion_06_ribbon_decompositions():
    rng = random.Random(6)
    total = 0
    for spec in ["A3", "B3"]:
        ctx = context(spec)
        everything = frozenset(ctx.graph.vertices)
        for missing in sorted(everything):
            x = everything - {missing}
            done = 0
            attempts = 0
            while done < 100 and attempts < 5000:
                attempts += 1
                current = x
                element = ctx.identity
                for _ in range(rng.randrange(1, 6)):
                    ribbon = elementary_ribbon(ctx, current, rng.randrange(ctx.rank))
                    element = ribbon.element * element
                    current = ribbon.target
                if current != x:
                    continue
                a, b, c, d = ribbon_delta_form(ctx, element, x)
                comps = ctx.graph.components(x)
                rebuilt = ctx.identity
                for exp, comp in zip((a, b, c), comps):
                    rebuilt = rebuilt * ctx.delta_of(comp) ** exp
                rebuilt = rebuilt * ctx.delta**d
                assert rebuilt == element
                done += 1
            assert done == 100, (spec, sorted(x))
            total += done
    # the Case-2 identity
    a3 = context("A3")
    x = frozenset({0, 1})
    y = frozenset({1, 2})
    lhs = (a3.delta * a3.delta_of(y).inverse()) * (a3.delta * a3.delta_of(x).inverse())
    assert lhs == a3.delta**2 * a3.delta_of(x) ** -2
    assert ribbon_delta_form(a3, lhs, x) == (-2, 0, 0, 2)
    report(6, f"{total} ribbon round-trips decomposed; Case-2 identity exact")


def test_criterion_07_standard_transversal_markings():
    count = 0
    for spec in ["A2", "A3", "A4", "B3", "D4", "I2(5)", "I2(6)", "I2(7)", "I2(8)"]:
        ctx = context(spec)
        for simplex in enumerate_maximal_standard(ctx):
            marking = standard_transversals(simplex)
            validate_marking(marking)  # includes the inclusion-lemma asserts
            assert projections(marking) == (0,) * len(marking.pairs)
            count += 1
    report(7, f"{count} recipe markings validated with all-zero projections")


def test_criterion_08_moves_and_equivariance():
    rng = random.Random(8)
    for spec in ["A2", "A3", "B3"]:
        ctx = context(spec)
        pool = []
        for simplex in enumerate_maximal_standard(ctx):
            marking = standard_transversals(simplex)
            d = len(marking.pairs)
            twist_count = 0
            for j in range(d):
                assert len(enumerate_flip_moves(marking, j)) >= 1
            for other, kind in neighbors(marking):
                pool.append((marking, other, kind))
                if kind == "twist":
                    twist_count += 1
            assert twist_count <= 2 * d
        failures = 0
        for _ in range(500):
            edge = rng.choice(pool)
            word = tuple(
                (rng.randrange(ctx.rank), 1) for _ in range(rng.randrange(0, 3))
            )
            x = ctx.delta ** rng.randrange(-1, 2) * ctx.from_word(word)
            if not verify_action_isometry(edge, x):
                failures += 1
        assert failures == 0, spec
    # swap paths stay within four validated moves (rank-1 base vertices, so a
    # single twist moves the projection by exactly one)
    a3 = context("A3")
    marking = standard_transversals(
        CparabSimplex(
            a3,
            [
                ParabolicSubgroup.standard(a3, frozenset({0})),
                ParabolicSubgroup.standard(a3, frozenset({2})),
            ],
        )
    )
    for target in [
        twist_move(marking, 0),
        twist_move(marking, 1, -1),
        twist_move(twist_move(marking, 0), 1),
    ]:
        path = transversal_swap_path(marking, target)
        assert len(path) - 1 <= 4
        for a, b in zip(path, path[1:]):
            assert is_flip_edge(a, b) or is_twist_edge(a, b)
    report(8, "move bounds, 3x500 equivariance trials (0 failures), swap paths <= 4")


def test_criterion_09_stabilizer_probe_a2():
    started = time.time()
    a2 = context("A2")
    marking = standard_transversals(
        CparabSimplex(a2, [ParabolicSubgroup.standard(a2, frozenset({0}))])
    )
    assert marking_stabilizer(marking) == 2
    hits = marking_stabilizer_probe(marking, 4)
    assert hits
    for hit in hits:
        assert hit.canonical_length == 0, f"non-Delta-power stabilizer {hit}"
    assert a2.delta**2 in hits and a2.delta**-2 in hits
    # the probe's window holds Delta^m for -4 <= m <= 4 + 4 // 3
    assert hits == [a2.delta**m for m in range(-4, 6) if m % 2 == 0]
    elapsed = time.time() - started
    assert elapsed < 300, f"criterion 9 took {elapsed:.1f}s"
    report(9, f"exact stabilizer <Delta^2> equals the probe oracle (length <= 4) in {elapsed:.1f}s")


def test_criterion_10_connectivity_and_cocompactness():
    for spec in ["A2", "A3", "I2(5)", "I2(6)"]:
        reportdata = standard_marking_connectivity(context(spec))
        assert reportdata.connected, spec
        assert reportdata.diameter <= reportdata.bound, spec
    a2 = context("A2")
    seed = standard_transversals(
        CparabSimplex(a2, [ParabolicSubgroup.standard(a2, frozenset({0}))])
    )
    standard_keys = {m.key() for m in all_standard_markings(a2)}
    representatives = orbit_representatives(a2, seed, 2)
    assert representatives
    assert set(representatives.values()) <= standard_keys
    report(10, "standard markings connected within bounds; radius-2 orbit covering")
