import contextlib
import functools
import io
import itertools
import json
import random
import traceback

import pytest

from artinmark import marking as marking_module
from artinmark.errors import (
    BaseNotMaximal,
    InvariantViolated,
    NotAStandardizer,
    NotMaximal,
    NotSimultaneouslyStandardizable,
    NotStandard,
    PreconditionViolated,
    TransversalityPatternBroken,
)
from artinmark.cli import run_command
from artinmark.coxeter import build_defining_graph, root_reflection_table
from artinmark.garside import ArtinElement, GarsideContext, context, normalize
from artinmark.graph import all_standard_markings, bfs
from artinmark.marking import (
    Marking,
    decompose_transversal,
    enumerate_flip_moves,
    flip_candidates,
    flip_frame,
    frame_flip,
    frame_flips,
    is_flip_edge,
    is_twist_edge,
    marking_stabilizer,
    projection,
    standard_transversals,
    standardize_marking,
    transversal_decomposition,
    twist_move,
    validate_marking,
)
from artinmark.parabolic import ParabolicSubgroup
from artinmark.simplex import CparabSimplex, build_standardized, enumerate_maximal_standard

from oracles import (
    contains,
    scan_decompose_transversal,
    containment_structure,
    extraction_projection,
    flip_candidate_table,
    frame_table,
    h_relative_flip_table,
    levelwise_standardize_marking,
    marking_stabilizer_probe,
    pair_vertex,
    projections,
    right_descents,
    shared_flip_standardizer,
    transversal_swap_path,
    z_product_flip_table,
    z_product_pattern,
)


def gens(ctx, *names):
    return frozenset(ctx.graph.index(n) for n in names)


def std(ctx, *names):
    return ParabolicSubgroup.standard(ctx, gens(ctx, *names))


def simplex_of(ctx, *families):
    return CparabSimplex(ctx, [std(ctx, *fam) for fam in families])


def marking_a3():
    a3 = context("A3")
    return a3, standard_transversals(simplex_of(a3, ("s1",), ("s3",)))


def test_standard_transversals_a3():
    _a3, marking = marking_a3()
    table = {
        tuple(sorted(p.gens)): tuple(sorted(q.gens)) for p, q in marking.pairs
    }
    assert table == {(0,): (1, 2), (2,): (0, 1)}
    validate_marking(marking)


def test_standard_transversals_a2():
    a2 = context("A2")
    marking = standard_transversals(simplex_of(a2, ("s1",)))
    assert [(sorted(p.gens), sorted(q.gens)) for p, q in marking.pairs] == [
        ([0], [1])
    ]


def test_standard_transversals_b_n_chain():
    for spec in ["B3", "B4", "B5"]:
        ctx = context(spec)
        n = ctx.rank
        families = [tuple(f"s{i+1}" for i in range(k)) for k in range(1, n)]
        marking = standard_transversals(simplex_of(ctx, *families))
        for p, q in marking.pairs:
            assert max(p.gens) + 1 in q.gens
        validate_marking(marking)


def test_standard_transversals_requires_maximal():
    a3 = context("A3")
    with pytest.raises(BaseNotMaximal):
        standard_transversals(simplex_of(a3, ("s1",)))


def test_validate_output_of_recipe_everywhere():
    for spec in ["A2", "A3", "B3", "I2(5)"]:
        ctx = context(spec)
        for simplex in enumerate_maximal_standard(ctx):
            marking = standard_transversals(simplex)
            cert = validate_marking(marking)
            assert len(cert.transversals) == len(marking.pairs)
            assert all(t.twist == 0 for t in cert.transversals)
            assert projections(marking) == (0,) * len(marking.pairs)


@pytest.mark.parametrize("spec,radius", [("A3", 2), ("B3", 2), ("A4", 1)])
def test_carried_certificate_is_the_validated_frame(spec, radius):
    # every move carries its certificate; on each node of the ball it must
    # be the frame that validating the same pairs from scratch gives
    ctx = context(spec)
    nodes = bfs(all_standard_markings(ctx)[0], radius).nodes.values()
    for node in nodes:
        carried = node.certificate()
        fresh = validate_marking(Marking(ctx, node.pairs))
        assert carried.ghat == fresh.ghat, node
        assert carried.bases == fresh.bases, node
        assert carried.transversals == fresh.transversals, node
    assert len(nodes) > 20


def test_broken_pattern_detected():
    a3, marking = marking_a3()
    pairs = list(marking.pairs)
    # replace the transversal of <s1> with a subgroup commuting with it
    pairs[0] = (pairs[0][0], std(a3, "s3"))
    with pytest.raises(TransversalityPatternBroken):
        validate_marking(Marking(a3, pairs))


def test_unstandardizable_transversal_reported_before_broken_pattern():
    # (s2 s1) A_{s2,s3} (s2 s1)^-1 breaks the pattern at (0, 0) and has no
    # decomposition relative to ghat; decompositions are checked first
    a3, marking = marking_a3()
    pairs = list(marking.pairs)
    pairs[0] = (pairs[0][0], pairs[0][1].conjugated_by(a3.from_word(((1, 1), (0, 1)))))
    broken = Marking(a3, pairs)
    assert z_product_pattern(broken) == (0, 0)
    with pytest.raises(NotSimultaneouslyStandardizable) as info:
        validate_marking(broken)
    assert info.value.index == 0


def test_cached_certificate_error_is_raised_fresh():
    a3, marking = marking_a3()
    pairs = list(marking.pairs)
    pairs[0] = (pairs[0][0], std(a3, "s3"))
    errors = []
    for _ in range(4):
        with pytest.raises(TransversalityPatternBroken) as info:
            Marking(a3, pairs).certificate()
        errors.append(info.value)
    cached = errors[1:]
    depths = {len(traceback.extract_tb(err.__traceback__)) for err in cached}
    assert len(depths) == 1
    assert len({id(err) for err in errors}) == len(errors)
    assert all(err.indices == errors[0].indices for err in cached)
    assert all(str(err) == str(errors[0]) for err in cached)


def test_validation_preserved_under_conjugation():
    random.seed(31)
    a3, marking = marking_a3()
    for _ in range(5):
        word = tuple(
            (random.randrange(3), random.choice([1, -1]))
            for _ in range(random.randrange(0, 4))
        )
        moved = marking.conjugated_by(a3.from_word(word))
        validate_marking(moved)


def test_transversal_decomposition_standard_and_twisted():
    a3, marking = marking_a3()
    ghat, _ = marking.base_simplex().canonical_data()
    assert ghat.is_identity
    data = transversal_decomposition(marking, 0, a3.identity)
    assert data.twist == 0 and data.subset == gens(a3, "s2", "s3")
    # replace Q_0 by its conjugate under Delta_{X_0}^2: twist becomes 2
    d = a3.delta_of(gens(a3, "s1")) ** 2
    pairs = list(marking.pairs)
    pairs[0] = (pairs[0][0], pairs[0][1].conjugated_by(d))
    twisted = Marking(a3, pairs)
    data2 = transversal_decomposition(twisted, 0, a3.identity)
    assert data2.twist == 2 and data2.subset == gens(a3, "s2", "s3")
    # the identity does not standardize the base s2 A_{s1} s2^-1
    moved_base = ParabolicSubgroup(a3, a3.atoms[1], gens(a3, "s1"))
    with pytest.raises(NotAStandardizer):
        decompose_transversal(marking.pairs[0][1], moved_base, a3.identity)


def test_transversal_decomposition_unique_by_scan():
    # exhaustive scan confirms a single hit in a window
    a3, marking = marking_a3()
    p, q = marking.pairs[0]
    x = gens(a3, "s1")
    z_q = q.z_element()
    hits = []
    for k in range(-4, 5):
        cand = a3.delta_of(x) ** k
        conj = cand.inverse() * q.conj
        moved = q.conjugated_by(cand.inverse())
        c, y = moved.canonical()
        if c.is_identity:
            hits.append((k, y))
    assert hits == [(0, gens(a3, "s2", "s3"))]


def test_projection_shift_by_central_power():
    a3, marking = marking_a3()
    d = a3.delta_of(gens(a3, "s1"))
    for k in (-2, -1, 1, 3):
        pairs = list(marking.pairs)
        pairs[0] = (pairs[0][0], pairs[0][1].conjugated_by(d**k))
        shifted = Marking(a3, pairs)
        assert projection(shifted, 0) == k
        assert projection(shifted, 1) == 0


def test_projection_independent_of_standardizer():
    a3, marking = marking_a3()
    twisted = twist_move(marking, 0)
    assert projection(twisted, 0) == 1
    for g in [a3.identity, a3.delta, a3.delta_of(gens(a3, "s1")) ** 2]:
        assert extraction_projection(twisted, 0, g) == 1


def test_projection_over_non_maximal_base_raises_not_maximal():
    # a one-pair A3 marking has a non-maximal base; this transversal also has
    # no decomposition relative to ghat, so the base is checked first
    a3 = context("A3")
    q = std(a3, "s2", "s3").conjugated_by(a3.from_word(((1, 1), (0, 1))))
    marking = Marking(a3, [(std(a3, "s1"), q)])
    with pytest.raises(NotMaximal):
        projection(marking, 0)


def test_twist_inverse_roundtrip_and_distinctness():
    _a3, marking = marking_a3()
    up = twist_move(marking, 0, 1)
    assert up != marking
    assert twist_move(up, 0, -1) == marking
    assert projection(up, 1) == projection(marking, 1)


@pytest.mark.parametrize("direction", [0, 2, -5])
def test_twist_direction_must_be_one_or_minus_one(direction):
    # 0 and 2 used to make a +1 twist, -5 a -1 twist
    _a3, marking = marking_a3()
    with pytest.raises(PreconditionViolated, match="direction"):
        twist_move(marking, 0, direction)


@pytest.mark.parametrize("j", [-1, 2])
def test_pair_index_outside_the_marking_is_rejected(j):
    # -1 used to mean the last pair, and len(marking) raised a bare IndexError
    _a3, marking = marking_a3()
    assert len(marking) == 2
    calls = [
        lambda: twist_move(marking, j),
        lambda: projection(marking, j),
        lambda: shared_flip_standardizer(marking, j),
        lambda: flip_candidates(marking, j),
        lambda: enumerate_flip_moves(marking, j),
    ]
    for call in calls:
        with pytest.raises(PreconditionViolated, match="pair index"):
            call()


def test_twist_shift_is_two_on_a2_type_vertex():
    a3 = context("A3")
    marking = standard_transversals(simplex_of(a3, ("s1",), ("s1", "s2")))
    j = next(
        i for i, (p, _q) in enumerate(marking.pairs) if p.gens == gens(a3, "s1", "s2")
    )
    up = twist_move(marking, j)
    assert projection(up, j) == 2
    j1 = next(
        i for i, (p, _q) in enumerate(marking.pairs) if p.gens == gens(a3, "s1")
    )
    assert projection(up, j1) == 0


def test_distinct_twists_lemma():
    # Delta_{X_j}^k Q Delta^-k = Q only for k = 0
    for spec in ["A2", "A3", "B3"]:
        ctx = context(spec)
        for simplex in enumerate_maximal_standard(ctx):
            marking = standard_transversals(simplex)
            for j, (p, q) in enumerate(marking.pairs):
                d = ctx.delta_of(p.gens)
                for k in range(-3, 4):
                    same = q.conjugated_by(d**k) == q
                    assert same == (k == 0)


def test_projection_not_absolutely_conjugation_invariant():
    # conjugating by z of the base IS the twist move, which shifts the
    # projection; only differences of projections are invariant
    a2 = context("A2")
    marking = standard_transversals(simplex_of(a2, ("s1",)))
    moved = marking.conjugated_by(a2.atoms[0])
    assert moved == twist_move(marking, 0)
    assert projection(marking, 0) == 0
    assert projection(moved, 0) == 1


def test_projection_differences_conjugation_invariant():
    random.seed(41)
    a3, marking = marking_a3()
    other = twist_move(twist_move(marking, 0), 1, -1)
    base_diffs = [
        projection(other, i) - projection(marking, i) for i in range(2)
    ]
    for _ in range(5):
        word = tuple(
            (random.randrange(3), random.choice([1, -1]))
            for _ in range(random.randrange(0, 4))
        )
        x = a3.from_word(word)
        m1, m2 = marking.conjugated_by(x), other.conjugated_by(x)
        diffs = [projection(m2, i) - projection(m1, i) for i in range(2)]
        assert diffs == base_diffs


def test_enumerate_flip_moves_a3():
    a3, marking = marking_a3()
    flips = enumerate_flip_moves(marking, 0)
    assert flips
    for flip in flips:
        assert is_flip_edge(marking, flip) and is_flip_edge(flip, marking)
        swapped = flip.pairs[0]
        assert swapped[0] == marking.pairs[0][1]
        assert swapped[1] == marking.pairs[0][0]
    # flipping again across the same index restores the original base
    back = enumerate_flip_moves(flips[0], 0)
    base_key = marking.base_simplex().key()
    assert any(b.base_simplex().key() == base_key for b in back)


def test_flip_new_base_is_maximal():
    a3, marking = marking_a3()
    for flip in enumerate_flip_moves(marking, 1):
        ghat, data = flip.base_simplex().canonical_data()
        assert build_standardized(a3, data.subsets).is_maximal


def test_flip_count_bounds():
    for spec in ["A2", "A3", "B3"]:
        ctx = context(spec)
        n_parabs = len(
            [
                s
                for size in range(1, ctx.rank)
                for s in itertools.combinations(range(ctx.rank), size)
                if ctx.graph.is_connected(frozenset(s))
            ]
        )
        for simplex in enumerate_maximal_standard(ctx)[:2]:
            marking = standard_transversals(simplex)
            d = len(marking.pairs)
            for j in range(d):
                count = len(enumerate_flip_moves(marking, j))
                assert 1 <= count <= n_parabs ** max(d - 1, 1)


def exhaustive_flip_search(marking, j, twist_range=3):
    """Independent flip enumeration: every (exponent, subset) conjugate of a
    standard subgroup in the new base's canonical frame, filtered by the
    z-commutation pattern, the twist condition, and full validation."""
    ctx = marking.ctx
    pairs = marking.pairs
    p_j, q_j = pairs[j]
    h = shared_flip_standardizer(marking, j)
    new_base = [q_j if i == j else pairs[i][0] for i in range(len(pairs))]
    new_simplex = CparabSimplex(ctx, new_base)
    ghat2, std2 = new_simplex.canonical_data()
    keys2 = {v.key(): i for i, v in enumerate(new_simplex.vertices)}
    z_base = [b.z_element() for b in new_base]
    connected = [
        frozenset(s)
        for size in range(1, ctx.rank)
        for s in itertools.combinations(range(ctx.rank), size)
        if ctx.graph.is_connected(frozenset(s))
    ]
    options = {}
    for i in range(len(pairs)):
        if i == j:
            continue
        anchor = transversal_decomposition(marking, i, h).twist
        vertex = keys2[pairs[i][0].key()]
        x2 = std2.subsets[vertex]
        found = []
        for y in connected:
            for n in range(-twist_range, twist_range + 1):
                cand = ParabolicSubgroup(ctx, ghat2 * ctx.delta_of(x2) ** n, y)
                z_cand = cand.z_element()
                if not all(
                    z_cand.commutes_with(z_base[m]) == (m != i)
                    for m in range(len(pairs))
                ):
                    continue
                try:
                    twist = decompose_transversal(cand, pairs[i][0], h).twist
                except Exception:
                    continue
                if abs(twist - anchor) <= 1:
                    found.append(cand)
        options[i] = found
    results = set()
    indices = sorted(options)
    for combo in itertools.product(*(options[i] for i in indices)):
        new_pairs = list(pairs)
        new_pairs[j] = (q_j, p_j)
        for i, q in zip(indices, combo):
            new_pairs[i] = (pairs[i][0], q)
        candidate = Marking(ctx, new_pairs)
        try:
            candidate.certificate()
        except Exception:
            continue
        results.add(candidate.key())
    return results


@pytest.mark.parametrize("spec", ["A2", "A3", "B3", "D4"])
def test_flip_candidates_match_exhaustive_search(spec):
    ctx = context(spec)
    for simplex in enumerate_maximal_standard(ctx)[:3]:
        marking = standard_transversals(simplex)
        for j in range(len(marking.pairs)):
            moves = [m.key() for m in enumerate_flip_moves(marking, j)]
            # the candidates are distinct, so no flip is listed twice
            assert len(set(moves)) == len(moves), (spec, j)
            exhaustive = exhaustive_flip_search(marking, j)
            assert set(moves) == exhaustive, (spec, j)


@pytest.mark.parametrize("spec", ["A3", "B3"])
def test_flips_share_their_frame_base_simplex(spec):
    # every flip across j carries the base simplex of its frame, the one a
    # fresh build of its bases would give
    ctx = context(spec)
    for marking in all_standard_markings(ctx)[:2]:
        for j in range(len(marking)):
            flips = flip_candidates(marking, j)
            assert len({id(flip._base) for flip in flips}) == 1, j
            fresh = CparabSimplex(ctx, [p for p, _q in flips[0].pairs])
            assert flips[0].base_simplex() == fresh
            assert flips[0].base_simplex().vertices == fresh.vertices


def test_transversals_at_fixed_projection_bounded():
    # at most N transversals at any given projection value (bounded search)
    a3, marking = marking_a3()
    h = a3.identity
    connected = [
        frozenset(s)
        for size in range(1, 3)
        for s in itertools.combinations(range(3), size)
        if a3.graph.is_connected(frozenset(s))
    ]
    n_parabs = len(connected)
    p0 = marking.pairs[0][0]
    x0 = gens(a3, "s1")
    for value in range(-2, 3):
        found = set()
        for y in connected:
            cand = ParabolicSubgroup(a3, a3.delta_of(x0) ** value, y)
            pairs = list(marking.pairs)
            pairs[0] = (p0, cand)
            try:
                candidate = Marking(a3, pairs)
                candidate.certificate()
            except Exception:
                continue
            if projection(candidate, 0) == value:
                found.add(cand.key())
        assert len(found) <= n_parabs


def test_standardize_marking_trivial():
    _a3, marking = marking_a3()
    conj, standard = standardize_marking(marking)
    assert conj.is_identity and standard == marking


def test_standardize_marking_roundtrip_random():
    random.seed(53)
    for spec in ["A3", "B3"]:
        ctx = context(spec)
        simplex = enumerate_maximal_standard(ctx)[0]
        marking = standard_transversals(simplex)
        for _ in range(4):
            word = tuple(
                (random.randrange(ctx.rank), random.choice([1, -1]))
                for _ in range(random.randrange(0, 4))
            )
            x = ctx.from_word(word)
            moved = twist_move(marking, 0).conjugated_by(x)
            conj, standard = standardize_marking(moved)
            assert standard.all_standard()
            assert standard.conjugated_by(conj) == moved
            assert projections(standard) == (0,) * len(standard.pairs)


def test_stabilizer_probe_a2():
    a2 = context("A2")
    marking = standard_transversals(
        CparabSimplex(a2, [ParabolicSubgroup.standard(a2, frozenset({0}))])
    )
    hits = marking_stabilizer_probe(marking, 4)
    assert hits
    for hit in hits:
        assert hit.canonical_length == 0  # a power of Delta
    assert a2.delta**2 in hits
    assert a2.atoms[0] not in hits
    # s1 does not stabilize: s1 <s2> s1^-1 != <s2>
    assert marking.conjugated_by(a2.atoms[0]) != marking
    assert marking_stabilizer(marking) == 2


def standard_markings(spec: str) -> list[Marking]:
    """Every standard marking of the type; A1 has one, the empty marking."""
    ctx = context(spec)
    return all_standard_markings(ctx) or [Marking(ctx, [])]


def probe_matches_oracle(spec: str, marking: Marking, bound: int) -> bool:
    """Whether stabilizer-probe prints the probe oracle's text and JSON bytes."""
    texts = [h.to_text() for h in marking_stabilizer_probe(marking, bound)]
    wanted = ("\n".join(texts) + "\n", json.dumps(texts, indent=2, sort_keys=True) + "\n")
    payload = json.dumps(marking.to_json())
    for fmt, want in zip(("text", "json"), wanted):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            argv = ["--type", spec, "--format", fmt, "--bound-k", str(bound)]
            code = run_command(argv + ["stabilizer-probe", payload])
        if (code, out.getvalue()) != (0, want):
            return False
    return True


@pytest.mark.parametrize("spec", ["A1", "A2", "I2(5)", "I2(6)", "A3", "B3", "H3"])
def test_stabilizer_probe_prints_the_probe_oracles_bytes(spec):
    for marking in standard_markings(spec):
        for bound in range(5):
            assert probe_matches_oracle(spec, marking, bound), (marking, bound)


def test_marking_stabilizer_values():
    # d = 1 exactly when Delta fixes the marking: always where Delta is
    # central (B3, H3, D4), never on A2, I2(5), A4, and on one A3 marking
    expected = {
        "A1": [1], "A2": [2, 2], "I2(5)": [2, 2], "I2(6)": [1, 1],
        "A3": [2, 2, 1, 2, 2], "B3": [1] * 5, "H3": [1] * 5, "A4": [2] * 14, "D4": [1] * 16,
    }
    for spec, ds in expected.items():
        assert [marking_stabilizer(m) for m in standard_markings(spec)] == ds, spec


def test_marking_stabilizer_needs_a_standard_marking():
    a3 = context("A3")
    marking = standard_markings("A3")[0]
    moved = marking.conjugated_by(a3.atoms[2])
    assert moved != marking
    with pytest.raises(NotStandard):
        marking_stabilizer(moved)
    with pytest.raises(NotStandard):
        marking_stabilizer_probe(moved, 1)
    # Delta^2 is central: the same marking, written with it, is standard
    assert marking_stabilizer(marking.conjugated_by(a3.delta**2)) == marking_stabilizer(marking)


def test_stabilizer_probe_rejects_negative_bounds():
    a2 = context("A2")
    marking = standard_transversals(
        CparabSimplex(a2, [ParabolicSubgroup.standard(a2, frozenset({0}))])
    )
    with pytest.raises(PreconditionViolated):
        marking_stabilizer_probe(marking, -3)


def test_twist_edges_conjugate_to_twist_edges():
    random.seed(61)
    for spec in ["A2", "A3", "B3"]:
        ctx = context(spec)
        marking = standard_transversals(enumerate_maximal_standard(ctx)[0])
        twisted = twist_move(marking, 0)
        assert is_twist_edge(marking, twisted)
        for _ in range(5):
            word = tuple(
                (random.randrange(ctx.rank), random.choice([1, -1]))
                for _ in range(random.randrange(0, 4))
            )
            x = ctx.from_word(word)
            assert is_twist_edge(
                marking.conjugated_by(x), twisted.conjugated_by(x)
            )


def test_flip_edges_conjugate_to_flip_edges():
    random.seed(67)
    a3, marking = marking_a3()
    flip = enumerate_flip_moves(marking, 0)[0]
    for _ in range(5):
        word = tuple(
            (random.randrange(3), random.choice([1, -1]))
            for _ in range(random.randrange(0, 4))
        )
        x = a3.from_word(word)
        assert is_flip_edge(marking.conjugated_by(x), flip.conjugated_by(x))


def test_transversal_swap_path_trivial():
    _a3, marking = marking_a3()
    assert transversal_swap_path(marking, marking) == [marking]


def test_transversal_swap_path_twisted_target():
    _a3, marking = marking_a3()
    target = twist_move(marking, 0)
    path = transversal_swap_path(marking, target)
    assert path[0] == marking and path[-1] == target
    assert len(path) <= 5
    for a, b in zip(path, path[1:]):
        assert is_flip_edge(a, b) or is_twist_edge(a, b)


def test_transversal_swap_path_double_twist():
    _a3, marking = marking_a3()
    target = twist_move(twist_move(marking, 0), 1, -1)
    path = transversal_swap_path(marking, target)
    assert path[0] == marking and path[-1] == target and len(path) <= 5
    for a, b in zip(path, path[1:]):
        assert is_flip_edge(a, b) or is_twist_edge(a, b)


def test_transversal_swap_path_preconditions(monkeypatch):
    a3, marking = marking_a3()
    d = a3.delta_of(gens(a3, "s1")) ** 2
    pairs = list(marking.pairs)
    pairs[0] = (pairs[0][0], pairs[0][1].conjugated_by(d))
    far = Marking(a3, pairs)
    with pytest.raises(PreconditionViolated):
        transversal_swap_path(marking, far)
    # every step of the path is checked to be a flip edge, also under -O
    monkeypatch.setattr("artinmark.marking.is_flip_edge", lambda a, b: False)
    with pytest.raises(InvariantViolated):
        transversal_swap_path(marking, twist_move(marking, 0))


def test_single_pair_swap_path_is_twist():
    a2 = context("A2")
    marking = standard_transversals(
        CparabSimplex(a2, [ParabolicSubgroup.standard(a2, frozenset({0}))])
    )
    target = twist_move(marking, 0)
    path = transversal_swap_path(marking, target)
    assert len(path) == 2 and is_twist_edge(path[0], path[1])


def test_marking_json_roundtrip():
    a3, marking = marking_a3()
    moved = marking.conjugated_by(normalize(a3, "s2 s1^-1"))
    assert Marking.from_json(a3, moved.to_json()) == moved


def test_marking_equality_ignores_pair_order():
    a3, marking = marking_a3()
    reversed_pairs = Marking(a3, list(marking.pairs)[::-1])
    assert reversed_pairs == marking


def test_flip_example_base_and_pair_content():
    # flipping across the <s1> pair yields a marking based on {<s2,s3>, <s3>}
    # whose flipped pair is (<s2,s3>, <s1>)
    a3, marking = marking_a3()
    j = next(
        i for i, (p, _q) in enumerate(marking.pairs) if p.gens == gens(a3, "s1")
    )
    flips = enumerate_flip_moves(marking, j)
    for flip in flips:
        bases = {tuple(sorted(p.canonical()[1])) for p, _ in flip.pairs}
        assert bases == {(1, 2), (2,)}
        assert flip.pairs[j][0].gens == gens(a3, "s2", "s3")
        assert flip.pairs[j][1].gens == gens(a3, "s1")


def ball_decompositions(spec, radius, seeds):
    """(q, base, g) for every pair of every node of the radius balls around
    the first seeds standard markings, against ghat and ghat Delta."""
    ctx = context(spec)
    nodes = {}
    for seed in all_standard_markings(ctx)[:seeds]:
        nodes.update(bfs(seed, radius).nodes)
    found = {}
    for marking in nodes.values():
        ghat, _std = marking.base_simplex().canonical_data()
        for g in (ghat, ghat * ctx.delta):
            for p, q in marking.pairs:
                found.setdefault((q.key(), p.key(), g), (q, p, g))
    return list(found.values())


@pytest.mark.parametrize("spec, seeds", [("A3", None), ("B3", None), ("A4", 3)])
def test_twist_size_is_read_off_inf_on_bfs_balls(spec, seeds):
    # |k| = -min(inf w, 0) for w = g^-1 z_q g, and the decomposition is the
    # one the bounded symmetric scan finds; the memo is emptied first, so
    # every decomposition is computed here
    ctx = context(spec)
    ctx.transversal_decompositions.clear()
    cases = ball_decompositions(spec, 2, seeds)
    sizes = set()
    for q, p, g in cases:
        w = g.inverse() * q.z_element() * g
        data = decompose_transversal(q, p, g)
        assert abs(data.twist) == -min(w.inf, 0), (q, p, g)
        assert (data.twist, data.subset) == scan_decompose_transversal(q, p, g), (q, p, g)
        sizes.add(abs(data.twist))
    assert len(cases) >= 300 and sizes >= {0, 1, 2, 3, 4}


def test_decomposition_never_forms_the_transversal_z(monkeypatch):
    # w = g^-1 z_Q g is formed in the base's frame as u z_Y u^-1, with
    # u = g^-1 conj(Q): on a fresh context the z-elements built are those of
    # standard subgroups only, never z_Q of a conjugated transversal
    ctx = GarsideContext(build_defining_graph("A4"), root_reflection_table("A4"))
    x = normalize(ctx, "s2^-1 s1 s3 s4^-1 s2")
    cases = []
    for simplex in enumerate_maximal_standard(ctx):
        marking = standard_transversals(simplex).conjugated_by(x)
        cases.append((marking, marking.base_simplex().canonical_data()[0]))
    built = []
    real = ParabolicSubgroup.z_element

    def spy(self):
        built.append(self)
        return real(self)

    monkeypatch.setattr(ParabolicSubgroup, "z_element", spy)
    twists = set()
    for marking, ghat in cases:
        for j, (p, q) in enumerate(marking.pairs):
            twists.add(decompose_transversal(q, p, ghat, j).twist)
    assert built and all(p.is_standard_rep for p in built)
    assert len(twists) > 1


LCM_SPECS = [
    "A2", "A3", "A4", "A5", "A6", "A7", "A8", "B2", "B3", "B4", "B5", "B6", "B7", "B8",
    "D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8", "F4", "H3", "H4", "I2(5)", "I2(6)",
]


def test_lcm_quotient_of_an_adjacent_generator():
    # the step of the twist argument: M = w0(Y+s) w0(Y) has support Y+s and
    # s as its only right descent, for every connected Y and s adjacent to Y
    count = 0
    for spec in LCM_SPECS:
        ctx = context(spec)
        graph = ctx.graph
        for mask in range(1, 1 << ctx.rank):
            y = frozenset(i for i in range(ctx.rank) if mask >> i & 1)
            if not graph.is_connected(y):
                continue
            for s in sorted(set(graph.vertices) - y):
                if any(graph.adjacent(s, t) for t in y):
                    m = ctx.w0_of(y | {s}) * ctx.w0_of(y)
                    assert m.support() == y | {s} and right_descents(m) == {s}, (spec, y, s)
                    count += 1
    assert count == 757


@pytest.mark.parametrize("spec", ["A3", "B3", "D4"])
def test_decomposition_matches_scan_oracle_on_perturbed_markings(spec):
    # every transversal of the valid and perturbed markings of the pattern
    # workload decomposes against ghat exactly when the bounded scan finds a
    # twist, and to the same (k, Y)
    valid, perturbed = pattern_workload(spec)
    outcomes = set()
    for marking in valid + perturbed:
        ghat, _std = marking.base_simplex().canonical_data()
        for j, (p, q) in enumerate(marking.pairs):
            expected = scan_decompose_transversal(q, p, ghat)
            try:
                data = decompose_transversal(q, p, ghat, j)
            except NotSimultaneouslyStandardizable as err:
                assert expected is None and err.index == j, (marking, j)
                outcomes.add(None)
                continue
            assert (data.twist, data.subset) == expected, (marking, j)
            outcomes.add(data.twist != 0)
    assert outcomes == {None, False, True}


def test_e6_transversal_without_decomposition_is_rejected():
    # Q_0 moved by s4 has no decomposition relative to ghat = 1; w has inf
    # -1, and neither twist 1 nor -1 makes it standard
    e6 = context("E6")
    marking = standard_transversals(
        simplex_of(
            e6, ("s1", "s2", "s3", "s4", "s5"), ("s1", "s2", "s3", "s5"), ("s1", "s2", "s3"),
            ("s2", "s3"), ("s2",),
        )
    )
    validate_marking(marking)
    pairs = list(marking.pairs)
    pairs[0] = (pairs[0][0], pairs[0][1].conjugated_by(e6.atoms[e6.graph.index("s4")]))
    moved = Marking(e6, pairs)
    assert scan_decompose_transversal(pairs[0][1], pairs[0][0], e6.identity) is None
    with pytest.raises(NotSimultaneouslyStandardizable) as info:
        validate_marking(moved)
    assert info.value.index == 0
    assert str(info.value) == (
        "pair 0 is not simultaneously standardizable: no twist k with |k| = 1 makes it standard"
    )


def subset_structure(marking):
    """containment_structure read off the standardized base subsets X_j and
    the transversal subsets Y_j of the certificate."""
    cert = marking.certificate()
    n = len(marking)
    x = cert.bases
    y = [t.subset for t in cert.transversals]
    top = [j for j in range(n) if not any(x[j] < z for z in x)]
    covers = {(j, k): x[k] <= y[j] for j in top for k in top if j != k}
    nested = {
        (j, k): y[j] <= x[k] for j in range(n) for k in range(n) if x[j] < x[k]
    }
    return covers, nested


def check_against_oracles(marking):
    assert subset_structure(marking) == containment_structure(marking)
    ghat, _std = marking.base_simplex().canonical_data()
    g = ghat * marking.ctx.delta
    assert projections(marking) == tuple(
        extraction_projection(marking, j, g) for j in range(len(marking))
    )


def validated_against_oracle(marking):
    """validate_marking's outcome, None or the TransversalityPatternBroken
    indices, asserting that it is the z-product oracle's; None for a marking
    with a transversal that does not decompose relative to ghat."""
    try:
        validate_marking(marking)
    except TransversalityPatternBroken as err:
        assert err.indices == z_product_pattern(marking)
        return err.indices
    except NotSimultaneouslyStandardizable:
        return None
    assert z_product_pattern(marking) is None
    return None


def check_certificates(monkeypatch) -> set:
    """Make every first certificate() of a marking check validation against
    the z-product oracle; returns the ordered keys checked so far."""
    certify = Marking.certificate
    checked = set()

    def certificate(marking):
        if marking.ordered_key() not in checked:
            checked.add(marking.ordered_key())
            validated_against_oracle(marking)
        return certify(marking)

    monkeypatch.setattr(Marking, "certificate", certificate)
    return checked


def signed_word(rng, ctx, length):
    return ctx.from_word(
        tuple((rng.randrange(ctx.rank), rng.choice([1, -1])) for _ in range(length))
    )


@functools.lru_cache(maxsize=None)
def pattern_workload(spec):
    """(valid, perturbed) markings of spec.  valid: the all-standard markings,
    the radius-1 ball of the first, and a copy of each conjugated by a random
    signed word.  perturbed: one copy of each with the transversal at some
    index replaced, in turn, by a Delta_X-twisted standard subgroup over
    ghat, by a random conjugate of itself, or by the transversal at another
    index."""
    rng = random.Random(spec)
    ctx = context(spec)
    standard = all_standard_markings(ctx)
    valid = list({m.key(): m for m in standard + list(bfs(standard[0], 1).nodes.values())}.values())
    valid += [m.conjugated_by(signed_word(rng, ctx, 3)) for m in valid]
    perturbed = []
    for n, marking in enumerate(valid):
        ghat, std_ = marking.base_simplex().canonical_data()
        i = rng.randrange(len(marking))
        pairs = list(marking.pairs)
        p_i, q_i = pairs[i]
        if n % 3 == 0:
            x_i = std_.subsets[pair_vertex(marking, i)]
            y = rng.choice(ctx.connected_proper_subsets())
            q_i = ParabolicSubgroup(ctx, ghat * ctx.delta_of(x_i) ** rng.randrange(-2, 3), y)
        elif n % 3 == 1:
            q_i = q_i.conjugated_by(signed_word(rng, ctx, rng.randrange(1, 3)))
        else:
            q_i = pairs[(i + 1) % len(pairs)][1]
        pairs[i] = (p_i, q_i)
        perturbed.append(Marking(ctx, pairs))
    return valid, perturbed


@pytest.mark.parametrize("spec", ["A3", "B3", "D4", "H3"])
def test_validation_matches_z_product_oracle(spec):
    # the subset pattern test reports what the z-element products report,
    # down to the first broken (i, j), wherever every transversal decomposes
    valid, perturbed = pattern_workload(spec)
    for marking in valid:
        validate_marking(marking)
        assert z_product_pattern(marking) is None
    broken = [validated_against_oracle(m) for m in perturbed]
    assert sum(b is not None for b in broken) >= len(perturbed) // 4


def test_validation_makes_no_z_products(monkeypatch):
    workloads = [pattern_workload(spec) for spec in ["A3", "B3", "D4", "H3"]]
    markings = [m for valid, perturbed in workloads for m in valid + perturbed]
    for marking in markings:
        marking.base_simplex()  # standardizing a base checks its z's commute

    def refuse(self, other):
        raise AssertionError("validation multiplied z-elements")

    monkeypatch.setattr(ArtinElement, "commutes_with", refuse)
    for marking in markings:
        try:
            validate_marking(marking)
        except (TransversalityPatternBroken, NotSimultaneouslyStandardizable):
            pass


def flip_table_data(h, anchors, table):
    return h, anchors, {
        i: [(t, q.conj, q.gens) for t, q in tagged] for i, tagged in table.items()
    }


def check_flip_tables(monkeypatch) -> list[int]:
    """Make every flip frame check the candidate table it gives against the
    z-product oracle; returns the list of flip indices checked so far."""
    checked = []
    build = marking_module.flip_frame

    def frame(marking, j):
        out = build(marking, j)
        assert flip_table_data(*frame_table(marking, j, out)) == flip_table_data(
            *z_product_flip_table(marking, j)
        )
        checked.append(j)
        return out

    monkeypatch.setattr(marking_module, "flip_frame", frame)
    return checked


@pytest.mark.parametrize("spec", ["A3", "B3", "D4", "H3"])
def test_flip_candidate_table_matches_z_product_oracle(spec):
    # the subset pattern test keeps exactly the candidates whose z-elements
    # commute as the pattern requires, in the same order, on every flip of
    # every all-standard marking (anchors 0, so odd twists -1 and 1 occur)
    ctx = context(spec)
    for marking in all_standard_markings(ctx):
        for j in range(len(marking)):
            assert flip_table_data(*flip_candidate_table(marking, j)) == flip_table_data(
                *z_product_flip_table(marking, j)
            )


def test_flip_and_swap_soak_on_moved_markings(monkeypatch):
    # flips and bounded swap paths on twisted and conjugated markings, with
    # structure and projections checked against the containment and
    # extraction oracles, and every flip candidate table and every
    # certified marking against the z-product oracles
    checked = check_flip_tables(monkeypatch)
    certified = check_certificates(monkeypatch)
    random.seed(137)
    for spec in ["A3", "B3"]:
        ctx = context(spec)
        base_markings = [
            standard_transversals(s) for s in enumerate_maximal_standard(ctx)
        ]
        for _ in range(12):
            marking = random.choice(base_markings)
            for _ in range(random.randrange(0, 3)):
                marking = twist_move(
                    marking, random.randrange(len(marking)), random.choice([1, -1])
                )
            word = tuple(
                (random.randrange(ctx.rank), random.choice([1, -1]))
                for _ in range(random.randrange(0, 3))
            )
            marking = marking.conjugated_by(ctx.from_word(word))
            marking.certificate()
            check_against_oracles(marking)
            j = random.randrange(len(marking))
            flips = enumerate_flip_moves(marking, j)
            assert flips
            for flip in flips[:2]:
                assert is_flip_edge(marking, flip) and is_flip_edge(flip, marking)
                check_against_oracles(flip)
    a3, seed = marking_a3()
    for _ in range(10):
        m1 = seed
        for _ in range(random.randrange(0, 3)):
            m1 = twist_move(m1, random.randrange(2), random.choice([1, -1]))
        m2 = m1
        for j in range(2):
            step = random.choice([-1, 0, 1])
            if step:
                m2 = twist_move(m2, j, step)
        x = a3.from_word(
            tuple(
                (random.randrange(3), random.choice([1, -1]))
                for _ in range(random.randrange(0, 3))
            )
        )
        m1c, m2c = m1.conjugated_by(x), m2.conjugated_by(x)
        path = transversal_swap_path(m1c, m2c)
        assert path[0] == m1c and path[-1] == m2c and len(path) <= 5
        for a, b in zip(path, path[1:]):
            assert is_flip_edge(a, b) or is_twist_edge(a, b)
        for m in path:
            check_against_oracles(m)
    assert len(checked) >= 24
    assert len(certified) >= 100


# -- one standardizer per base ----------------------------------------------------


@functools.lru_cache(maxsize=None)
def twisted_conjugates(spec):
    """Each all-standard marking of spec, twice: twisted at random indices and
    conjugated by a random signed word."""
    rng = random.Random(f"twisted {spec}")
    ctx = context(spec)
    out = []
    for marking in all_standard_markings(ctx):
        for _ in range(2):
            moved = marking
            for _ in range(rng.randrange(1, 4)):
                moved = twist_move(moved, rng.randrange(len(moved)), rng.choice([1, -1]))
            out.append(moved.conjugated_by(signed_word(rng, ctx, rng.randrange(0, 4))))
    return out


def check_certified_frames(markings):
    """Standardization and every flip candidate table, read off the
    certificate, equal the oracles that decompose against h and per level."""
    for marking in markings:
        conj, standard = standardize_marking(marking)
        conj_o, standard_o = levelwise_standardize_marking(marking)
        assert conj == conj_o and standard.pairs == standard_o.pairs, marking
        for j in range(len(marking)):
            assert flip_table_data(*flip_candidate_table(marking, j)) == flip_table_data(
                *h_relative_flip_table(marking, j)
            ), (marking, j)


@pytest.mark.parametrize("spec, radius", [("A3", 2), ("B3", 1)])
def test_certified_frames_match_oracles_on_bfs_balls(spec, radius):
    ctx = context(spec)
    nodes = {}
    for simplex in enumerate_maximal_standard(ctx):
        nodes.update(bfs(standard_transversals(simplex), radius).nodes)
    check_certified_frames(nodes.values())


@pytest.mark.parametrize("spec", ["A3", "B3", "D4"])
def test_certified_frames_match_oracles_on_twisted_conjugates(spec):
    markings = twisted_conjugates(spec)
    assert any(t.twist % 2 for m in markings for t in m.certificate().transversals)
    check_certified_frames(markings)


@pytest.mark.parametrize("spec", ["A3", "B3"])
def test_frame_flip_coordinates_match_validation(spec):
    # every coordinate set frame_flips lists is the certificate of the flip
    # frame_flip builds from it, and a fresh validation of that flip's pairs
    # finds the same certificate: the nodes of the first seed's radius-2 ball,
    # and for A3 a twisted conjugate too
    ctx = context(spec)
    markings = list(bfs(all_standard_markings(ctx)[0], 2).nodes.values())
    if spec == "A3":
        markings.append(twisted_conjugates("A3")[1])
    checked = 0
    for marking in markings:
        for j in range(len(marking)):
            frame = flip_frame(marking, j)
            for coordinates in frame_flips(marking, j, frame):
                flip = frame_flip(marking, j, frame, coordinates)
                assert frozenset(flip.coordinates()) == coordinates, (marking, j)
                fresh = Marking(ctx, flip.pairs)
                assert frozenset(fresh.coordinates()) == coordinates, (marking, j)
                assert fresh.certificate() == flip.certificate(), (marking, j)
                checked += 1
    assert checked


def test_moves_decompose_only_against_the_canonical_standardizer(monkeypatch):
    # the certificate is the only source of twists: a move decomposes a
    # transversal against nothing but the canonical standardizer of its
    # marking's base, except is_flip_edge at its far end
    decompose = marking_module.transversal_decomposition
    is_flip = marking_module.is_flip_edge
    raw = marking_module.decompose_transversal
    calls, strays, far_ends, inside = [], [], [], []

    def transversal_decomposition(marking, j, g):
        calls.append((marking.key(), j))
        ghat, _std = marking.base_simplex().canonical_data()
        if g != ghat and not (far_ends and marking is far_ends[-1]):
            strays.append(("transversal_decomposition", marking.key(), j))
        inside.append(True)
        try:
            return decompose(marking, j, g)
        finally:
            inside.pop()

    def decompose_transversal(q, base, g, index=-1):
        if not inside:
            strays.append(("decompose_transversal", q.key(), base.key()))
        return raw(q, base, g, index)

    def is_flip_edge(a, b):
        far_ends.append(b)
        try:
            return is_flip(a, b)
        finally:
            far_ends.pop()

    monkeypatch.setattr(marking_module, "transversal_decomposition", transversal_decomposition)
    monkeypatch.setattr(marking_module, "decompose_transversal", decompose_transversal)
    monkeypatch.setattr(marking_module, "is_flip_edge", is_flip_edge)
    for spec in ["A3", "B3"]:
        for marking in twisted_conjugates(spec):
            marking.certificate()
            calls.clear()
            standardize_marking(marking)
            assert not calls
            for j in range(len(marking)):
                enumerate_flip_moves(marking, j)
    a3, seed = marking_a3()
    x = a3.from_word(((0, 1), (2, -1)))
    for m1, m2 in [
        (seed, twist_move(twist_move(seed, 0), 1, -1)),
        (twist_move(seed, 1), twist_move(twist_move(seed, 1), 0, -1)),
    ]:
        assert len(transversal_swap_path(m1.conjugated_by(x), m2.conjugated_by(x))) > 1
    assert not strays


def test_flip_moves_certify_their_marking():
    # Q_0 = P_0 breaks the pattern at (0, 0); flip_candidates used to build
    # candidates for such a marking without validating it
    a3, marking = marking_a3()
    pairs = list(marking.pairs)
    pairs[0] = (pairs[0][0], pairs[0][0])
    broken = Marking(a3, pairs)
    calls = [
        lambda: shared_flip_standardizer(broken, 1),
        lambda: flip_candidates(broken, 1),
        lambda: enumerate_flip_moves(broken, 1),
        # the edge tests certify both ends: no "no edge" for a non-marking
        lambda: is_flip_edge(broken, marking),
        lambda: is_flip_edge(marking, broken),
        lambda: is_twist_edge(broken, marking),
        lambda: is_twist_edge(marking, broken),
    ]
    for call in calls:
        with pytest.raises(TransversalityPatternBroken):
            call()


def test_failing_flip_frame_stores_nothing():
    # the frame memo holds results only: a marking whose base is not
    # maximal raises BaseNotMaximal on every call and leaves no entry, and a
    # marking that fails validation raises its validation error even when a
    # frame with its key is memoized
    a3 = GarsideContext(build_defining_graph("A3"), root_reflection_table("A3"))
    s1 = std(a3, "s1")
    for _ in range(2):
        with pytest.raises(BaseNotMaximal):
            flip_frame(Marking(a3, [(s1, s1)]), 0)
        assert a3.flip_frames == {}
    marking = standard_transversals(simplex_of(a3, ("s1",), ("s3",)))
    frame = flip_frame(marking, 1)
    with pytest.raises(PreconditionViolated):
        flip_frame(marking, 2)
    pairs = list(marking.pairs)
    pairs[0] = (pairs[0][0], pairs[0][0])
    broken = Marking(a3, pairs)
    key = (frozenset(p.key() for p, _q in pairs), pairs[1][0].key(), pairs[1][1].key())
    assert a3.flip_frames == {key: frame}
    for _ in range(2):
        with pytest.raises(TransversalityPatternBroken):
            flip_frame(broken, 1)
    assert a3.flip_frames == {key: frame}
    assert flip_frame(Marking(a3, marking.pairs), 1) is frame


def test_d4_three_maximal_components():
    # three singleton maximal bases; each transversal contains the other two
    d4 = context("D4")
    tri = next(
        s
        for s in enumerate_maximal_standard(d4)
        if len(s) == 3 and all(len(v.gens) == 1 for v in s.vertices)
    )
    marking = standard_transversals(tri)
    marking.certificate()
    assert projections(marking) == (0, 0, 0)
    for j, (p, q) in enumerate(marking.pairs):
        for k, (pk, _qk) in enumerate(marking.pairs):
            if k != j:
                assert contains(q, pk)
    flips = enumerate_flip_moves(marking, 0)
    assert flips and all(is_flip_edge(marking, f) for f in flips)
    path = transversal_swap_path(marking, twist_move(marking, 1))
    assert len(path) <= 5


def test_h3_and_e6_recipe_markings():
    h3 = context("H3")
    for simplex in enumerate_maximal_standard(h3):
        marking = standard_transversals(simplex)
        marking.certificate()
        assert projections(marking) == (0,) * len(marking.pairs)
    e6 = context("E6")
    pi = CparabSimplex(
        e6,
        [
            ParabolicSubgroup.standard(e6, frozenset(s))
            for s in [{0}, {0, 1}, {3}, {4, 5}, {5}]
        ],
    )
    marking = standard_transversals(pi)
    marking.certificate()
    j = next(i for i, (p, _q) in enumerate(marking.pairs) if p.gens == frozenset({3}))
    flips = enumerate_flip_moves(marking, j)
    assert flips and all(is_flip_edge(marking, f) for f in flips)


# -- certificates carried along moves --------------------------------------------


def moves_of(marking):
    """Every twist neighbour and every flip candidate of the marking."""
    for j in range(len(marking)):
        yield twist_move(marking, j, 1)
        yield twist_move(marking, j, -1)
        yield from flip_candidates(marking, j)


def flip_offsets(marking) -> set[int]:
    """The carried twist of every flip candidate at every index i != j,
    minus its twist relative to the shared standardizer h."""
    out = set()
    for j in range(len(marking)):
        _h, anchors, table = flip_candidate_table(marking, j)
        indices = sorted(anchors)
        combos = itertools.product(*(table[i] for i in indices))
        for combo, flip in zip(combos, flip_candidates(marking, j)):
            out |= {flip.certificate().transversals[i].twist - t for i, (t, _q) in zip(indices, combo)}
    return out


@pytest.mark.parametrize(
    "spec, radius", [("A3", 2), ("B3", 2), ("H3", 1), ("A4", 1), ("twisted", 1)]
)
def test_moves_carry_certificates_that_validation_confirms(monkeypatch, spec, radius):
    # every twist neighbour and flip candidate is certified by its move, with
    # validation refused; each certificate equals validating the pairs afresh
    if spec == "twisted":
        seeds = [twisted_conjugates("A3")[1]]
        assert {d.twist % 2 for d in seeds[0].certificate().transversals} == {0, 1}
        assert flip_offsets(seeds[0]) - {0}
    else:
        seeds = [standard_transversals(s) for s in enumerate_maximal_standard(context(spec))[:3]]
    nodes = [m for seed in seeds for m in bfs(seed, radius).nodes.values()]

    def refuse(marking):
        raise AssertionError(f"a move validated {marking!r}")

    validate = marking_module.validate_marking
    monkeypatch.setattr(marking_module, "validate_marking", refuse)
    carried = [(m, m.certificate()) for node in nodes for m in moves_of(node)]
    monkeypatch.undo()
    for moved, cert in carried:
        assert cert == validate(Marking(moved.ctx, moved.pairs)), moved


if __name__ == "__main__":
    # the exact stabilizer against the probe oracle past the bounds of a
    # test run: for each type and bound b, the standard markings, their d,
    # whether stabilizer-probe prints the oracle's text and JSON bytes on
    # every one at every bound 0..b, and the seconds taken, e.g.
    #   PYTHONPATH=src python tests/test_marking.py A4 4 D4 4 A3 6
    import sys
    import time

    args = sys.argv[1:]
    for spec, bound in zip(args[::2], args[1::2]):
        start = time.perf_counter()
        markings = standard_markings(spec)
        ds = [marking_stabilizer(m) for m in markings]
        same = all(
            probe_matches_oracle(spec, m, b) for m in markings for b in range(int(bound) + 1)
        )
        print(f"{spec} b{bound}: {len(markings)} standard markings, d {ds},"
              f" probe bytes equal the oracle's: {same}, {time.perf_counter() - start:.2f} s")
