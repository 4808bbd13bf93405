import collections
import contextlib
import hashlib
import io
import itertools
import json
import random

import pytest

from artinmark.cli import run_command
from artinmark.coxeter import build_defining_graph, root_reflection_table
from artinmark.errors import BudgetExceeded, NotStandard, PreconditionViolated, UnknownFormat
from artinmark.garside import GarsideContext, context, normalize
from artinmark.graph import (
    all_standard_markings,
    bfs,
    export_graph,
    flip_path_bound,
    json_text,
    neighbors,
    standard_marking_connectivity,
)
from artinmark.marking import (
    Marking,
    enumerate_flip_moves,
    flip_candidates,
    flip_frame,
    is_flip_edge,
    is_twist_edge,
    marking_stabilizer,
    standard_transversals,
    standardize_marking,
    transversal_decomposition,
    twist_move,
)
from artinmark.parabolic import ParabolicSubgroup
from artinmark.simplex import CparabSimplex, enumerate_maximal_standard
from test_cli import golden_calls

from oracles import (
    all_standard,
    build_all_bfs,
    candidate_closure_bfs,
    conjugating_standardize_marking,
    delta_conjugation_stabilizer,
    joined_export,
    json_dumps_export,
    marking_stabilizer_probe,
    member_offsets,
    neighbors_closure_bfs,
    neighbors_universe_connectivity,
    orbit_representatives,
    projections,
    shared_flip_standardizer,
    verify_action_isometry,
)


def exported(graph, fmt):
    """The export's pieces joined and encoded, the bytes a bfs call writes."""
    return "".join(export_graph(graph, fmt)).encode()


def a2_seed():
    a2 = context("A2")
    simplex = CparabSimplex(a2, [ParabolicSubgroup.standard(a2, frozenset({0}))])
    return a2, standard_transversals(simplex)


def connected_proper_count(ctx):
    return len(
        [
            s
            for size in range(1, ctx.rank)
            for s in itertools.combinations(range(ctx.rank), size)
            if ctx.graph.is_connected(frozenset(s))
        ]
    )


def test_neighbors_a2_contains_flip_and_twists():
    a2, seed = a2_seed()
    found = neighbors(seed)
    kinds = [kind for _m, kind in found]
    assert kinds.count("twist") == 2
    flips = [m for m, kind in found if kind == "flip"]
    assert any(
        [sorted(p.gens) for p, _ in m.pairs] == [[1]] for m in flips
    )


def test_twist_degree_bound():
    for spec in ["A2", "A3", "B3"]:
        ctx = context(spec)
        for simplex in enumerate_maximal_standard(ctx)[:2]:
            marking = standard_transversals(simplex)
            found = neighbors(marking)
            twists = [m for m, kind in found if kind == "twist"]
            assert len(twists) <= 2 * len(marking.pairs)


def test_local_finiteness_bound():
    for spec in ["A2", "A3"]:
        ctx = context(spec)
        n_parabs = connected_proper_count(ctx)
        marking = standard_transversals(enumerate_maximal_standard(ctx)[0])
        d = len(marking.pairs)
        degree = len(neighbors(marking))
        assert degree <= 2 * d + d * n_parabs ** max(d - 1, 1)


def test_neighbors_equivariant_under_conjugation():
    random.seed(71)
    a2, seed = a2_seed()
    for _ in range(3):
        word = tuple(
            (random.randrange(2), random.choice([1, -1]))
            for _ in range(random.randrange(0, 3))
        )
        x = a2.from_word(word)
        direct = {m.conjugated_by(x).key() for m, _ in neighbors(seed)}
        moved = {m.key() for m, _ in neighbors(seed.conjugated_by(x))}
        assert direct == moved


def test_bfs_radius_zero_and_monotone():
    _a2, seed = a2_seed()
    ball0 = bfs(seed, 0)
    assert list(ball0.nodes) == [seed.key()]
    ball1 = bfs(seed, 1)
    ball2 = bfs(seed, 2)
    assert set(ball1.nodes) <= set(ball2.nodes)
    assert ball2.radius[seed.key()] == 0
    assert all(r <= 2 for r in ball2.radius.values())


def test_bfs_idempotent_and_deterministic():
    _a2, seed = a2_seed()
    first = exported(bfs(seed, 2), "json")
    second = exported(bfs(seed, 2), "json")
    assert first == second


@pytest.mark.parametrize("value", [
    [],
    {},
    {"levels": [[0, 2], [1]], "valid": True},
    -7,
    [True, False, None],
    {"b": [], "a": {}, "c": 'quote " backslash \\ non-ascii \u00e9\u2603 \n'},
    [[{"z": 0, "y": [1, -1]}], "DELTA^-1 | s1 s2"],
])
def test_json_text_matches_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_export_of_a_marking_with_no_pairs_matches_json_dumps():
    # the empty A1 marking certifies, and its ball is the one node, with
    # "pairs": [] and "edges": []
    ball = bfs(Marking(context("A1"), []), 1)
    assert exported(ball, "json") == json_dumps_export(ball) == joined_export(ball, "json")
    assert b'"pairs": []' in exported(ball, "json")


def test_export_formats():
    _a2, seed = a2_seed()
    ball = bfs(seed, 0)
    dot = exported(ball, "dot").decode()
    assert dot.startswith("graph markings {") and dot.count('";') == 1
    payload = exported(ball, "json")
    assert b'"nodes"' in payload
    with pytest.raises(UnknownFormat):
        export_graph(ball, "gml")


@pytest.mark.parametrize("spec, radius, fmt", [
    ("A3", 2, "json"), ("A3", 0, "json"), ("A3", 3, "dot"), ("B3", 2, "dot"),
])
def test_streamed_export_matches_the_joined_renderer(spec, radius, fmt):
    # the pieces, joined, are byte for byte the whole-text renderer's output
    # and, for JSON, json.dumps of the payload; at radius 0 the edge list is []
    ball = bfs(all_standard_markings(context(spec))[0], radius)
    pieces = export_graph(ball, fmt)
    assert iter(pieces) is pieces
    streamed = "".join(pieces).encode()
    assert streamed == joined_export(ball, fmt)
    if fmt == "json":
        assert streamed == json_dumps_export(ball)
        assert (b'"edges": [],' in streamed) == (radius == 0)


def test_verify_action_isometry_central_trivial():
    a2, seed = a2_seed()
    twisted = twist_move(seed, 0)
    assert verify_action_isometry((seed, twisted, "twist"), a2.delta**2)


def test_verify_action_isometry_randomized_a2():
    random.seed(73)
    a2, seed = a2_seed()
    edges = [(seed, m, kind) for m, kind in neighbors(seed)]
    for _ in range(40):
        edge = random.choice(edges)
        word = tuple(
            (random.randrange(2), random.choice([1, -1]))
            for _ in range(random.randrange(0, 4))
        )
        assert verify_action_isometry(edge, a2.from_word(word))


def test_all_standard_markings_counts():
    counts = {"A2": 2, "I2(7)": 2, "A3": 5, "A4": 14, "B4": 14, "D4": 16, "F4": 14}
    for spec, count in counts.items():
        assert len(all_standard_markings(context(spec))) == count


def test_flip_path_bound_values():
    assert flip_path_bound(2) == 1
    assert flip_path_bound(3) == max(2 * 1 + 13, 3 + 1 + 7)


def test_connectivity_i2():
    for spec in ["I2(5)", "I2(6)"]:
        report = standard_marking_connectivity(context(spec))
        assert report.connected
        assert report.standard_count == 2
        assert report.diameter == 1
        assert report.diameter <= report.bound


@pytest.mark.slow
def test_connectivity_a3():
    report = standard_marking_connectivity(context("A3"))
    assert report.connected
    assert report.standard_count == 5
    assert report.diameter <= report.bound


def test_connectivity_node_cap_boundary():
    # the A3 universe has exactly 125 nodes: a cap of 125 holds them all,
    # a cap of 124 stops at the 125th with a typed error
    a3 = context("A3")
    assert standard_marking_connectivity(a3, node_cap=125).node_count == 125
    with pytest.raises(BudgetExceeded) as info:
        standard_marking_connectivity(a3, node_cap=124)
    assert (info.value.count, info.value.cap) == (125, 124)


def test_connectivity_node_cap_counts_the_standard_markings():
    # the 5 standard markings of A3 are nodes before any search: at bound 0
    # a cap of 4 is exceeded by them alone, a cap of 5 holds the whole report
    a3 = context("A3")
    with pytest.raises(BudgetExceeded) as info:
        standard_marking_connectivity(a3, projection_bound=0, node_cap=4)
    assert (info.value.count, info.value.cap) == (5, 4)
    report = standard_marking_connectivity(a3, projection_bound=0, node_cap=5)
    assert report.node_count == 5


def test_connectivity_rejects_negative_projection_bound():
    with pytest.raises(PreconditionViolated):
        standard_marking_connectivity(context("A2"), projection_bound=-1)


def test_connectivity_rejects_negative_node_cap():
    with pytest.raises(PreconditionViolated):
        standard_marking_connectivity(context("A2"), node_cap=-5)


def test_bfs_rejects_negative_radius():
    _a2, seed = a2_seed()
    with pytest.raises(PreconditionViolated):
        bfs(seed, -1)


def test_orbit_covering_a2():
    a2, seed = a2_seed()
    standard_keys = {m.key() for m in all_standard_markings(a2)}
    reps = orbit_representatives(a2, seed, 2)
    assert set(reps.values()) <= standard_keys


def test_orbit_covering_i2():
    for spec in ["I2(5)", "I2(6)"]:
        ctx = context(spec)
        simplex = CparabSimplex(
            ctx, [ParabolicSubgroup.standard(ctx, frozenset({0}))]
        )
        seed = standard_transversals(simplex)
        standard_keys = {m.key() for m in all_standard_markings(ctx)}
        reps = orbit_representatives(ctx, seed, 2)
        assert set(reps.values()) <= standard_keys


def test_stabilizers_of_explored_nodes_conjugate_delta_powers():
    # every explored node is conjugate to a standard marking, so its
    # stabilizer is the corresponding conjugate of the Delta powers found
    # by the probe oracle, and those are the powers of Delta^d
    from artinmark.marking import marking_stabilizer, standardize_marking

    a2, seed = a2_seed()
    ball = bfs(seed, 2)
    for key in sorted(ball.nodes)[:6]:
        node = ball.nodes[key]
        conj, standard = standardize_marking(node)
        hits = marking_stabilizer_probe(standard, 3)
        assert all(h.canonical_length == 0 for h in hits)
        assert {h.inf % marking_stabilizer(standard) for h in hits} == {0}
        for h in hits:
            moved = node.conjugated_by(conj * h * conj.inverse())
            assert moved == node


def test_neighbor_sets_equivariant_a3_b3():
    import random as rnd

    from artinmark.marking import twist_move

    rnd.seed(9)
    for spec in ["A3", "B3"]:
        ctx = context(spec)
        marking = twist_move(
            standard_transversals(enumerate_maximal_standard(ctx)[2]), 0
        )
        for _ in range(2):
            word = tuple(
                (rnd.randrange(ctx.rank), rnd.choice([1, -1])) for _ in range(2)
            )
            x = ctx.from_word(word)
            direct = sorted(
                n.conjugated_by(x).key() for n, _ in neighbors(marking)
            )
            moved = sorted(
                n.key() for n, _ in neighbors(marking.conjugated_by(x))
            )
            assert direct == moved, spec


@pytest.mark.slow
def test_connectivity_b3():
    report = standard_marking_connectivity(context("B3"))
    assert report.connected
    assert report.standard_count == 5
    assert report.diameter <= report.bound


# -- the pruned searches against the neighbors oracles ---------------------------


# balls too large to take from every seed at every radius: the first seed,
# at the given radius only
ONE_SEED_BALLS = {("A3", 3), ("A4", 2), ("D4", 2)}


@pytest.mark.parametrize("spec, max_radius", [
    ("A2", 3), ("I2(5)", 3), ("A3", 2), ("B3", 2), ("H3", 1), ("D4", 1), ("A4", 1),
    ("A3", 3), ("A4", 2), ("D4", 2),
])
def test_bfs_matches_neighbors_closure_oracle(spec, max_radius):
    # every standard-transversal seed, and the first one conjugated by a
    # non-positive element, at every radius up to the maximum, against the
    # full-neighbor closure and the candidate-key closure
    ctx = context(spec)
    seeds = [standard_transversals(s) for s in enumerate_maximal_standard(ctx)]
    seeds.append(seeds[0].conjugated_by(normalize(ctx, "s2^-1 s1")))
    radii = range(max_radius + 1)
    if (spec, max_radius) in ONE_SEED_BALLS:
        seeds, radii = seeds[:1], [max_radius]
    for seed in seeds:
        for radius in radii:
            ours = bfs(seed, radius)
            assert exported(ours, "json") == json_dumps_export(ours), (seed, radius)
            for oracle in (neighbors_closure_bfs, candidate_closure_bfs):
                theirs = oracle(seed, radius)
                for fmt in ("json", "dot"):
                    assert exported(ours, fmt) == exported(theirs, fmt), (
                        oracle.__name__, seed, radius,
                    )


@pytest.mark.parametrize("spec", ["A2", "A3", "B3", "H3", "I2(5)"])
def test_connectivity_matches_neighbors_universe_oracle(spec):
    ctx = context(spec)
    assert standard_marking_connectivity(ctx) == neighbors_universe_connectivity(ctx)


def test_bfs_certifies_every_node(monkeypatch):
    # twist neighbors are never certified when they are found, and the
    # boundary nodes are never expanded; the boundary closure reads every
    # boundary node's coordinates off its certificate, so it certifies them
    certified = set()
    certificate = Marking.certificate

    def spy(self):
        cert = certificate(self)
        certified.add(id(self))
        return cert

    monkeypatch.setattr(Marking, "certificate", spy)
    for spec in ["A2", "A3"]:
        ctx = context(spec)
        for simplex in enumerate_maximal_standard(ctx)[:2]:
            ball = bfs(standard_transversals(simplex), 2)
            assert all(id(node) in certified for node in ball.nodes.values())


# -- the boundary closure's argument ---------------------------------------------


@pytest.mark.parametrize("spec, radius", [("A3", 2), ("B3", 1)])
def test_edge_predicates_symmetric_on_bfs_balls(spec, radius):
    # the closure adds an edge from one end only, which is sound because
    # every move is a move back from the other end
    ctx = context(spec)
    predicate = {"twist": is_twist_edge, "flip": is_flip_edge}
    for simplex in enumerate_maximal_standard(ctx):
        ball = bfs(standard_transversals(simplex), radius)
        for a, b, kind in sorted(ball.edges):
            a, b = ball.nodes[a], ball.nodes[b]
            assert predicate[kind](a, b) and predicate[kind](b, a), (a, b, kind)


def test_bfs_builds_no_move_from_a_boundary_node(monkeypatch):
    # the boundary closure works on coordinates and frame offsets: it builds
    # no node, and calls neither twist_move nor frame_flip on a boundary
    # node; it may build a boundary pair's flip frame, and with it the
    # frame's middle candidate, which is not a node
    import artinmark.graph as graph_module

    moved = []

    def spying(name, module):
        real = getattr(module, name)

        def spy(marking, *args):
            moved.append((name, marking.key()))
            return real(marking, *args)

        monkeypatch.setattr(module, name, spy)

    spying("twist_move", graph_module)
    spying("frame_flip", graph_module)
    for spec, radius in [("A3", 2), ("B3", 1)]:
        ctx = context(spec)
        for simplex in enumerate_maximal_standard(ctx)[:2]:
            moved.clear()
            ball = bfs(standard_transversals(simplex), radius)
            boundary = {key for key, r in ball.radius.items() if r == radius}
            assert {name for name, _key in moved} == {"twist_move", "frame_flip"}
            assert not [(name, key) for name, key in moved if key in boundary]


@pytest.mark.parametrize("spec, radius", [("A3", 2), ("B3", 2), ("A4", 1)])
def test_flip_offsets_are_shared_by_every_marking_of_a_flip_frame(spec, radius):
    # the closure decides a flip of a across j by twists relative to h =
    # ghat Delta_{X_j}^{k_j}, read as certified twist minus an offset that
    # one bucket member fixes (oracles.member_offsets); every member of
    # every nonempty bucket, each decomposed against h, has the same offset
    # at every base
    ctx = context(spec)
    frames = 0
    for seed in all_standard_markings(ctx):
        ball = bfs(seed, radius)
        holding = {}
        for node in ball.nodes.values():
            base = frozenset(p.key() for p, _q in node.pairs)
            for p, q in node.pairs:
                holding.setdefault((base, p.key(), q.key()), []).append(node)
        for a in ball.nodes.values():
            base = frozenset(p.key() for p, _q in a.pairs)
            for j, (p_j, q_j) in enumerate(a.pairs):
                flipped = base - {p_j.key()} | {q_j.key()}
                bucket = holding.get((flipped, q_j.key(), p_j.key()), [])
                if not bucket:
                    continue
                frames += 1
                h = shared_flip_standardizer(a, j)
                offsets = {
                    (b.key(), p.key()): d.twist - transversal_decomposition(b, i, h).twist
                    for b in bucket
                    for i, ((p, _q), d) in enumerate(zip(b.pairs, b.certificate().transversals))
                    if p.key() != q_j.key()
                }
                shared = member_offsets(a, j, bucket[0])
                assert {(bk, pk): shared[pk] for bk, pk in offsets} == offsets, (a, j)
    assert frames


# -- the expansion by coordinates ------------------------------------------------


class RecordingFrames(dict):
    """A flip frame memo that lists, in order, the key of every frame stored
    in it (marking.flip_frame stores a frame when it builds it, on a miss)
    and the key of every read by get or [], hit or miss."""

    def __init__(self):
        super().__init__()
        self.stored = []
        self.read = []

    def __setitem__(self, key, frame):
        self.stored.append(key)
        super().__setitem__(key, frame)

    def get(self, key, default=None):
        self.read.append(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)

    def clear(self):
        super().clear()
        self.stored.clear()
        self.read.clear()


def spy_built_markings(monkeypatch, ctx) -> tuple[list[Marking], list[tuple]]:
    """Record every Marking built, and the key (base key set, P_j key, Q_j
    key) of every flip frame built, as the keys stored in the context's
    memo, which starts empty."""
    built = []
    memo = RecordingFrames()
    init = Marking.__init__

    def spy_init(self, ctx, pairs):
        init(self, ctx, pairs)
        built.append(self)

    monkeypatch.setattr(ctx, "flip_frames", memo)
    monkeypatch.setattr(Marking, "__init__", spy_init)
    return built, memo.stored


@pytest.mark.parametrize("spec", ["A3", "B3"])
def test_bfs_builds_one_marking_per_node_and_each_frame_once(monkeypatch, spec):
    # every neighbor is looked up by its coordinates before it is built, so
    # a node found again costs no Marking, and a flip frame is built once per
    # context, for every node and twist variant that meets it, and builds no
    # Marking; the memo is cleared before each call, so every frame the call
    # needs is built, and every Marking the call constructs is a node
    ctx = context(spec)
    seeds = all_standard_markings(ctx)
    built, frames = spy_built_markings(monkeypatch, ctx)
    for seed in seeds:
        built.clear()
        ctx.flip_frames.clear()
        ball = bfs(seed, 2)
        assert len(built) == len(ball.nodes) - 1
        assert all(ball.nodes[m.key()] is m for m in built)
        assert frames and len(set(frames)) == len(frames)


@pytest.mark.parametrize("spec", ["A3", "B3"])
def test_bfs_closure_finds_offsets_only_for_frames_it_did_not_build(monkeypatch, spec):
    # the closure decides a pair of buckets by the frame of either side: the
    # side whose frame is already built, else it builds one; so it builds
    # a frame only when neither side's was built before it (the memo is
    # cleared before each call)
    import artinmark.graph as graph_module

    ctx = context(spec)
    _built, frames = spy_built_markings(monkeypatch, ctx)
    close = graph_module._close_boundary
    start = []

    def spy_close(*args):
        start.append(len(frames))
        return close(*args)

    monkeypatch.setattr(graph_module, "_close_boundary", spy_close)
    closed = 0
    for seed in all_standard_markings(ctx):
        ctx.flip_frames.clear()
        start.clear()
        bfs(seed, 2)
        for at in range(start[0], len(frames)):
            base, p_key, q_key = frames[at]
            back = (base - {p_key} | {q_key}, q_key, p_key)
            assert not {frames[at], back} & set(frames[:at]), frames[at]
            closed += 1
    assert closed


@pytest.mark.parametrize("spec", ["A3", "B3"])
def test_bfs_closure_reads_one_frame_per_bucket_pair(monkeypatch, spec):
    # every boundary flip edge joins the bucket (S, P, Q) of one end to its
    # partner (S - P + Q, Q, P), and the frame of either side decides the
    # pair, so the closure reads the frame memo once per unordered pair of
    # buckets (the memo is cleared before each call)
    import artinmark.graph as graph_module

    ctx = context(spec)
    memo = RecordingFrames()
    monkeypatch.setattr(ctx, "flip_frames", memo)
    close = graph_module._close_boundary
    start = []

    def spy_close(*args):
        start.append(len(memo.read))
        return close(*args)

    monkeypatch.setattr(graph_module, "_close_boundary", spy_close)
    pairs = 0
    for seed in all_standard_markings(ctx):
        memo.clear()
        start.clear()
        bfs(seed, 2)
        read = [
            frozenset({(base, p_key, q_key), (base - {p_key} | {q_key}, q_key, p_key)})
            for base, p_key, q_key in memo.read[start[0]:]
        ]
        assert len(set(read)) == len(read), seed
        pairs += len(read)
    assert pairs


@pytest.mark.parametrize("spec", ["A3", "B3"])
def test_bfs_builds_each_frame_candidate_once(monkeypatch, spec):
    # a flip frame builds its candidate transversal at a base and a twist
    # once (FlipFrame.transversal), for its middle candidate and for every
    # flip built through it; the frame memo is cleared before each call, so
    # the call builds every frame it needs
    import artinmark.marking as marking_module

    candidate = marking_module._candidate
    built, recipes = [], []

    def spy(h, recipe, t):
        recipes.append(recipe)  # kept alive, so no id is reused
        built.append((id(recipe), t))
        return candidate(h, recipe, t)

    monkeypatch.setattr(marking_module, "_candidate", spy)
    ctx = context(spec)
    for seed in all_standard_markings(ctx):
        built.clear()
        ctx.flip_frames.clear()
        bfs(seed, 2)
        assert built and len(set(built)) == len(built), seed


@pytest.mark.parametrize("spec", ["A3", "B3"])
def test_connectivity_builds_no_marking_whose_coordinates_are_a_node(monkeypatch, spec):
    # a marking of the bounded subgraph is built once, as a standard marking
    # or when it is first reached; a neighbor outside the subgraph is built
    # and tested, and is never a node
    ctx = context(spec)
    built, frames = spy_built_markings(monkeypatch, ctx)
    ctx.flip_frames.clear()
    report = standard_marking_connectivity(ctx)

    def inside(m):
        return all(p.canonical()[0].is_identity for p, _q in m.pairs) and all(
            abs(v) <= 2 for v in projections(m)
        )

    kept = [m.key() for m in built if inside(m)]
    assert len(kept) == len(set(kept)) == report.node_count
    assert frames and len(set(frames)) == len(frames)


def fresh_context(spec) -> GarsideContext:
    """A context of its own, with empty memos."""
    return GarsideContext(build_defining_graph(spec), root_reflection_table(spec))


@pytest.mark.parametrize("spec", ["A3", "B3"])
def test_connectivity_decomposes_only_to_validate_and_to_build_frames(monkeypatch, spec):
    # the universe and the flip indices are read off certified coordinates,
    # so on a fresh context every transversal decomposition, memo hits
    # included, certifies a standard marking (validate_marking) or builds a
    # flip frame (flip_frame): 10 and 20 on A3 and on B3
    import sys

    import artinmark.marking as marking_module

    decompose = marking_module.decompose_transversal
    sources = collections.Counter()

    def spy(*args):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        sources[frozenset(names & {"validate_marking", "flip_frame"})] += 1
        return decompose(*args)

    monkeypatch.setattr(marking_module, "decompose_transversal", spy)
    standard_marking_connectivity(fresh_context(spec))
    assert sources == {frozenset({"validate_marking"}): 10, frozenset({"flip_frame"}): 20}


def check_standard_forms(markings) -> collections.Counter:
    """Standard forms read off canonical standardizers and certificates,
    against the oracles that read canonical forms: standard_transversals
    accepts a base simplex, and marking_stabilizer a marking, exactly when
    all_standard finds every subgroup standard, in both directions; the
    stabilizer is the one a conjugation by Delta finds; and
    standardize_marking returns the conjugating standardization, to the
    representation.  Counts the (base standard, marking standard) cases."""
    cases = collections.Counter()
    for marking in markings:
        simplex = marking.base_simplex()
        try:
            standard_transversals(simplex)
            base = True
        except NotStandard:
            base = False
        assert base == all_standard(simplex.vertices), marking
        try:
            d = marking_stabilizer(marking)
        except NotStandard:
            d = None
        assert (d is not None) == all_standard(itertools.chain(*marking.pairs)), marking
        assert d is None or d == delta_conjugation_stabilizer(marking), marking
        conj, standard = standardize_marking(marking)
        conj_o, standard_o = conjugating_standardize_marking(marking)
        assert conj == conj_o and standard.to_json() == standard_o.to_json(), marking
        cases[base, d is not None] += 1
    return cases


@pytest.mark.parametrize(
    "spec, radius", [("A3", 2), ("B3", 2), ("H3", 1), ("A4", 1), ("D4", 1), ("I2(5)", 3)]
)
def test_transversal_is_standard_exactly_when_its_certified_twist_is_zero(spec, radius):
    # the rule by which std-connectivity picks its flip indices: on a node
    # with a standard base (ghat = 1), Q_j is standard exactly when its
    # certified twist k_j is 0; every standard-base node of the balls around
    # every standard marking, where both cases occur.  Every node of those
    # balls also has the standard forms the canonical-form oracles find
    # (check_standard_forms): standard markings and standard bases under
    # other transversals occur on every type, and bases that are not
    # standard at radius 2 and beyond (a radius-1 flip keeps the base
    # standard, as it flips across a standard Q_j)
    ctx = context(spec)
    seen = collections.Counter()
    nodes = {}
    for seed in all_standard_markings(ctx):
        ball = bfs(seed, radius).nodes
        nodes.update(ball)
        for node in ball.values():
            if all(p.canonical()[0].is_identity for p, _q in node.pairs):
                for (_p, q), d in zip(node.pairs, node.certificate().transversals):
                    standard = q.canonical()[0].is_identity
                    assert standard == (d.twist == 0), (node, q)
                    seen[standard] += 1
    assert seen[True] and seen[False]
    cases = check_standard_forms(nodes.values())
    expected = {(True, True), (True, False), (False, False)}
    assert set(cases) == (expected if radius > 1 else expected - {(False, False)})


@pytest.mark.parametrize("spec", ["A3", "B3", "D4"])
def test_standard_forms_match_canonical_forms_on_golden_markings(spec):
    # the conjugated markings of the golden CLI transcript, read back from
    # their validate-marking payloads: none is standard, and each standardizes
    # as the conjugating oracle does
    ctx = context(spec)
    markings = [
        Marking.from_json(ctx, json.loads(argv[-1]))
        for label, argv in golden_calls()
        if label.startswith(f"{spec} marking ") and label.endswith(" validate-marking")
    ]
    assert len(markings) == len(enumerate_maximal_standard(ctx))
    assert check_standard_forms(markings) == {(False, False): len(markings)}


def test_flip_frames_are_built_once_per_context_across_calls():
    # A3 std-connectivity and then every A3 r2 bfs on one context build no
    # frame key twice: a frame is kept in the context's memo when it is
    # built, and every later call reads it, so a second bfs of a seed
    # builds no frame
    ctx = fresh_context("A3")
    ctx.flip_frames = RecordingFrames()
    standard_marking_connectivity(ctx)
    assert ctx.flip_frames.stored
    seeds = all_standard_markings(ctx)
    for seed in seeds:
        bfs(seed, 2)
    stored = list(ctx.flip_frames.stored)
    assert len(set(stored)) == len(stored)
    for seed in seeds:
        bfs(seed, 2)
        assert ctx.flip_frames.stored == stored, seed


@pytest.mark.parametrize("spec", ["A3", "B3"])
def test_warm_flip_frames_give_the_outputs_of_a_fresh_context(spec):
    # a frame is a function of its key, so a ball and the flips of a seed
    # read off frames that earlier calls built are those of a fresh
    # context: the warm context has run std-connectivity and the balls of
    # the seeds before
    warm = fresh_context(spec)
    standard_marking_connectivity(warm)
    for i, seed in enumerate(all_standard_markings(warm)):
        ball = exported(bfs(seed, 2), "json")
        assert ball == exported(bfs(all_standard_markings(fresh_context(spec))[i], 2), "json")
        cold = all_standard_markings(fresh_context(spec))[i]
        for j in range(len(seed)):
            ours, theirs = enumerate_flip_moves(seed, j), enumerate_flip_moves(cold, j)
            assert [m.to_json() for m in ours] == [m.to_json() for m in theirs], (seed, j)
            assert [frozenset(m.coordinates()) for m in ours] == [
                frozenset(m.coordinates()) for m in theirs
            ], (seed, j)


@pytest.mark.parametrize("spec", ["A3", "B3", "D5"])
def test_bfs_matches_build_all_oracle(spec):
    # nodes (with the pairs of the Marking that reached each first), radii
    # and edges equal those of the search that builds every neighbor in full
    # and closes the boundary pair by pair: every seed of A3 and B3, and the
    # first seed of D5
    seeds = all_standard_markings(context(spec))
    if spec == "D5":
        seeds = seeds[:1]
    for seed in seeds:
        ours, theirs = bfs(seed, 2), build_all_bfs(seed, 2)
        assert ours.radius == theirs.radius, seed
        assert ours.edges == theirs.edges, seed
        assert exported(ours, "json") == exported(theirs, "json"), seed


@pytest.mark.parametrize("spec, radius", [("A3", 2), ("B3", 2), ("H3", 1), ("A4", 1), ("D4", 1)])
def test_flip_frame_offsets_are_one_set_per_frame_and_negated_by_its_reverse(spec, radius):
    # a frame's offsets read off its middle candidate equal those read off
    # any member of its bucket, and the frame of the flips back, built from
    # a flip, has the negated offsets.  The bfs closure reads one frame per
    # pair of buckets and negates none, but the fact holds: with (B, Q_j,
    # P_j) the frame of the flips back, h' its shared standardizer, S the
    # base set of a and f(g) the twist of a transversal at P_i relative to
    # a standardizer g of P_i, the offsets are f(ghat_B) - f(h) and
    # f(ghat_S) - f(h').  Relative to h a marking with base S keeps its
    # certified twists, so f(h) = f(ghat_S) for every transversal at P_i,
    # twist differences against a shared standardizer not depending on
    # which one is used; likewise f(h') = f(ghat_B)
    ctx = context(spec)
    checked = 0
    for seed in all_standard_markings(ctx)[:2]:
        for a in bfs(seed, radius).nodes.values():
            for j in range(len(a)):
                frame = flip_frame(a, j)
                back = flip_candidates(a, j)
                assert member_offsets(a, j, back[-1]) == frame.offsets
                assert flip_frame(back[0], j).offsets == {
                    b: -c for b, c in frame.offsets.items()
                }, (a, j)
                checked += 1
    assert checked


@pytest.mark.parametrize("spec", ["A3", "B3", "H3", "I2(5)"])
def test_connectivity_distances_are_marking_graph_distances(spec):
    # a path inside the bounded subgraph is a path of the marking graph, so
    # the report's distance is never shorter than the graph distance; a bfs
    # ball of radius the diameter from each standard marking holds every
    # other one and gives their graph distance exactly
    ctx = context(spec)
    report = standard_marking_connectivity(ctx)
    standard = all_standard_markings(ctx)
    for source in standard:
        ball = bfs(source, report.diameter)
        for target in standard:
            pair = (source.key(), target.key())
            assert ball.radius.get(target.key()) == report.distances[pair], (spec, pair)


def test_moves_validate_only_the_markings_read_from_outside(monkeypatch):
    # a bfs validates its JSON seed and nothing else; std-connectivity
    # validates each standard marking once: every other node is certified
    # by the move that reached it
    import artinmark.marking as marking_module

    validate = marking_module.validate_marking
    calls = []

    def spy(marking):
        calls.append(marking.key())
        return validate(marking)

    monkeypatch.setattr(marking_module, "validate_marking", spy)
    a3 = GarsideContext(build_defining_graph("A3"), root_reflection_table("A3"))
    payload = json.dumps(standard_transversals(enumerate_maximal_standard(a3)[0]).to_json())
    seed = Marking.from_json(a3, json.loads(payload))
    ball = bfs(seed, 2)
    assert len(ball.nodes) > 1 and calls == [seed.key()]
    calls.clear()
    b3 = GarsideContext(build_defining_graph("B3"), root_reflection_table("B3"))
    standard_marking_connectivity(b3)
    assert sorted(calls) == [m.key() for m in all_standard_markings(b3)]
    assert len(calls) == 5


# the DOT sha256 of the bfs ball of the first standard marking of a type, by
# (type, radius); E6 r2 takes seconds, so only the __main__ block checks it
BALL_DOT_SHA256 = {
    ("A3", 3): "26b9a32b6f56afb5ad5d83bb6f6b358ef8a79fa563cd3324a5ed1f744f92e8bb",
    ("B3", 3): "269ec78c21698c3f39eed0b0f6ec0e5f0e40bbfe7bf3199dfd8d0145af92be78",
    ("H3", 2): "374a51e47e80cdb4d94adbba204c2f8c43372f1dd3b0a3ce8fe729f1d2f5d0c5",
    ("A4", 2): "0fe4ef65d6db6523ab569f7d8251fd5c6712210a53815a61aac7126005dc7984",
    ("D4", 2): "c5d434c2af5fd22d10307ec827f217e104040992f9404b704e0391635d3c2762",
    ("F4", 2): "ece12c88dd65081296c63995702123316f038e9c669adb85d049c52cc5ce6342",
    ("D5", 2): "d4aab3482811f6a24a0712ab52269da6ee9e0264b837653a0eb7d556b8ee3948",
    ("A5", 2): "8200d84639bc9bd48617c3b5240a77a3eb92ba298dd49330295f1174eb0e0a91",
}
SLOW_BALL_DOT_SHA256 = {
    ("E6", 2): "8891c6c253f0c88ffdaf157412889d70e654346d2399845cd49af4dd305aa237",
}


def dot_sha256(graph) -> str:
    """The sha256 of the DOT export, hashed piece by piece as it streams."""
    digest = hashlib.sha256()
    for piece in export_graph(graph, "dot"):
        digest.update(piece.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("spec, radius", list(BALL_DOT_SHA256))
def test_first_seed_ball_dot_hashes_hold(spec, radius):
    ball = bfs(all_standard_markings(context(spec))[0], radius)
    assert dot_sha256(ball) == BALL_DOT_SHA256[spec, radius]


# sha256 of the stdout of artinmark --type <type> --format json std-connectivity
CONNECTIVITY_JSON_SHA256 = {
    "A3": "33aa0bf9905c84443445aeb7429464dfe16687956cd4c0076de8c49b2897979e",
    "B3": "f72964118d8f5a2c5d5ac140a7deec0d76dff883d16eda56e706f352302bcc81",
    "A4": "38592f093fc115a20c1126d1829b0f3b0f7b433d1f141bcc09e87583b2a89a94",
    "D4": "cf581e8025522c6b60b9bf81d88f993a6c2dd735406416a65925262dabd47d31",
    "B4": "d2edf0d3b3deb15d3108818fd9794ab83fb8834d35b032d51a2761cb71014cc3",
    "F4": "fce45669bb23fb4235d8b968fb6a0671a93073e4ddf8e0a86b9e35697e8c03ef",
    "H4": "7f3c90298aeece1cfd469da3cbfaf0d34d083517592aa0def1cd2846cbea341b",
    "I2(5)": "d6a5992d99a35cb401d600a8cf93dca58d59615e22a25237da1b355260da927b",
}


def connectivity_json(spec) -> str:
    """The stdout of the CLI's std-connectivity --format json, run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(["--type", spec, "--format", "json", "std-connectivity"])
    if code != 0:
        raise AssertionError(f"{spec} std-connectivity exited {code}")
    return out.getvalue()


@pytest.mark.parametrize("spec", list(CONNECTIVITY_JSON_SHA256))
def test_std_connectivity_json_hashes_hold(spec):
    digest = hashlib.sha256(connectivity_json(spec).encode()).hexdigest()
    assert digest == CONNECTIVITY_JSON_SHA256[spec]


if __name__ == "__main__":
    # with no arguments, std-connectivity on every type of
    # CONNECTIVITY_JSON_SHA256, each on the context it is the first call on:
    # seconds, nodes, transversal decompositions (memo hits included) and
    # the JSON sha256.  Then the balls of BALL_DOT_SHA256 and
    # SLOW_BALL_DOT_SHA256, or the ones named on the command line, seeded
    # from the first standard marking: nodes, edges, the markings built by
    # the search (every Marking constructed during the bfs call), the flip
    # frames the call added to the context's memo, seconds, the seconds of
    # those spent closing the boundary (graph._close_boundary), the DOT
    # sha256 and the process's peak RSS so far.  Exits 1 when a pinned hash
    # does not hold.
    #   PYTHONPATH=src python tests/test_graph.py
    #   PYTHONPATH=src python tests/test_graph.py D5 2 A5 2 E6 2
    import resource
    import sys
    import time

    import artinmark.graph as graph_module
    import artinmark.marking as marking_module

    built = [0]
    init = Marking.__init__
    closing = [0.0]
    close = graph_module._close_boundary
    decompositions = [0]
    decompose = marking_module.decompose_transversal

    def counted(self, ctx, pairs):
        built[0] += 1
        init(self, ctx, pairs)

    def timed_close(*args):
        start = time.perf_counter()
        close(*args)
        closing[0] = time.perf_counter() - start

    def counted_decompose(*args):
        decompositions[0] += 1
        return decompose(*args)

    def check(expected, digest) -> str:
        if expected is None:
            return ""
        if expected != digest:
            mismatched.append(digest)
            return " MISMATCH"
        return " (pinned)"

    mismatched = []
    args = sys.argv[1:]
    if not args:
        marking_module.decompose_transversal = counted_decompose
        for spec, expected in CONNECTIVITY_JSON_SHA256.items():
            decompositions[0] = 0
            start = time.perf_counter()
            text = connectivity_json(spec)
            seconds = time.perf_counter() - start
            digest = hashlib.sha256(text.encode()).hexdigest()
            print(f"{spec} std-connectivity: {json.loads(text)['nodes']} nodes,"
                  f" {decompositions[0]} decompositions, {seconds:.2f} s,"
                  f" json sha256 {digest[:12]}{check(expected, digest)}")
        marking_module.decompose_transversal = decompose
    pinned = {**BALL_DOT_SHA256, **SLOW_BALL_DOT_SHA256}
    balls = list(zip(args[::2], map(int, args[1::2]))) if args else list(pinned)
    for spec, radius in balls:
        ctx = context(spec)
        seed = all_standard_markings(ctx)[0]
        frames = len(ctx.flip_frames)
        built[0] = 0
        Marking.__init__ = counted
        graph_module._close_boundary = timed_close
        start = time.perf_counter()
        ball = bfs(seed, radius)
        seconds = time.perf_counter() - start
        Marking.__init__ = init
        graph_module._close_boundary = close
        digest = dot_sha256(ball)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{spec} r{radius}: {len(ball.nodes)} nodes, {len(ball.edges)} edges,"
              f" {built[0]} markings built, {len(ctx.flip_frames) - frames} frames added,"
              f" {seconds:.2f} s ({closing[0]:.2f} s closing the boundary),"
              f" dot sha256 {digest[:12]}{check(pinned.get((spec, radius)), digest)},"
              f" peak rss {peak_mb:.0f} MB")
    sys.exit(1 if mismatched else 0)
