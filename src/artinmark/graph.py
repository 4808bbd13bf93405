"""Local exploration of the marking graph.

Nodes are markings identified by their canonical keys; edges carry a kind,
twist or flip.  Neighbor computation takes both twist directions at every
index and all flips, each certified by its move; breadth-first search is
deterministic (keys sorted at every frontier expansion), so repeated runs
produce identical graphs and identical exports.  A certified marking is its
coordinates, and the coordinates of every neighbor are read off the
marking's certificate and the flip frame of its index (see bfs): the
searches build a Marking only for coordinates that are not a node yet, and
the BFS closes the edges among the nodes at its radius building no node and
no move from one.

standard_marking_connectivity builds the finite subgraph of markings with
standard base and certified twists in [-bound, bound], checks that the
all-standard markings form a single connected cluster inside it, and reports
the largest pairwise distance together with the instantiated bound of the
flip-path recursion k(2) = 1, k(n) = max(2k(n-1) + 13, n + k(n-1) + 7).  It
reads certificates only: membership is a test on the coordinates the
expansion yields, and flips are taken across the j whose certified twist is
0, the j with Q_j standard; no transversal is decomposed outside validation
and flip frames.
"""

from __future__ import annotations

import itertools
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterator, NamedTuple

from .errors import BudgetExceeded, PreconditionViolated, UnknownFormat
from .garside import GarsideContext
from .marking import (
    Coordinates,
    FrameKey,
    Marking,
    flip_frame,
    frame_flip,
    frame_flips,
    standard_transversals,
    twist_move,
)
from .parabolic import z_exponent
from .simplex import enumerate_maximal_standard


def neighbors(marking: Marking) -> list[tuple[Marking, str]]:
    """All twist and flip neighbors, deduplicated by key, sorted: an
    expansion against an empty index, so every neighbor is built."""
    found = {
        (key, kind): other
        for _coords, key, kind, other in _expand(marking, range(len(marking)), {})
    }
    return [(found[k], k[1]) for k in sorted(found)]


def _expand(
    node: Marking, flip_indices, index: dict[Coordinates, str]
) -> Iterator[tuple[Coordinates, str, str, Marking | None]]:
    """(coordinates, key, kind, marking) of the twist neighbors of node at
    every index and its flips across the given indices.  The node is
    certified first.

    A neighbor whose coordinates are in the index is that node, and comes
    with marking None; any other one is built, certified by its move.  The
    caller adds what it keeps to the index between two items.  A flip frame
    is built once per context (marking.flip_frame), and builds a candidate
    transversal once per base and twist.
    """
    cert = node.certificate()
    coords = node.coordinates()
    whole = frozenset(coords)
    for j, (p_key, twist, subset) in enumerate(coords):
        rest = whole - {coords[j]}
        step = z_exponent(node.ctx, cert.bases[j])
        for direction in (1, -1):
            moved = rest | {(p_key, twist + direction * step, subset)}
            key = index.get(moved)
            if key is not None:
                yield moved, key, "twist", None
            else:
                other = twist_move(node, j, direction)
                yield moved, other.key(), "twist", other
        if j not in flip_indices:
            continue
        frame = flip_frame(node, j)
        for moved in frame_flips(node, j, frame):
            key = index.get(moved)
            if key is not None:
                yield moved, key, "flip", None
            else:
                other = frame_flip(node, j, frame, moved)
                yield moved, other.key(), "flip", other


class ExploredGraph(NamedTuple):
    """A BFS ball of the marking graph, with stable node and edge order."""

    nodes: dict[str, Marking]
    edges: set[tuple[str, str, str]]
    radius: dict[str, int]

    def add_edge(self, a: str, b: str, kind: str):
        if a != b:
            self.edges.add((a, b, kind) if a < b else (b, a, kind))


def bfs(seed: Marking, radius: int) -> ExploredGraph:
    """All markings within the radius of the seed, and every edge among them.

    Nodes inside the radius are expanded by coordinates (fact 2), against an
    index of the nodes found so far: a Marking, its candidate transversals
    and its key are built only for coordinates that are not a node yet, so
    exactly one Marking per node past the seed, each certified by the move
    that reached it first in the deterministic order (frontier sorted by
    key); a flip frame builds no Marking.  The nodes at the radius (the
    boundary) are certified too, and the edges among them are closed by
    three facts.  The closure builds no node, and calls neither twist_move
    nor frame_flip on a boundary node; the one thing it may build for a
    boundary pair is that pair's flip frame (marking.flip_frame).

    1. Moves are symmetric, and the expansion is complete: an edge from a
       boundary node to an inner node was added when the inner node was
       expanded.  Only edges between boundary nodes are left to close.
    2. A certified node is its coordinates.  Its certificate gives, per
       pair, X_i and (twist_i, Y_i) relative to the canonical standardizer
       of its base, and by the uniqueness of transversal decompositions the
       triples (P_i key, twist_i, Y_i) identify the node.  A twist at j in
       direction d keeps the base, so its standardizer, and Y_j, and adds
       d * z_exponent(X_j) to twist_j.  A flip across j holds the swapped
       pair with the frame's decomposition, and at every other base P_i the
       candidate with twist t relative to h has the coordinates
       (P_i key, t + c_i, Y) of its frame (marking.frame_flips).  So every
       neighbor's coordinates are known before it is built, and a boundary
       twist edge is a look-up of the moved coordinates; the +1 twists find
       every one, since the -1 twist of one end is the +1 twist of the
       other.
    3. The boundary nodes are bucketed by (base key set S, P key, Q key),
       one entry per pair.  A flip across j changes one base, so it joins
       the bucket (S, P_j, Q_j) to its partner (S - P_j + Q_j, Q_j, P_j),
       and every boundary flip edge lies in exactly one unordered pair of
       buckets, which the closure visits once.  Node b of the partner is a
       flip of node a exactly when, at every base P_i with i != j, its
       twist relative to the shared standardizer h = ghat Delta_{X_j}^{k_j}
       of a is within one of a's certified twist k_i.  That twist is b's
       certified twist minus an offset c_i of h and the partner's base set
       alone, so the offsets are one set per flip frame (marking.FlipFrame),
       and since moves are symmetric the frame of either side decides the
       pair.  The closure takes the side whose frame is in the context's
       flip_frames memo, else the side seen first, and reads the frame with
       flip_frame on its first member, which builds and keeps it on a miss.
       That cannot raise BaseNotMaximal: the partner is not empty, so the
       flipped base set is the base of a node, which is maximal.  The other
       side is indexed by its twists minus the offsets at the frame's first
       two bases, so each node of the frame's side reads the 3 x 3 cells
       around its own twists there and tests the other bases on those
       members only.
    """
    if radius < 0:
        raise PreconditionViolated(f"radius {radius} is negative")
    seed.certificate()
    graph = ExploredGraph({}, set(), {})
    graph.nodes[seed.key()] = seed
    graph.radius[seed.key()] = 0
    index = {frozenset(seed.coordinates()): seed.key()}
    frontier = [seed]
    for depth in range(1, radius + 1):
        nxt = []
        for node in frontier:
            for coords, key, kind, other in _expand(node, range(len(node)), index):
                if other is not None:
                    index[coords] = key
                    graph.nodes[key] = other
                    graph.radius[key] = depth
                    nxt.append(other)
                graph.add_edge(node.key(), key, kind)
        frontier = sorted(nxt, key=Marking.key)
    _close_boundary(graph, frontier, index)
    return graph


def _close_boundary(
    graph: ExploredGraph, boundary: list[Marking], index: dict[Coordinates, str]
) -> None:
    """Add the twist and flip edges among the boundary nodes (see bfs)."""
    holding: dict[FrameKey, list[tuple[Marking, int, dict[str, int]]]] = {}
    for node in boundary:
        key = node.key()
        coords = node.coordinates()
        bases = node.certificate().bases
        twist_at = {p_key: t for p_key, t, _y in coords}
        base = frozenset(twist_at)
        whole = frozenset(coords)
        for j, (p_key, twist, subset) in enumerate(coords):
            step = z_exponent(node.ctx, bases[j])
            other_key = index.get(whole - {coords[j]} | {(p_key, twist + step, subset)})
            if other_key is not None:
                graph.add_edge(key, other_key, "twist")
            holding.setdefault((base, p_key, node.pairs[j][1].key()), []).append(
                (node, j, twist_at)
            )
    done: set[FrameKey] = set()
    for bucket_key, bucket in holding.items():
        base, p_key, q_key = bucket_key
        partner_key = (base - {p_key} | {q_key}, q_key, p_key)
        partner = holding.get(partner_key)
        if partner is None or bucket_key in done:
            continue
        done.add(partner_key)
        memo = bucket[0][0].ctx.flip_frames
        if bucket_key not in memo and partner_key in memo:
            bucket, partner = partner, bucket
        node, j, _at = bucket[0]
        offsets = flip_frame(node, j).offsets
        # the partner by offset-adjusted twists at the probed bases
        probe = sorted(offsets)[:2]
        grid: dict[tuple[int, ...], list[tuple[str, dict[str, int]]]] = {}
        for other, _j, other_at in partner:
            cell = tuple(other_at[b] - offsets[b] for b in probe)
            grid.setdefault(cell, []).append((other.key(), other_at))
        rest = [(b, c) for b, c in offsets.items() if b not in probe]
        for node, _j, twist_at in bucket:
            key = node.key()
            for shift in itertools.product((-1, 0, 1), repeat=len(probe)):
                cell = tuple(twist_at[b] + d for b, d in zip(probe, shift))
                for other_key, other_at in grid.get(cell, ()):
                    if all(abs(twist_at[b] - other_at[b] + c) <= 1 for b, c in rest):
                        graph.add_edge(key, other_key, "flip")


def _join(open_: str, items: list[str], close: str, depth: int) -> str:
    if not items:
        return open_ + close
    inner = "\n" + "  " * (depth + 1)
    return f"{open_}{inner}{(',' + inner).join(items)}\n{'  ' * depth}{close}"


def json_text(value, depth: int = 0) -> str:
    """json.dumps(value, indent=2, sort_keys=True) of dicts, lists, str, int,
    bool and None, closing at the given indent depth (see export_graph)."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        items = [f"{_quote(k)}: {json_text(value[k], depth + 1)}" for k in sorted(value)]
        return _join("{", items, "}", depth)
    return _join("[", [json_text(v, depth + 1) for v in value], "]", depth)


def export_graph(graph: ExploredGraph, fmt: str) -> Iterator[str]:
    """DOT or JSON serialization, byte-deterministic, as an iterator of str
    pieces: one per node and one per edge, between a head and a tail.  The
    format is checked at the call; the pieces are rendered as they are taken,
    so the text is never held whole.

    The joined JSON pieces are exactly json.dumps(payload, indent=2,
    sort_keys=True) and a newline, payload {"nodes": [{"key", "marking"}],
    "edges": [[a, b, kind]]}.  json.dumps is the tests' oracle, not called
    here: with indent set it runs the pure-Python encoder.  Each piece is a
    fixed indent template, an f-string per edge, per node and per distinct
    subgroup block (rendered once per export), with strings through the C
    encode_basestring_ascii of json.dumps."""
    if fmt == "json":
        return _json_pieces(graph)
    if fmt == "dot":
        return _dot_pieces(graph)
    raise UnknownFormat(f"unknown export format {fmt!r}")


def _json_pieces(graph: ExploredGraph) -> Iterator[str]:
    """The JSON export (see export_graph).  An object or list at depth d
    holds its items at indent 2(d + 1) and closes at 2d: the top object is
    at depth 0, the edge and node lists at 1, an edge and a node at 2, a
    marking at 3, its pair list at 4, a pair at 5 and a subgroup block at 6.
    An empty list is written [], as _join writes it."""
    quoted = {key: _quote(key) for key in graph.nodes}
    edges = sorted(graph.edges)
    yield '{\n  "edges": [' if edges else '{\n  "edges": [],\n  "nodes": ['
    sep = "\n"
    for a, b, kind in edges:
        yield f"{sep}    [\n      {quoted[a]},\n      {quoted[b]},\n      {_quote(kind)}\n    ]"
        sep = ",\n"
    if edges:
        yield '\n  ],\n  "nodes": ['
    blocks: dict[int, str] = {}

    def block(p) -> str:
        text = blocks.get(id(p))
        if text is None:
            data = p.to_json()
            gens = _join("[", [_quote(name) for name in data["gens"]], "]", 7)
            text = blocks[id(p)] = (
                f'{{\n              "conj": {_quote(data["conj"])},'
                f'\n              "gens": {gens}\n            }}'
            )
        return text

    keys = sorted(graph.nodes)
    sep = "\n"
    for key in keys:
        pairs = [
            f'{{\n            "base": {block(p)},\n            "transverse": {block(q)}'
            "\n          }"
            for p, q in graph.nodes[key].pairs
        ]
        yield (
            f'{sep}    {{\n      "key": {quoted[key]},\n      "marking": {{'
            f'\n        "pairs": {_join("[", pairs, "]", 4)}\n      }}\n    }}'
        )
        sep = ",\n"
    yield "\n  ]\n}\n" if keys else "]\n}\n"


def _dot_pieces(graph: ExploredGraph) -> Iterator[str]:
    """The DOT export: one line per node, then one per edge."""
    color = {"twist": "blue", "flip": "red"}
    yield "graph markings {\n"
    for key in sorted(graph.nodes):
        yield f'  "{key}";\n'
    for a, b, kind in sorted(graph.edges):
        yield f'  "{a}" -- "{b}" [color={color[kind]}];\n'
    yield "}\n"


def flip_path_bound(n_vertices: int) -> int:
    """The instantiated recursion bound for connecting all-standard markings."""
    k = 1
    for n in range(3, n_vertices + 1):
        k = max(2 * k + 13, n + k + 7)
    return k


def all_standard_markings(ctx: GarsideContext) -> list[Marking]:
    """Every marking whose base and transverse elements are all standard,
    sorted by key.  A standard transversal A_Y at index i keeps the
    transversality pattern against the standard base itself, so Y is the
    transversal_subset at i: there is one such marking per maximal standard
    simplex, its standard_transversals."""
    return sorted(
        map(standard_transversals, enumerate_maximal_standard(ctx)), key=Marking.key
    )


class ConnectivityReport(NamedTuple):
    type_name: str
    standard_count: int
    node_count: int
    connected: bool
    diameter: int
    bound: int
    distances: dict[tuple[str, str], int]


def standard_marking_connectivity(
    ctx: GarsideContext, projection_bound: int = 2, node_cap: int = 20000
) -> ConnectivityReport:
    """Distances among all-standard markings within the bounded subgraph.

    The subgraph keeps markings whose base elements are standard subgroups
    and whose certified twists lie in [-bound, bound]; twist variants of the
    standard markings are reached inside it.  More standard markings than
    node_cap, or reaching a node past it, raises BudgetExceeded; a negative
    projection_bound or node_cap raises PreconditionViolated.  Distances are
    subgraph path lengths, so never below marking-graph distances; a test
    finds them equal to bfs distances on A3, B3, H3 and I2(5), and they were
    equal on A4 and D4 outside the tests.

    Twists at every index and the flips across the j with certified twist
    k_j = 0 (see below) are expanded by coordinates as in bfs, against an index of the nodes, and
    every node the search expands is certified.  Whether a marking is in the
    subgraph depends on its coordinates alone, so a neighbor already among
    the nodes is neither built nor tested again.

    Every node has a standard base, so its canonical standardizer ghat is 1
    and its certified twists are the twists relative to 1.  A twist keeps
    the base.  Every flip across j has the bases {P_i : i != j} and Q_j, so
    it has a standard base exactly when Q_j is standard, and Q_j is standard
    exactly when its certified twist k_j is 0: if Q_j = A_Y, then (0, Y)
    decomposes Q_j relative to 1, and the decomposition is unique because
    Y_j is transverse to X_j, so k_j = 0; conversely k_j = 0 gives Q_j =
    A_{Y_j}.  So flips are taken across the j with k_j = 0, every neighbor
    has a standard base, and the subgraph test reads the neighbor's
    coordinates only: its certified twists relative to its ghat = 1, which
    the move that built it carries (marking.twist_move, marking.frame_flip).
    """
    if projection_bound < 0:
        raise PreconditionViolated(f"projection bound {projection_bound} is negative")
    if node_cap < 0:
        raise PreconditionViolated(f"node cap {node_cap} is negative")
    standard = all_standard_markings(ctx)
    if len(standard) > node_cap:
        raise BudgetExceeded(len(standard), node_cap)

    nodes: dict[str, Marking] = {m.key(): m for m in standard}
    index = {frozenset(m.coordinates()): m.key() for m in standard}
    adjacency: dict[str, set[str]] = {k: set() for k in nodes}
    frontier = sorted(nodes, key=str)
    while frontier:
        nxt = []
        for key in frontier:
            marking = nodes[key]
            standard_flips = [j for j, (_p, k, _y) in enumerate(marking.coordinates()) if not k]
            for coords, okey, _kind, other in _expand(marking, standard_flips, index):
                if other is not None:
                    if any(abs(k) > projection_bound for _p, k, _y in coords):
                        continue
                    if len(nodes) >= node_cap:
                        raise BudgetExceeded(len(nodes) + 1, node_cap)
                    index[coords] = okey
                    nodes[okey] = other
                    adjacency[okey] = set()
                    nxt.append(okey)
                adjacency[key].add(okey)
                adjacency[okey].add(key)
        frontier = sorted(nxt)
    # pairwise distances among the standard markings
    keys = [m.key() for m in standard]
    distances: dict[tuple[str, str], int] = {}
    diameter = 0
    connected = True
    for source in keys:
        dist = {source: 0}
        queue = [source]
        while queue:
            new_queue = []
            for cur in queue:
                for other in adjacency[cur]:
                    if other not in dist:
                        dist[other] = dist[cur] + 1
                        new_queue.append(other)
            queue = new_queue
        for target in keys:
            if target not in dist:
                connected = False
            else:
                distances[(source, target)] = dist[target]
                diameter = max(diameter, dist[target])
    return ConnectivityReport(
        type_name=str(ctx.graph.type),
        standard_count=len(standard),
        node_count=len(nodes),
        connected=connected,
        diameter=diameter,
        bound=flip_path_bound(ctx.rank),
        distances=distances,
    )
