"""Independent oracles used to derive expected values.

These deliberately avoid the library's normal-form and lattice algorithms:

* the word oracle decides equality of positive words by exhaustive
  bidirectional relation rewriting (the braid relation applied at every
  position, both directions), which presents the Artin monoid exactly;
* the Coxeter-group oracle enumerates W by closure under generators and
  answers prefix-order questions from the length function alone;
* the tuple kernel composes and inverts root permutations as plain int
  tuples, independent of the library's byte-table encoding;
* the descent peels strip the least common left descent of interned
  elements, reading descent sets off each remainder and interning every
  s * x on the way, independent of the library's peel on raw tables;
* the single-letter peel strips one least common left descent per step on
  raw tables, scanning the simple roots against a set of blocked roots, not
  a whole w0(W_D) block per step read off a byte descent key;
* the fixed-point normalizer re-runs left-to-right slide passes over the
  whole factor list until nothing moves, independent of the library's
  one-sweep products;
* the prefix-BFS standardizers search by atom length over prefixes of a
  known positive standardizer (or over the whole monoid), and standardize
  a simplex level by level, independent of the library's ribbon descent
  and round-robin climb;
* the containment levels decide nesting by subgroup containment of the
  vertices themselves (membership of each generator's conjugate), not by
  inclusion of their standardized subsets;
* the containment structure of a marking decides the same way whether its
  transversals contain or lie in its bases, not from the subsets of its
  transversal decompositions;
* the extraction projection peels the ascending product relating a
  standardizer times a power of Delta_{X_j} to the canonical standardizer,
  instead of reading the twist relative to the canonical standardizer;
* the recipe transversals build the standard transversal subset of each
  vertex of a maximal standard family recursively, from the generator the
  family misses and the gaps inside each component, not by filtering the
  connected subsets by the transversality pattern;
* the h-relative flip table decomposes every other transversal against
  the shared standardizer h of the flip, found by decomposing the flipped
  transversal against the canonical standardizer, and standardizes the
  flipped base by conjugating it by h^-1, not by reading the twists and the
  flipped base off the certificate;
* the levelwise standardization walks the levels bottom-up and decomposes
  each transversal again against the identity after the Delta powers of the
  levels below it are conjugated away, not by one product of the Delta
  powers of the certified twists;
* the z-product flip table keeps a flip candidate when its z-element
  commutes with the right z-elements of the flipped base, by Garside
  products, not by subset adjacency after standardizing;
* the z-product pattern decides the transversality pattern of a marking
  by Garside products of the z-elements of its pairs, not by subset
  adjacency after standardizing by the canonical standardizer;
* the float root signs classify a root by the float value of its first
  nonzero coordinate, not by closure of the simple roots under reflections;
* the neighbors closure of a BFS ball finds the edges among its boundary
  nodes from the full validated neighbor list of every boundary node, and
  the neighbors universe of the connectivity report expands every node
  through its full neighbor list, not by ruling flips out on their base
  before any candidate is built;
* the candidate closure of a BFS ball builds both twists of every boundary
  node and, across each index whose flipped base is a ball node's base,
  every flip candidate, and matches them by key against the ball, not by
  coordinates and an edge predicate;
* the pairwise z check decides whether a family is a simplex by the
  commutation of z_P = conj z_X conj^-1 of every given vertex, not after
  conjugating the family into its first vertex's frame;
* the json.dumps export serializes the payload of a BFS ball with the
  standard library's json.dumps(indent=2, sort_keys=True), not by the
  library's string emitter with its blocks rendered once per subgroup.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache

from artinmark.coxeter import DefiningGraph, RootSystem
from artinmark.errors import (
    ArtinMarkError,
    BaseNotMaximal,
    BudgetExceeded,
    InvariantViolated,
    NotASimplex,
    NotIrreducible,
    NotProper,
)
from artinmark.garside import ArtinElement
from artinmark.graph import (
    ConnectivityReport,
    ExploredGraph,
    all_standard_markings,
    flip_path_bound,
    neighbors,
)
from artinmark.marking import (
    Marking,
    flip_candidates,
    shared_flip_standardizer,
    transversal_decomposition,
    twist_move,
)
from artinmark.parabolic import ParabolicSubgroup, _standard_target
from artinmark.simplex import (
    CparabSimplex,
    Subset,
    build_standardized,
    delta_twisted,
    extract_ascending_product,
    transversal_subset,
)


def braid_rewrites(graph: DefiningGraph, word: tuple[int, ...]):
    """All words obtained from one application of a defining relation."""
    n = len(word)
    for i in range(n):
        for j in range(graph.rank):
            s = word[i]
            if s == j:
                continue
            m = graph.label(s, j)
            if m < 2 or i + m > n:
                continue
            lhs = tuple((s if k % 2 == 0 else j) for k in range(m))
            if word[i : i + m] == lhs:
                rhs = tuple((j if k % 2 == 0 else s) for k in range(m))
                yield word[:i] + rhs + word[i + m :]


def rewriting_class(graph: DefiningGraph, word: tuple[int, ...]) -> frozenset:
    """The full equivalence class of a positive word under the relations."""
    seen = {word}
    frontier = [word]
    while frontier:
        cur = frontier.pop()
        for nxt in braid_rewrites(graph, cur):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def oracle_equal_positive(
    graph: DefiningGraph, u: tuple[int, ...], v: tuple[int, ...]
) -> bool:
    if len(u) != len(v):
        return False
    return v in rewriting_class(graph, u)


def positive_words(rank: int, length: int):
    return itertools.product(range(rank), repeat=length)


def word_partition(graph: DefiningGraph, length: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Map each word of exactly the given length to its class representative."""
    rep: dict[tuple[int, ...], tuple[int, ...]] = {}
    for word in positive_words(graph.rank, length):
        if word in rep:
            continue
        cls = rewriting_class(graph, word)
        leader = min(cls)
        for member in cls:
            rep[member] = leader
    return rep


def enumerate_w(system: RootSystem) -> list:
    """All elements of the finite Coxeter group, by closure."""
    seen = {system.identity}
    frontier = [system.identity]
    while frontier:
        w = frontier.pop()
        for g in system.generators:
            x = w * g
            if x not in seen:
                seen.add(x)
                frontier.append(x)
    return sorted(seen, key=lambda w: (w.length, w.perm))


def w_prefix(a, b) -> bool:
    """Prefix order from the length function alone."""
    return a.length + (a.inverse() * b).length == b.length


@lru_cache(maxsize=None)
def _w_cache(spec: str):
    from artinmark.coxeter import root_reflection_table

    return enumerate_w(root_reflection_table(spec))


def all_w(spec: str):
    return _w_cache(spec)


# -- tuple kernel ----------------------------------------------------------


def root_perm(w) -> tuple[int, ...]:
    """The permutation of the roots, as an int tuple of length #roots."""
    return tuple(w.perm[: len(w.system.roots)])


def tuple_product(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Root permutation of the product (first b, then a)."""
    return tuple(a[i] for i in b)


def tuple_inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


# -- descent peels on interned elements ---------------------------------------


def descent_peel_gcd(ctx, a, b):
    """Meet of two simples in the prefix order (greedy descent peeling)."""
    gens = ctx.system.generators
    d = ctx.system.identity
    x, y = a, b
    while True:
        common = x.left_descents() & y.left_descents()
        if not common:
            break
        s = gens[min(common)]
        d = d * s
        x = s * x
        y = s * y
    return d


def single_letter_peel(system: RootSystem, perms) -> tuple[list[int], tuple[int, ...] | bytes]:
    """Strip least common left descents off the simples x with raw tables
    `perms`; return the letters and the raw table of their product d.

    t is a left descent of every d^-1 x when d(alpha_t) lies in no
    x(positive roots).  At the end d is the prefix meet of the x, and the
    letters of one input are its least reduced word."""
    after, gens, pos = system._after, system.generators, system.positive_indices
    blocked = set().union(*({perm[r] for r in pos} for perm in perms))
    d, letters = system.identity.perm, []
    while True:
        for t, r in enumerate(system.simple_index):
            if d[r] not in blocked:
                break
        else:
            return letters, d
        letters.append(t)
        d = after(gens[t].perm, d)


def descent_peel_reduced_word(w) -> tuple[int, ...]:
    """Lexicographically least reduced word (greedy left descents)."""
    word = []
    while not w.is_identity:
        s = min(w.left_descents())
        word.append(s)
        w = w.system.generators[s] * w
    return tuple(word)


# -- fixed-point normal forms ------------------------------------------------


def fixed_point_normalize(ctx, inf: int, factors) -> tuple[int, tuple]:
    """(inf, body) of Delta^inf * factors, by slide passes to a fixed point."""
    body = [x for x in factors if not x.is_identity]
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(body) - 1:
            slid = ctx._slide_pair(body[i], body[i + 1])
            if slid is not None:
                changed = True
                body[i] = slid[0]
                if slid[1].is_identity:
                    del body[i + 1]
                else:
                    body[i + 1] = slid[1]
            i += 1
    while body and body[0] is ctx.delta_w:
        inf += 1
        body.pop(0)
    return inf, tuple(body)


def fixed_point_from_word(ctx, word) -> tuple[int, tuple]:
    """Normal form of a signed word: s^-1 = Delta^-1 (Delta s^-1), Deltas to the front."""
    factors, dpows = [], []
    for i, sign in word:
        g = ctx.system.generators[i]
        factors.append(g if sign > 0 else ctx.left_complement(g))
        dpows.append(0 if sign > 0 else -1)
    total = 0
    for k in range(len(factors) - 1, -1, -1):
        factors[k] = ctx.tau(factors[k], total)
        total += dpows[k]
    return fixed_point_normalize(ctx, total, factors)


def fixed_point_product(a, b) -> tuple[int, tuple]:
    ctx = a.ctx
    moved = [ctx.tau(x, b.inf) for x in a.body]
    return fixed_point_normalize(ctx, a.inf + b.inf, moved + list(b.body))


def fixed_point_inverse(a) -> tuple[int, tuple]:
    ctx, n = a.ctx, len(a.body)
    factors = [
        ctx.tau(ctx.left_complement(x), a.inf + n - 1 - k)
        for k, x in enumerate(reversed(a.body))
    ]
    return fixed_point_normalize(ctx, -a.inf - n, factors)


# -- prefix-BFS standardizers --------------------------------------------------


def bfs_minimal_standardizer(p):
    """(c, Y): the first standardizer among prefixes of Delta^(2N) conj, by
    atom length then sort key; the minimum is a prefix of every positive
    standardizer, so it is met first."""
    ctx = p.ctx
    z_p = p.z_element()
    shift = max(0, -(p.conj.inf // 2))
    seed = ctx.delta ** (2 * shift) * p.conj
    frontier = [ctx.identity]
    seen = {ctx.identity}
    for _ in range(seed.atom_length() + 1):
        for cand in frontier:
            target = _standard_target(ctx, cand, z_p, p.conj, p.gens)
            if target is not None:
                return cand, target
        nxt = []
        for cand in frontier:
            for atom in ctx.atoms:
                ext = cand * atom
                if ext not in seen and ext.is_prefix_of(seed):
                    seen.add(ext)
                    nxt.append(ext)
        frontier = sorted(nxt, key=ArtinElement.sort_key)
    raise AssertionError("no standardizer among prefixes of the seed")


def bfs_simultaneous_standardizer(ctx, parabolics, budget=24, seed=None, support_limit=None):
    """Shortest positive c with every c^-1 P_i c standard, by BFS over
    prefixes of Delta^(2N) seed when a simultaneous standardizer is given as
    seed, else over the monoid (on atoms of support_limit when given)."""
    z_list = [p.z_element() for p in parabolics]

    def targets_of(cand):
        targets = []
        for p, z_p in zip(parabolics, z_list):
            t = _standard_target(ctx, cand, z_p, p.conj, p.gens)
            if t is None:
                return None
            targets.append(t)
        return targets

    seed_elt = None
    if seed is not None:
        shift = (-seed.inf + 1) // 2 if seed.inf < 0 else 0
        seed_elt = ctx.delta ** (2 * shift) * seed
        budget = seed_elt.atom_length()
    atoms = ctx.atoms if support_limit is None else [ctx.atoms[i] for i in sorted(support_limit)]
    frontier = [ctx.identity]
    seen = {ctx.identity}
    for _ in range(budget + 1):
        for cand in frontier:
            targets = targets_of(cand)
            if targets is not None:
                return cand, targets
        nxt = {}
        for cand in frontier:
            for atom in atoms:
                ext = cand * atom
                if ext in seen:
                    continue
                seen.add(ext)
                if seed_elt is None or ext.is_prefix_of(seed_elt):
                    nxt.setdefault(ext, None)
        frontier = sorted(nxt, key=ArtinElement.sort_key)
        if not frontier:
            break
    raise AssertionError(f"simultaneous standardizer search budget {budget} exhausted")


def pairwise_z_check(parabolics) -> None:
    """Raise unless the parabolics are irreducible, proper and have pairwise
    commuting z's, each z_P built from its own conjugator."""
    for v in parabolics:
        if not v.irreducible:
            raise NotIrreducible(f"{v} is not irreducible")
        if not v.proper:
            raise NotProper(f"{v} is the whole group")
    for p, q in itertools.combinations(parabolics, 2):
        if not p.z_element().commutes_with(q.z_element()):
            raise NotASimplex(f"{p} and {q} are not adjacent")


def levelwise_canonical_standardizer(simplex, hint=None):
    """(ghat, standardized subsets): the minimal simultaneous standardizer of
    each level in turn, seeded by a known simultaneous standardizer of the
    whole simplex (hint) and searched inside the already standardized part."""
    ctx = simplex.ctx
    ghat = ctx.identity
    current = list(simplex.vertices)
    remaining_hint = hint
    standardized_upper = set()
    for level, layer in enumerate(simplex.levels.levels):
        limit = frozenset(standardized_upper) if level > 0 else None
        g_level, _targets = bfs_simultaneous_standardizer(
            ctx, [current[i] for i in layer], seed=remaining_hint, support_limit=limit
        )
        ghat = ghat * g_level
        inv = g_level.inverse()
        current = [p.conjugated_by(inv) for p in current]
        if remaining_hint is not None:
            remaining_hint = inv * remaining_hint
        for i in layer:
            standardized_upper |= bfs_minimal_standardizer(current[i])[1]
    subsets = []
    for p in current:
        c, target = bfs_minimal_standardizer(p)
        assert c.is_identity, "vertex failed to standardize"
        subsets.append(target)
    return ghat, build_standardized(ctx, subsets)


def containment_levels(vertices):
    """(vertex keys in (level, key) order, levels, chains) of a simplex given
    by distinct vertices, deciding nesting by ParabolicSubgroup.contains on
    every ordered pair; levels and chains index the ordered vertices."""
    vertices = sorted(vertices, key=lambda v: v.key())
    n = len(vertices)
    above = [
        {j for j in range(n) if j != i and vertices[j].contains(vertices[i])}
        for i in range(n)
    ]
    order = sorted(range(n), key=lambda i: (len(above[i]), vertices[i].key()))
    new = {old: k for k, old in enumerate(order)}
    above = [{new[j] for j in above[i]} for i in order]
    depth = [1 + len(a) for a in above]
    levels = tuple(
        tuple(i for i in range(n) if depth[i] == k) for k in range(1, max(depth, default=0) + 1)
    )
    chains = []

    def grow(chain):
        nxt = [j for j in range(n) if chain[-1] in above[j] and depth[j] == depth[chain[-1]] + 1]
        if not nxt:
            chains.append(tuple(chain))
        for j in sorted(nxt):
            grow(chain + [j])

    for i in levels[0] if levels else ():
        grow([i])
    return tuple(vertices[i].key() for i in order), levels, tuple(chains)


# -- marking coordinates and structure ----------------------------------------


def extraction_projection(marking, j, g):
    """pi_{P_j}(Q_j) relative to a standardizer g of the base: the
    Delta_{X_j}-exponent of the ascending product relating g Delta_{X_j}^k
    (k the twist relative to g) to the canonical standardizer."""
    ctx = marking.ctx
    ghat, std = marking.base_simplex().canonical_data()
    data = transversal_decomposition(marking, j, g)
    _, x_j = marking.pairs[j][0].conjugated_by(g.inverse()).canonical()
    h = g * ctx.delta_of(x_j) ** data.twist
    product = extract_ascending_product(h, ghat, std)
    return product.exponents[marking.vertex_of_pair(j)]


def containment_structure(marking):
    """(covers, nested) decided by ParabolicSubgroup.contains: covers maps
    each pair (j, k) of distinct top-level pair indices to whether Q_j
    contains P_k; nested maps each (j, k) with P_j properly inside P_k to
    whether P_k contains Q_j."""
    pairs = marking.pairs
    n = len(pairs)
    above = {
        (j, k) for j in range(n) for k in range(n)
        if j != k and pairs[k][0].contains(pairs[j][0])
    }
    top = [j for j in range(n) if not any((j, k) in above for k in range(n))]
    covers = {
        (j, k): pairs[j][1].contains(pairs[k][0]) for j in top for k in top if j != k
    }
    nested = {(j, k): pairs[k][0].contains(pairs[j][1]) for j, k in above}
    return covers, nested


def levelwise_standardize_marking(marking):
    """(c, M0) as marking.standardize_marking returns them: conjugate the
    base to standard by ghat, then walk the levels bottom-up, decomposing
    each transversal against the identity and conjugating its twist away by
    a power of the Delta of its standardized base."""
    ctx = marking.ctx
    marking.certificate()
    simplex = marking.base_simplex()
    ghat, _std = simplex.canonical_data()
    depth = {
        j: simplex.levels.level_of(marking.vertex_of_pair(j))
        for j in range(len(marking.pairs))
    }
    conj = ghat
    cur = marking.conjugated_by(ghat.inverse())
    for level in sorted(set(depth.values()), reverse=True):
        for j in sorted(i for i, d in depth.items() if d == level):
            data = transversal_decomposition(cur, j, ctx.identity)
            if data.twist:
                base_gens = cur.pairs[j][0].canonical()[1]
                step = ctx.delta_of(base_gens) ** data.twist
                cur = cur.conjugated_by(step.inverse())
                conj = conj * step
    std_pairs = []
    for p, q in cur.pairs:
        cp, xp = p.canonical()
        cq, xq = q.canonical()
        if not (cp.is_identity and cq.is_identity):
            raise InvariantViolated("a pair is not standard after absorbing its twist")
        std_pairs.append(
            (ParabolicSubgroup.standard(ctx, xp), ParabolicSubgroup.standard(ctx, xq))
        )
    return conj, Marking(ctx, std_pairs)


# -- standard transversals ------------------------------------------------------


def _recipe_transversals(graph, subsets: tuple[Subset, ...], scope: Subset) -> dict[Subset, Subset]:
    """Transversal subset per base subset, for a maximal family inside scope.

    For a maximal component X with missing vertex v of the family, the
    transversal is scope - X, augmented by the unique next-level component
    of X adjacent to v whenever there is one; then recurse inside X.
    """
    if not subsets:
        return {}
    union = frozenset().union(*subsets)
    (v,) = scope - union
    out: dict[Subset, Subset] = {}
    for x in graph.components(scope - {v}):
        rest = scope - x
        (u,) = graph.neighbors(v) & x
        subs = tuple(z for z in subsets if z < x)
        inside = frozenset().union(frozenset(), *subs)
        gap = x - inside
        if len(gap) != 1:
            raise InvariantViolated("family must be maximal inside each component")
        (t_x,) = gap
        if u != t_x:
            x1 = next(c for c in graph.components(x - {t_x}) if u in c)
            out[x] = rest | x1
        else:
            out[x] = rest
        out.update(_recipe_transversals(graph, subs, x))
    return out


# -- transversality pattern -----------------------------------------------------


def h_relative_flip_table(marking, j):
    """(h, anchors, table) as marking._flip_candidate_table returns them,
    with k_j decomposed against the canonical standardizer, every other
    transversal decomposed against h = ghat Delta_{X_j}^{k_j}, and the
    flipped base standardized by conjugating each vertex by h^-1."""
    ctx = marking.ctx
    pairs = marking.pairs
    ghat, std = marking.base_simplex().canonical_data()
    k_j = transversal_decomposition(marking, j, ghat).twist
    h = ghat * ctx.delta_of(std.subsets[marking.vertex_of_pair(j)]) ** k_j
    h_inv = h.inverse()
    flipped = [(q if m == j else p).conjugated_by(h_inv).canonical()
               for m, (p, q) in enumerate(pairs)]
    if any(not c.is_identity for c, _ in flipped):
        raise InvariantViolated("the shared standardizer moves the flipped base")
    x_h = [x for _, x in flipped]
    if not build_standardized(ctx, x_h).is_maximal:
        raise BaseNotMaximal("flipped base is not maximal")
    anchors, table = {}, {}
    for i in range(len(pairs)):
        if i == j:
            continue
        anchors[i] = transversal_decomposition(marking, i, h).twist
        by_parity = [transversal_subset(ctx, delta_twisted(ctx, x_h, i, t), i) for t in (0, 1)]
        d_x = ctx.delta_of(x_h[i])
        table[i] = [
            (t, ParabolicSubgroup(ctx, h * d_x**t, by_parity[t % 2]))
            for t in range(anchors[i] - 1, anchors[i] + 2)
        ]
    return h, anchors, table


def z_product_flip_table(marking, j):
    """(h, anchors, table) as marking._flip_candidate_table returns them,
    with the flipped base checked maximal through its CparabSimplex and each
    candidate kept when its z-element commutes with the z-element of every
    flipped base vertex except the one at its own index."""
    ctx = marking.ctx
    pairs = marking.pairs
    h = shared_flip_standardizer(marking, j)
    h_inv = h.inverse()
    new_base = [q if i == j else p for i, (p, q) in enumerate(pairs)]
    _ghat, std = CparabSimplex(ctx, new_base).canonical_data()
    assert std.is_maximal, "flipped base is not maximal"
    z_base = [p.z_element() for p in new_base]
    anchors, table = {}, {}
    for i in range(len(pairs)):
        if i == j:
            continue
        anchors[i] = transversal_decomposition(marking, i, h).twist
        c, x_h = pairs[i][0].conjugated_by(h_inv).canonical()
        assert c.is_identity, "the shared standardizer moves a base"
        d_x = ctx.delta_of(x_h)
        tagged = []
        for t in range(anchors[i] - 1, anchors[i] + 2):
            conj_t = h * d_x**t
            for y in ctx.connected_proper_subsets():
                cand = ParabolicSubgroup(ctx, conj_t, y)
                z_cand = cand.z_element()
                if all(
                    z_cand.commutes_with(z_base[m]) == (m != i)
                    for m in range(len(pairs))
                ):
                    tagged.append((t, cand))
        table[i] = tagged
    return h, anchors, table


def z_product_pattern(marking):
    """The first (i, j), in row order, at which z_{Q_i} commuting with
    z_{P_j} disagrees with i != j, or None when the pattern holds."""
    pairs = marking.pairs
    z_p = [p.z_element() for p, _ in pairs]
    z_q = [q.z_element() for _, q in pairs]
    for i, j in itertools.product(range(len(pairs)), repeat=2):
        if z_q[i].commutes_with(z_p[j]) != (i != j):
            return i, j
    return None


# -- root signs -------------------------------------------------------------------


def ring_value(ring, a) -> float:
    """The float value of a ring element at c = 2cos(pi/m)."""
    c = 2 * math.cos(math.pi / ring.m)
    return math.fsum(x * c**k for k, x in enumerate(a))


def ring_sign(ring, a) -> int:
    """The sign of a ring element, from its float value; every value that
    occurs is an algebraic number of tiny height, far from zero if nonzero."""
    if not any(a):
        return 0
    value = ring_value(ring, a)
    assert abs(value) > 1e-8, f"ambiguous sign for ring element {a}"
    return 1 if value > 0 else -1


def float_positive_roots(system: RootSystem) -> tuple[bool, ...]:
    """Positivity flags by the float sign of each root's first nonzero
    coordinate in the simple-root basis."""
    flags = []
    for root in system.roots:
        signs = [s for s in (ring_sign(system.ring, c) for c in root) if s]
        assert signs, "zero root"
        flags.append(signs[0] > 0)
    return tuple(flags)


# -- marking-graph searches -------------------------------------------------------


def json_dumps_export(graph):
    """graph.export_graph(graph, "json"), by json.dumps of the payload."""
    payload = {
        "nodes": [
            {"key": key, "marking": graph.nodes[key].to_json()}
            for key in sorted(graph.nodes)
        ],
        "edges": [list(e) for e in sorted(graph.edges)],
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def neighbors_closure_bfs(seed, radius):
    """The BFS ball of graph.bfs, with the edges among the boundary nodes
    taken from neighbors() of every boundary node."""
    seed.certificate()
    graph = ExploredGraph()
    graph.nodes[seed.key()] = seed
    graph.radius[seed.key()] = 0
    frontier = [seed]
    for depth in range(1, radius + 1):
        nxt = []
        for node in frontier:
            for other, kind in neighbors(node):
                key = other.key()
                if key not in graph.nodes:
                    graph.nodes[key] = other
                    graph.radius[key] = depth
                    nxt.append(other)
                graph.add_edge(node.key(), key, kind)
        frontier = sorted(nxt, key=Marking.key)
    for node in frontier:
        for other, kind in neighbors(node):
            if other.key() in graph.nodes:
                graph.add_edge(node.key(), other.key(), kind)
    return graph


def candidate_closure_bfs(seed, radius):
    """The BFS ball of graph.bfs, with the edges among the boundary nodes
    found by key: both twists of every boundary node, and every flip
    candidate across an index whose flipped base is the base of a ball node.
    A candidate whose key is in the ball is that certified ball node, so it
    is a flip."""
    seed.certificate()
    graph = ExploredGraph()
    graph.nodes[seed.key()] = seed
    graph.radius[seed.key()] = 0
    frontier = [seed]
    for depth in range(1, radius + 1):
        nxt = []
        for node in frontier:
            for other, kind in neighbors(node):
                key = other.key()
                if key not in graph.nodes:
                    graph.nodes[key] = other
                    graph.radius[key] = depth
                    nxt.append(other)
                graph.add_edge(node.key(), key, kind)
        frontier = sorted(nxt, key=Marking.key)
    for node in frontier:
        node.certificate()
    bases = {frozenset(p.key() for p, _ in m.pairs) for m in graph.nodes.values()}
    for node in frontier:
        for j in range(len(node)):
            for direction in (1, -1):
                key = twist_move(node, j, direction).key()
                if key in graph.nodes:
                    graph.add_edge(node.key(), key, "twist")
            flipped_base = frozenset(
                (q if i == j else p).key() for i, (p, q) in enumerate(node.pairs)
            )
            if flipped_base not in bases:
                continue
            for candidate in flip_candidates(node, j):
                if candidate.key() in graph.nodes:
                    graph.add_edge(node.key(), candidate.key(), "flip")
    return graph


def neighbors_universe_connectivity(ctx, projection_bound=2, node_cap=20000):
    """The report of graph.standard_marking_connectivity, with every node of
    the bounded universe expanded through neighbors() and each neighbor
    kept when its bases are standard and its projections are bounded."""
    standard = all_standard_markings(ctx)

    def in_universe(m):
        try:
            if any(not p.canonical()[0].is_identity for p, _ in m.pairs):
                return False
            return all(abs(v) <= projection_bound for v in m.projections())
        except ArtinMarkError:
            return False

    nodes = {m.key(): m for m in standard}
    adjacency = {k: set() for k in nodes}
    frontier = sorted(nodes)
    while frontier:
        nxt = []
        for key in frontier:
            for other, _kind in neighbors(nodes[key]):
                if not in_universe(other):
                    continue
                okey = other.key()
                if okey not in nodes:
                    if len(nodes) >= node_cap:
                        raise BudgetExceeded(len(nodes) + 1, node_cap)
                    nodes[okey] = other
                    adjacency[okey] = set()
                    nxt.append(okey)
                adjacency[key].add(okey)
                adjacency[okey].add(key)
        frontier = sorted(nxt)
    keys = [m.key() for m in standard]
    distances = {}
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
            if target in dist:
                distances[(source, target)] = dist[target]
    return ConnectivityReport(
        type_name=str(ctx.graph.type),
        standard_count=len(standard),
        node_count=len(nodes),
        connected=len(distances) == len(keys) ** 2,
        diameter=max(distances.values(), default=0),
        bound=flip_path_bound(ctx.rank),
        distances=distances,
    )
