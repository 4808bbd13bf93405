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
  whole factor list until nothing moves, one factor per letter, independent
  of the library's one-sweep products and its runs of letters; each pair
  slides by the meet of the right complement of the first factor with the
  second, on interned elements, not by the library's raw-table slide with
  its descent-key shortcut;
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
  library's string emitter with its blocks rendered once per subgroup;
* the type-table z-exponent classifies the induced subgraph of a connected
  subset and looks up its type in a table of the types whose centre is
  generated by Delta^2 (Brieskorn-Saito 1972), and the table conjugacy
  edges skip the components it marks central, not by reading whether the
  Delta_X involution is trivial;
* the per-piece parser normalizes each '.'-piece of a serialized element as
  its own word and multiplies the results, and the whole-tail parser
  normalizes the whole tail as one signed word, not by taking each reduced
  positive piece as one simple and normalizing them in one sweep;
* the maximal tubings of a Coxeter diagram are the maximal sets of pairwise
  compatible tubes (connected proper vertex subsets, nested or disjoint and
  not adjacent), found by a clique search, not by the recursive
  characterization of maximal standard families.

Two test helpers here are not oracles but library code that only tests
called: the join of two simples by complement duality (lcm_simples) and the
standardized representative of every node of a BFS ball
(orbit_representatives).

The last section holds reference implementations of statements of the
paper that the tests check and no program path needs: subgroup containment,
paths in the Paris conjugacy graph, the edge test of two parabolics, the
ascending product relating two standardizers of a maximal simplex and its
extraction, simplex stabilizers, the change between two standard families,
the shared flip standardizer, bounded transversal-swap paths, and the
isometric action of the group on the marking graph.  The two domain errors
that only these raise, NotConjugate and NotAStabilizer, are defined there.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

from artinmark.coxeter import ArtinType, DefiningGraph, RootSystem
from artinmark import marking as marking_lib
from artinmark.errors import (
    ArtinMarkError,
    BaseNotMaximal,
    BudgetExceeded,
    Disconnected,
    InvariantViolated,
    NotASimplex,
    NotAStandardizer,
    NotIrreducible,
    NotMaximal,
    NotProper,
    PreconditionViolated,
    UnknownFormat,
    UnsupportedType,
)
from artinmark.garside import (
    ArtinElement,
    GarsideContext,
    member_of_standard,
    normalize,
    parse_word,
)
from artinmark.graph import (
    ConnectivityReport,
    ExploredGraph,
    all_standard_markings,
    bfs,
    flip_path_bound,
    neighbors,
)
from artinmark.marking import (
    Marking,
    _base_index,
    _flip_candidate_table,
    _flip_frame,
    flip_candidates,
    is_twist_edge,
    standardize_marking,
    transversal_decomposition,
    twist_move,
)
from artinmark.parabolic import (
    ConjugacyGraph,
    ParabolicSubgroup,
    _standard_target,
    central_generator_z,
    delta_permutation,
    nonadjacent_pair,
    z_exponent,
)
from artinmark.ribbons import peel_delta_powers
from artinmark.simplex import (
    CparabSimplex,
    StandardizedSimplex,
    Subset,
    build_standardized,
    delta_twisted,
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


def lcm_simples(ctx: GarsideContext, a, b):
    """Join of two simples in the prefix order, via complement duality:
    Delta over the suffix-order meet d of the right complements, where
    d^-1 is the prefix-order meet of their inverses."""
    return ctx.delta_w * ctx.gcd_simples(
        ctx.right_complement(a).inverse(), ctx.right_complement(b).inverse()
    )


# -- fixed-point normal forms ------------------------------------------------


def meet_slide_pair(ctx, u, v):
    """(u a, a^-1 v) for a the meet of u^-1 Delta and v, or None when a = 1:
    the complement, the meet and a^-1 all interned, nothing memoized."""
    alpha = ctx.gcd_simples(ctx.right_complement(u), v)
    if alpha.is_identity:
        return None
    return u * alpha, alpha.inverse() * v


def fixed_point_normalize(ctx, inf: int, factors) -> tuple[int, tuple]:
    """(inf, body) of Delta^inf * factors, by slide passes to a fixed point."""
    body = [x for x in factors if not x.is_identity]
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(body) - 1:
            slid = meet_slide_pair(ctx, body[i], body[i + 1])
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


# -- element parsers -------------------------------------------------------------


def _split_serialized(text: str) -> tuple[int, str] | None:
    """(p, tail) of 'DELTA^p | tail', or None for a plain word."""
    head, sep, tail = text.partition("|")
    if not sep:
        return None
    return int(head.strip()[len("DELTA^"):]), tail


def per_piece_parse(ctx: GarsideContext, text: str) -> ArtinElement:
    """Delta^p times the product of the '.'-pieces, each normalized alone."""
    split = _split_serialized(text)
    if split is None:
        return normalize(ctx, text)
    inf, tail = split
    out = ctx.delta**inf
    for piece in tail.split("."):
        if piece.strip():
            out = out * normalize(ctx, piece)
    return out


def whole_tail_parse(ctx: GarsideContext, text: str) -> ArtinElement:
    """Delta^p times the whole tail normalized as one signed word."""
    split = _split_serialized(text)
    if split is None:
        return normalize(ctx, text)
    inf, tail = split
    return ctx.delta**inf * ctx.from_word(parse_word(ctx.graph, tail.replace(".", " ")))


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
    by distinct vertices, deciding nesting by contains on
    every ordered pair; levels and chains index the ordered vertices."""
    vertices = sorted(vertices, key=lambda v: v.key())
    n = len(vertices)
    above = [
        {j for j in range(n) if j != i and contains(vertices[j], vertices[i])}
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
    """(covers, nested) decided by contains: covers maps
    each pair (j, k) of distinct top-level pair indices to whether Q_j
    contains P_k; nested maps each (j, k) with P_j properly inside P_k to
    whether P_k contains Q_j."""
    pairs = marking.pairs
    n = len(pairs)
    above = {
        (j, k) for j in range(n) for k in range(n)
        if j != k and contains(pairs[k][0], pairs[j][0])
    }
    top = [j for j in range(n) if not any((j, k) in above for k in range(n))]
    covers = {
        (j, k): contains(pairs[j][1], pairs[k][0]) for j in top for k in top if j != k
    }
    nested = {(j, k): contains(pairs[k][0], pairs[j][1]) for j, k in above}
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


# -- centres of irreducible parabolics by type -------------------------------------


def classify(graph: DefiningGraph, subset: frozenset[int]) -> ArtinType:
    """Type of the induced subgraph; the subset must be connected."""
    if not graph.is_connected(subset) or not subset:
        raise Disconnected(f"subset {sorted(subset)} is not connected and nonempty")
    k = len(subset)
    if k == 1:
        return ArtinType("A", 1)
    if k == 2:
        a, b = sorted(subset)
        m = graph.label(a, b)
        if m == 3:
            return ArtinType("A", 2)
        if m == 4:
            return ArtinType("B", 2)
        return ArtinType("I2", 2, m)
    degrees = {v: len(graph.neighbors(v) & subset) for v in subset}
    branch = [v for v in subset if degrees[v] == 3]
    if branch:
        lengths = sorted(len(c) for c in graph.components(subset - {branch[0]}))
        if lengths[:2] == [1, 1]:
            return ArtinType("D", k)
        return ArtinType("E", k)
    # a path; order it and look at the labels
    ends = [v for v in subset if degrees[v] == 1]
    path = [min(ends)]
    while len(path) < k:
        path.append(min((graph.neighbors(path[-1]) & subset) - set(path)))
    labels = [graph.label(a, b) for a, b in zip(path, path[1:])]
    special = [(i, m) for i, m in enumerate(labels) if m != 3]
    if not special:
        return ArtinType("A", k)
    (pos, m), = special
    if m == 4 and pos in (0, len(labels) - 1):
        return ArtinType("B", k)
    if m == 4:
        return ArtinType("F", 4)
    if m == 5 and pos in (0, len(labels) - 1):
        return ArtinType("H", k)
    raise UnsupportedType(f"induced subgraph on {sorted(subset)} is not finite type")


def table_z_exponent(graph: DefiningGraph, subset: frozenset[int]) -> int:
    """2 if the centre of the connected subset's type is generated by
    Delta^2, else 1, looked up by type."""
    t = classify(graph, subset)
    f, n, m = t.family, t.rank, t.i2_label or 0
    squared = (
        (f == "A" and n >= 2)
        or (f == "D" and n >= 5 and n % 2 == 1)
        or (f == "E" and n == 6)
        or (f == "I2" and m >= 5 and m % 2 == 1)
    )
    return 2 if squared else 1


def table_conjugacy_edges(ctx) -> list[tuple[Subset, int, int]]:
    """The edges (Y, t, t') of the conjugacy graph of standard parabolics,
    skipping the components whose type table says Delta_X is central."""
    graph = ctx.graph
    n = graph.rank
    edges = []
    for mask in range(1 << n):
        y = frozenset(i for i in range(n) if mask >> i & 1)
        for comp in graph.components(y):
            if table_z_exponent(graph, comp) != 2:
                continue
            for t, t2 in delta_permutation(ctx, comp).items():
                if t2 != t:
                    edges.append((y, t, t2))
    return edges


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


def orbit_representatives(ctx: GarsideContext, seed: Marking, radius: int) -> dict[str, str]:
    """Map each BFS node to the key of its standardized representative."""
    ball = bfs(seed, radius)
    out = {}
    for key in sorted(ball.nodes):
        _c, std = standardize_marking(ball.nodes[key])
        out[key] = std.key()
    return out


# -- maximal tubings -------------------------------------------------------------


def tubes(graph: DefiningGraph) -> list[frozenset[int]]:
    """The tubes of a graph: its nonempty proper vertex subsets that induce a
    connected subgraph, connectivity checked by a walk along the edges."""
    n = graph.rank
    out = []
    for mask in range(1, (1 << n) - 1):
        subset = frozenset(i for i in range(n) if mask >> i & 1)
        start = min(subset)
        seen, todo = {start}, [start]
        while todo:
            a = todo.pop()
            for b in subset - seen:
                if graph.adjacent(a, b):
                    seen.add(b)
                    todo.append(b)
        if seen == subset:
            out.append(subset)
    return out


def compatible_tubes(graph: DefiningGraph, a: frozenset[int], b: frozenset[int]) -> bool:
    """Two tubes are compatible when nested, or disjoint with no edge
    between them (Carr-Devadoss 2006)."""
    if a <= b or b <= a:
        return True
    return not (a & b) and not any(graph.adjacent(x, y) for x in a for y in b)


def maximal_tubings(graph: DefiningGraph) -> set[frozenset[frozenset[int]]]:
    """The maximal sets of pairwise compatible tubes: the maximal cliques of
    the compatibility graph on the tubes, by Bron-Kerbosch with pivoting."""
    found = tubes(graph)
    near = {
        a: frozenset(b for b in found if b != a and compatible_tubes(graph, a, b))
        for a in found
    }
    out: set[frozenset[frozenset[int]]] = set()

    def extend(clique, candidates, excluded):
        if not candidates and not excluded:
            out.add(frozenset(clique))
            return
        pivot = max(candidates | excluded, key=lambda t: len(near[t] & candidates))
        for tube in candidates - near[pivot]:
            extend(clique | {tube}, candidates & near[tube], excluded & near[tube])
            candidates = candidates - {tube}
            excluded = excluded | {tube}

    extend(frozenset(), frozenset(found), frozenset())
    return out


# -- reference implementations of paper statements ----------------------------
#
# Library code that only the tests call: each function below states a result
# of the paper in executable form, and the tests check it on examples and on
# seeded conjugates.  is_flip_edge is read off the artinmark.marking module at
# call time, so a test that patches it there reaches the swap-path checks.


class NotConjugate(ArtinMarkError):
    """The two standardizations are not conjugate."""


class NotAStabilizer(ArtinMarkError):
    """Element does not permute the vertices of the simplex."""


def contains_element(p: ParabolicSubgroup, g: ArtinElement) -> bool:
    """Whether g lies in the parabolic p = conj A_X conj^-1."""
    return member_of_standard(p.conj.inverse() * g * p.conj, p.gens)


def contains(p: ParabolicSubgroup, q: ParabolicSubgroup) -> bool:
    """Subgroup containment of q in p, by membership of q's generators."""
    h = q.conj
    return all(contains_element(p, h * p.ctx.atoms[x] * h.inverse()) for x in q.gens)


def shortest_path(
    graph: ConjugacyGraph, a: Subset, b: Subset, via: Subset | None = None
) -> list[Subset] | None:
    """BFS path from a to b in the Paris conjugacy graph, optionally forced
    through the vertex via."""
    if via is not None:
        first = shortest_path(graph, a, via)
        second = shortest_path(graph, via, b)
        if first is None or second is None:
            return None
        return first + second[1:]
    a, b = frozenset(a), frozenset(b)
    prev: dict[Subset, Subset | None] = {a: None}
    queue = [a]
    while queue:
        nxt = []
        for x in queue:
            if x == b:
                path = [x]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return path[::-1]
            for y in sorted(graph.adjacency.get(x, ()), key=sorted):
                if y not in prev:
                    prev[y] = x
                    nxt.append(y)
        queue = nxt
    return None


def adjacent(p: ParabolicSubgroup, q: ParabolicSubgroup) -> bool:
    """Whether two irreducible proper parabolics span an edge (z's commute),
    decided in p's frame like every simplex check."""
    return nonadjacent_pair([p, q]) is None


def peel_order(std: StandardizedSimplex) -> tuple[int, ...]:
    """Vertex indices by ascending level (extraction order)."""
    return tuple(i for layer in std.levels.levels for i in layer)


def standardization_change(ctx: GarsideContext, first, second) -> ArtinElement:
    """Positive r = Delta_{Y_k}^() ... Delta_{Y_1}^() Delta_Gamma^() carrying
    the first standard family onto the second, exponents in {0, 1}.

    Tries all 2^(k+1) exponent vectors.  Ascending-product extraction cannot
    give r directly: it decomposes a known standardizer h of a simplex,
    reading each exponent off ghat^-1 h, while here r itself is the unknown
    and only the two families it should relate are given.
    """
    std1 = build_standardized(ctx, first)
    std2 = build_standardized(ctx, second)
    if sorted(map(sorted, std1.subsets)) == sorted(map(sorted, std2.subsets)):
        return ctx.identity
    order = list(peel_order(std2))[::-1]  # deepest level leftmost
    factors = [ctx.delta_of(std2.subsets[i]) for i in order] + [ctx.delta]
    z_of = [central_generator_z(ctx, x) for x in std1.subsets]
    want = set(std2.subsets)
    for bits in itertools.product((0, 1), repeat=len(factors)):
        r = ctx.identity
        for bit, f in zip(bits, factors):
            if bit:
                r = r * f
        if r.is_identity:
            continue
        r_inv = r.inverse()
        images = set()
        ok = True
        for x, z_x in zip(std1.subsets, z_of):
            w = r * z_x * r_inv
            if not w.is_positive:
                ok = False
                break
            img = w.support()
            if img not in want or not all(
                member_of_standard(r * ctx.atoms[s] * r_inv, img) for s in x
            ):
                ok = False
                break
            images.add(img)
        if ok and images == want:
            return r
    raise NotConjugate("no factor assignment conjugates the first family to the second")


@dataclass(frozen=True)
class AscendingProduct:
    """Exponent data of an ascending product over a standardized simplex.

    exponents is aligned with std.subsets; the word has nested factors to
    the left of their containers and all Delta_Gamma factors rightmost.
    """

    std: StandardizedSimplex
    exponents: tuple[int, ...]
    gamma: int

    def to_element(self, ctx: GarsideContext) -> ArtinElement:
        out = ctx.identity
        for i in reversed(peel_order(self.std)):
            out = out * ctx.delta_of(self.std.subsets[i]) ** self.exponents[i]
        return out * ctx.delta**self.gamma

    def key(self) -> tuple:
        """Within-level order is immaterial; subsets are already canonical."""
        return (self.exponents, self.gamma)

    def to_json(self, ctx: GarsideContext) -> dict:
        return {
            "exponents": {
                ",".join(ctx.graph.name(i) for i in sorted(x)): e
                for x, e in zip(self.std.subsets, self.exponents)
            },
            "gamma": self.gamma,
        }


def extract_ascending_product(
    h: ArtinElement, ghat: ArtinElement, std: StandardizedSimplex
) -> AscendingProduct:
    """Exponents of the unique ascending product p with ghat * p = h.

    Checks that h standardizes the simplex, then peels Delta_Gamma and the
    Delta_{X_i} level by level from the top.
    """
    ctx = h.ctx
    if not std.is_maximal:
        raise NotMaximal("ascending products are extracted over maximal simplices")
    residue = ghat.inverse() * h
    for x in std.subsets:
        z_x = central_generator_z(ctx, x)
        if _standard_target(ctx, residue, z_x, ctx.identity, x) is None:
            raise NotAStandardizer(f"{h} does not standardize the simplex")
    order = peel_order(std)
    gamma, peeled = peel_delta_powers(ctx, residue, [std.subsets[i] for i in order])
    exponents = [0] * len(std.subsets)
    for i, exponent in zip(order, peeled):
        exponents[i] = exponent
    return AscendingProduct(std, tuple(exponents), gamma)


def stabilizes_simplex(
    g: ArtinElement, simplex: CparabSimplex
) -> tuple[dict[int, int], AscendingProduct]:
    """Vertex permutation and ascending-product decomposition of a stabilizer.

    Raises NotAStabilizer when conjugation by g does not permute the vertex
    set.  The returned decomposition is of ghat^-1 g ghat, i.e. the exponent
    word relating the standardizers ghat and g * ghat.
    """
    ghat, std = simplex.canonical_data()
    if not std.is_maximal:
        raise NotMaximal("stabilizer decomposition needs a maximal simplex")
    keys = {v.key(): i for i, v in enumerate(simplex.vertices)}
    perm = {}
    for i, v in enumerate(simplex.vertices):
        image = v.conjugated_by(g)
        j = keys.get(image.key())
        if j is None:
            raise NotAStabilizer(f"conjugation by {g} moves {v} out of the simplex")
        perm[i] = j
    for layer in simplex.levels.levels:
        if {perm[i] for i in layer} != set(layer):
            raise InvariantViolated(f"conjugation by {g} does not preserve the levels")
    product = extract_ascending_product(g * ghat, ghat, std)
    return perm, product


def shared_flip_standardizer(marking: Marking, j: int) -> ArtinElement:
    """ghat * Delta_{X_j}^{k_j}: standardizes the base, the j-th transversal,
    and therefore the base obtained by flipping across j (see
    marking._flip_frame).  The marking is certified first, and k_j is read
    off its certificate."""
    return _flip_frame(marking, j)[0]


def _flip_toward(marking: Marking, j: int, target: Marking) -> Marking:
    """One flip across j choosing, per other index, a candidate transversal
    whose shared-standardizer twist is within one of both the old transversal
    and the target's transversal.  The target shares the base of marking, so
    its twists relative to the shared standardizer are its certified ones."""
    ctx = marking.ctx
    pairs = marking.pairs
    _h, anchors, table = _flip_candidate_table(marking, j)
    goals = target.certificate().transversals
    new_pairs = list(pairs)
    new_pairs[j] = (pairs[j][1], pairs[j][0])
    for i in sorted(anchors):
        goal = goals[i].twist
        pick = None
        for twist, cand in table[i]:
            if abs(twist - goal) <= 1:
                pick = cand
                break
        if pick is None:
            raise PreconditionViolated(
                f"no candidate transversal between twists {anchors[i]} and {goal}"
            )
        new_pairs[i] = (pairs[i][0], pick)
    return Marking(ctx, new_pairs)


def transversal_swap_path(m1: Marking, m2: Marking) -> list[Marking]:
    """A path of at most 4 moves between same-base markings whose projections
    differ by at most one at every index.  Returns the vertex list, endpoints
    included; every consecutive pair is a flip edge (a twist edge in the
    one-pair case)."""
    pi1 = [d.twist for d in m1.certificate().transversals]
    twists_2 = [d.twist for d in m2.certificate().transversals]
    at_2 = _base_index(m2)
    if at_2.keys() != _base_index(m1).keys():
        raise PreconditionViolated("markings must share their base")
    order = [at_2[p.key()] for p, _q in m1.pairs]
    pi2 = [twists_2[i] for i in order]
    m2 = Marking(m1.ctx, [m2.pairs[i] for i in order])
    if m1 == m2:
        return [m1]
    if any(abs(a - b) > 1 for a, b in zip(pi1, pi2)):
        raise PreconditionViolated("projections differ by more than one")
    if len(m1) == 1:
        step = z_exponent(m1.ctx, m1.pairs[0][0].canonical()[1])
        delta = pi2[0] - pi1[0]
        if delta and abs(delta) % step == 0:
            candidate = twist_move(m1, 0, 1 if delta > 0 else -1)
            if candidate == m2:
                return [m1, m2]
        raise PreconditionViolated("one-pair markings differ by more than a twist")
    j, k = 0, 1
    m_prime = _flip_toward(m1, j, m2)
    _check_flip_edge(m1, m_prime)
    # flip back across j, installing m2's transversals away from j
    second = list(m_prime.pairs)
    second[j] = (m1.pairs[j][0], m1.pairs[j][1])
    for i in range(len(m1)):
        if i != j:
            second[i] = (m2.pairs[i][0], m2.pairs[i][1])
    m_second = Marking(m1.ctx, second)
    _check_flip_edge(m_prime, m_second)
    if m_second == m2:
        return [m1, m_prime, m_second]
    # two flips across k to replace the remaining transversal at j
    m_third = _flip_toward(m_second, k, m2)
    _check_flip_edge(m_second, m_third)
    _check_flip_edge(m_third, m2)
    return [m1, m_prime, m_second, m_third, m2]


def _check_flip_edge(a: Marking, b: Marking) -> None:
    if not marking_lib.is_flip_edge(a, b):
        raise InvariantViolated("a swap-path step is not a flip edge")


def verify_action_isometry(edge: tuple[Marking, Marking, str], x: ArtinElement) -> bool:
    """Conjugated endpoints of an edge remain related by the same move kind."""
    a, b, kind = edge
    ax, bx = a.conjugated_by(x), b.conjugated_by(x)
    if kind == "twist":
        return is_twist_edge(ax, bx)
    if kind == "flip":
        return marking_lib.is_flip_edge(ax, bx)
    raise UnknownFormat(f"unknown edge kind {kind!r}")
