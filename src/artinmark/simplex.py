"""Simplices of the complex of irreducible parabolic subgroups.

A simplex is a set of pairwise adjacent vertices, adjacency meaning the
central elements z_P commute.  The level of a vertex is one plus the number
of vertices properly containing it; level 1 is the set of maximal elements.
Levels and nesting chains are read off the standardized subsets: the
canonical standardizer ghat conjugates every vertex to a standard A_X,
conjugation preserves containment, and A_X lies in A_Y exactly when X lies
in Y, so plain subset inclusion of the targets decides nesting.
A maximal simplex of standard subgroups is characterized combinatorially:
the union of the subsets misses exactly one generator t, and inside every
vertex the union of the properly contained vertices misses exactly one
generator t_i.  Enumeration of maximal standard simplices applies that
characterization recursively, component by component.

The canonical positive standardizer of a simplex is the minimal
simultaneous standardizer of all its vertices.  Relative to it, every other
standardizer of a maximal simplex differs by an ascending product of powers
of Delta_{X_i} and Delta_Gamma, whose exponent tuple is extracted by peeling
factors from the right: at each step the unique exponent is the one that
drops the residue into the parabolic generated by the still-unpeeled
subsets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    ExponentBoundExceeded,
    InvariantViolated,
    NotASimplex,
    NotAStabilizer,
    NotAStandardizer,
    NotConjugate,
    NotMaximal,
    PreconditionViolated,
)
from .garside import ArtinElement, GarsideContext, member_of_standard, scan_powers
from .parabolic import (
    ParabolicSubgroup,
    _standard_target,
    central_generator_z,
    check_simplex_family,
    delta_permutation,
    nonadjacent_pair,
    parabolics_from_json,
    simultaneous_standardizer,
)

Subset = frozenset[int]


def adjacent(p: ParabolicSubgroup, q: ParabolicSubgroup) -> bool:
    """Whether two irreducible proper parabolics span an edge (z's commute),
    decided in p's frame like every simplex check."""
    return nonadjacent_pair([p, q]) is None


def standard_adjacent(graph, x: Subset, y: Subset) -> bool:
    """Edge test for standard irreducible subgroups, combinatorially."""
    if x <= y or y <= x:
        return True
    return not (x & y) and not any(graph.adjacent(a, b) for a in x for b in y)


def pattern_break(graph, y: Subset, subsets, i: int) -> int | None:
    """The first m with standard_adjacent(y, subsets[m]) != (m != i), or None:
    whether A_y keeps the transversality pattern at index i, adjacent to
    every A_{subsets[m]} except A_{subsets[i]}."""
    for m, x in enumerate(subsets):
        if standard_adjacent(graph, y, x) != (m != i):
            return m
    return None


def transversal_subset(ctx: GarsideContext, subsets, i: int) -> Subset:
    """The standard transversal subset at index i of a maximal standard
    family: the one connected proper Y that keeps the transversality pattern.

    Every maximal standard family has exactly one such Y at each index (the
    tests compare it with an independent recursive construction on every
    family of 25 types up to rank 8); any other count raises
    InvariantViolated.  Memoized in ctx.transversal_subsets.
    """
    key = (tuple(subsets), i)
    if key not in ctx.transversal_subsets:
        found = [
            y for y in ctx.connected_proper_subsets()
            if pattern_break(ctx.graph, y, subsets, i) is None
        ]
        if len(found) != 1:
            raise InvariantViolated(
                f"{len(found)} subsets keep the transversality pattern at index {i}"
            )
        ctx.transversal_subsets[key] = found[0]
    return ctx.transversal_subsets[key]


def delta_twisted(
    ctx: GarsideContext, subsets, i: int, twist: int
) -> tuple[Subset, ...]:
    """The image of a standard simplex family under conjugation by
    Delta_{X_i}^twist, X_i = subsets[i].

    Each X_m is nested in X_i, contains it, or is disjoint from it and not
    adjacent to it.  Delta_{X_i} lies in A_{X_m} when X_i <= X_m, commutes
    with A_{X_m} in the disjoint case, and maps A_{X_m} with X_m < X_i to
    A_{pi(X_m)} by its involution pi of the generators of X_i
    (Brieskorn-Saito 1972), so only the nested subsets move, and only at odd
    twists.
    """
    subsets = tuple(subsets)
    if twist % 2 == 0:
        return subsets
    x_i = subsets[i]
    pi = delta_permutation(ctx, x_i)
    return tuple(frozenset(pi[s] for s in x) if x < x_i else x for x in subsets)


@dataclass(frozen=True)
class LevelDecomposition:
    """Partition of the vertex indices into levels, plus the nesting chains."""

    levels: tuple[tuple[int, ...], ...]
    chains: tuple[tuple[int, ...], ...]

    def level_of(self, index: int) -> int:
        for k, layer in enumerate(self.levels):
            if index in layer:
                return k + 1
        raise PreconditionViolated(f"vertex index {index} is in no level")


def nesting_levels(subsets: tuple[Subset, ...]) -> LevelDecomposition:
    """Levels and maximal nesting chains of distinct subsets, by inclusion.

    A subset's level is one plus the number of subsets properly containing
    it; chains run from a level-1 subset down through direct inclusions.
    """
    n = len(subsets)
    depth = [1 + sum(x < y for y in subsets) for x in subsets]
    levels = tuple(
        tuple(i for i in range(n) if depth[i] == k) for k in range(1, max(depth, default=0) + 1)
    )
    chains: list[tuple[int, ...]] = []

    def grow(chain: list[int]):
        i = chain[-1]
        nxt = [j for j in range(n) if subsets[j] < subsets[i] and depth[j] == depth[i] + 1]
        if not nxt:
            chains.append(tuple(chain))
        for j in nxt:
            grow(chain + [j])

    for i in levels[0] if levels else ():
        grow([i])
    return LevelDecomposition(levels, tuple(chains))


class CparabSimplex:
    """A set of pairwise adjacent vertices, in canonical order.

    Vertices are sorted by (level, canonical key), so the index of a vertex
    is deterministic.  The canonical data, and with it the levels and
    nesting chains, is computed once per vertex set.
    """

    def __init__(self, ctx: GarsideContext, vertices):
        vertices = list(vertices)
        if not all(v.gens for v in vertices):
            check_simplex_family(vertices)  # a vertex without generators has no key
        by_key = {}
        for v in vertices:
            by_key.setdefault(v.key(), v)
        self.ctx = ctx
        cache_key = ";".join(sorted(by_key))
        value = ctx.simplex_canonical.get(cache_key)
        if value is None:
            # the climb checks the family before the repeats are reported
            self.vertices = tuple(by_key.values())
            ghat, std = canonical_positive_standardizer(self)
            order = sorted(
                range(len(self.vertices)),
                key=lambda i: (std.levels.level_of(i), self.vertices[i].key()),
            )
            value = (
                tuple(self.vertices[i].key() for i in order),
                ghat,
                build_standardized(ctx, [std.subsets[i] for i in order]),
            )
            ctx.simplex_canonical[cache_key] = value
        if len(by_key) != len(vertices):
            raise NotASimplex("repeated vertices")
        keys, ghat, std = value
        self.vertices: tuple[ParabolicSubgroup, ...] = tuple(by_key[k] for k in keys)
        self._canonical: tuple[ArtinElement, StandardizedSimplex] = (ghat, std)
        self._key = ";".join(keys)

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    @property
    def levels(self) -> LevelDecomposition:
        return self._canonical[1].levels

    def key(self) -> str:
        return self._key

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CparabSimplex)
            and self.ctx is other.ctx
            and self.key() == other.key()
        )

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Simplex[{', '.join(map(repr, self.vertices))}]"

    def all_standard(self) -> bool:
        return all(v.is_standard_rep for v in self.vertices)

    def conjugated_by(self, x: ArtinElement) -> CparabSimplex:
        return CparabSimplex(self.ctx, [v.conjugated_by(x) for v in self.vertices])

    def canonical_data(self) -> tuple[ArtinElement, StandardizedSimplex]:
        """(canonical positive standardizer ghat, standardized simplex)."""
        return self._canonical

    def to_json(self) -> dict:
        return {"vertices": [v.to_json() for v in self.vertices]}

    @staticmethod
    def from_json(ctx: GarsideContext, data: dict) -> CparabSimplex:
        return CparabSimplex(ctx, parabolics_from_json(ctx, data["vertices"]))


@dataclass(frozen=True)
class StandardizedSimplex:
    """Subsets of a standard simplex with level data and maximality witnesses.

    subsets follow the owning simplex's vertex order.  For maximal simplices,
    missing is the generator t outside the union and t_map[i] the generator
    t_i of the per-vertex condition; both are None otherwise.
    """

    subsets: tuple[Subset, ...]
    levels: LevelDecomposition
    missing: int | None
    t_map: tuple[int | None, ...]

    @property
    def is_maximal(self) -> bool:
        return self.missing is not None

    def peel_order(self) -> tuple[int, ...]:
        """Vertex indices by ascending level (extraction order)."""
        return tuple(i for layer in self.levels.levels for i in layer)


def build_standardized(ctx: GarsideContext, subsets) -> StandardizedSimplex:
    """Level data and maximality witnesses for a family of standard subsets."""
    subsets = tuple(frozenset(s) for s in subsets)
    graph = ctx.graph
    if len(set(subsets)) != len(subsets):
        raise NotASimplex("repeated subsets")
    for x, y in itertools.combinations(subsets, 2):
        if not standard_adjacent(graph, x, y):
            raise NotASimplex(f"{sorted(x)} and {sorted(y)} are not adjacent")
    missing, t_map = _maximality_witnesses(graph, subsets)
    return StandardizedSimplex(subsets, nesting_levels(subsets), missing, t_map)


def _maximality_witnesses(graph, subsets) -> tuple[int | None, tuple[int | None, ...]]:
    everything = frozenset(graph.vertices)
    union = frozenset().union(*subsets) if subsets else frozenset()
    rest = everything - union
    if len(rest) != 1:
        return None, (None,) * len(subsets)
    t_map: list[int | None] = []
    for x in subsets:
        inside = frozenset().union(frozenset(), *[y for y in subsets if y < x])
        gap = x - inside
        if len(gap) != 1:
            return None, (None,) * len(subsets)
        t_map.append(next(iter(gap)))
    (t,) = rest
    return t, tuple(t_map)


def _maximal_families(graph, scope: Subset) -> list[tuple[Subset, ...]]:
    if not scope:
        return [()]
    out: list[tuple[Subset, ...]] = []
    for t in sorted(scope):
        comps = graph.components(scope - {t})
        per_comp = []
        for comp in comps:
            per_comp.append(
                [(comp,) + fam for fam in _maximal_families(graph, comp)]
            )
        for combo in itertools.product(*per_comp):
            out.append(tuple(itertools.chain.from_iterable(combo)))
    return out


def enumerate_maximal_standard(ctx: GarsideContext) -> list[CparabSimplex]:
    """All maximal simplices with standard vertices, by the characterization."""
    scope = frozenset(ctx.graph.vertices)
    simplices = []
    for family in filter(None, _maximal_families(ctx.graph, scope)):  # A1: only ()
        simplices.append(
            CparabSimplex(
                ctx, [ParabolicSubgroup.standard(ctx, x) for x in family]
            )
        )
    simplices.sort(key=CparabSimplex.key)
    return simplices


def canonical_positive_standardizer(
    simplex: CparabSimplex,
) -> tuple[ArtinElement, StandardizedSimplex]:
    """The minimal simultaneous standardizer of all vertices, with the
    standardized simplex."""
    ctx = simplex.ctx
    ghat, subsets = simultaneous_standardizer(ctx, list(simplex.vertices))
    return ghat, build_standardized(ctx, subsets)


def standardization_change(
    ctx: GarsideContext, first, second
) -> ArtinElement:
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
    order = list(std2.peel_order())[::-1]  # deepest level leftmost
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
        for i in reversed(self.std.peel_order()):
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


def peel_delta_powers(
    ctx: GarsideContext, residue: ArtinElement, parts
) -> tuple[int, list[int]]:
    """(gamma, [e_1, ..., e_k]) with residue = Delta_{X_k}^{e_k} ...
    Delta_{X_1}^{e_1} Delta_Gamma^gamma over the parts X_1, ..., X_k.

    Peels from the right: the power of Delta_Gamma dropping the residue into
    the parabolic on the union of the parts, then for each part the power of
    Delta_{X_i} dropping it into the union of the parts after X_i.  Each scan
    is bounded by the residue's Garside complexity and raises
    ExponentBoundExceeded when it runs out.
    """
    exponents = []
    for k, delta_x in enumerate([ctx.delta, *map(ctx.delta_of, parts)]):
        scope = frozenset().union(*parts[k:])
        bound = abs(residue.inf) + residue.canonical_length + 1
        found = scan_powers(
            residue, delta_x.inverse(), bound, lambda g: member_of_standard(g, scope)
        )
        if found is None:
            raise ExponentBoundExceeded(bound)
        exponent, residue, _ = found
        exponents.append(exponent)
    if not residue.is_identity:
        raise InvariantViolated("a residue is left after peeling every factor")
    return exponents[0], exponents[1:]


def extract_ascending_product(
    h: ArtinElement,
    ghat: ArtinElement,
    std: StandardizedSimplex,
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
    order = std.peel_order()
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
