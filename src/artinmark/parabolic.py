"""Parabolic subgroups as first-class values.

A parabolic subgroup is stored as a pair (conj, gens) representing
conj * A_gens * conj^-1.  Equality and hashing go through the canonical
form: the unique minimal positive standardizer c and target subset Y with
P = c A_Y c^-1.

The minimal standardizer is found by a descent, not a search.  Positive
standardizers are closed under left gcd, so the minimum m left-divides every
positive standardizer c (Cumplido, J. Algebraic Combin. 2019): c = m r, where
r conjugates A_Y onto the target of m.  Such an r is a positive ribbon times
an element of A_Y^+, and every positive ribbon is a product of elementary
ribbons d_{Y,t} (Paris, J. Algebra 1997).  So while c != m, some atom of Y
or some d_{Y,t} with t outside Y right-divides c; stripping it leaves a
positive standardizer, with the ribbon's target as the new Y.  The descent
starts from Delta^(2N) conj, N = -floor(inf conj / 2), whose infimum is 0
or 1, and stops when nothing can be stripped.

Each strip is decided without a trial product.  Every strip d is simple, so
for positive c, c d^-1 is positive exactly when d right-divides c, that is
when d right-divides the right head rho(c) = c ^_R Delta, the largest simple
right divisor of c.  rho(c) = Delta when inf c >= 1; otherwise it is folded
over the body of c with rho(A x) = rho(rho(A) x), the mirror of
Delta ^ ab = Delta ^ a(Delta ^ b) (Epstein et al., Word Processing in
Groups, ch. 9), each step one slide (ArtinElement.right_head).  Between two
simples, d right-divides rho in W exactly when every positive root that d
sends negative is sent negative by rho (RootSystem._inversions).  So each
step of the descent computes rho(c) once, tests the strips in order and
builds one product: the strip it takes.

A family with pairwise commuting z's has a simultaneous standardizer
(Cumplido, Gebhardt, Gonzalez-Meneses, Wiest, Adv. Math. 2019), and the
climb needs no more: the positive standardizers of each P_i are closed under
left gcd, so their intersection is too and has a least element m.  Given a
prefix c of m, the least standardizer of P_i above c is
c * (minimal standardizer of c^-1 P_i c), which divides m; multiplying those
in round-robin from c = 1 therefore climbs to m.

Adjacency is decided in the first vertex's frame: z_{hPh^-1} = h z_P h^-1 and
conjugation is an automorphism, so conjugating a family by g^-1 changes no
commutation, and it turns each vertex g A_X g^-1 into A_X with the short z_X.
Two standard vertices A_X and A_Y are adjacent exactly when X and Y are
nested, or disjoint with no edge of the Coxeter graph between them
(standard_adjacent; the tests compare it with z-commutation on six types).

Standard conjugates are recognised by z-elements alone: z determines an
irreducible parabolic subgroup (Cumplido, Gebhardt, Gonzalez-Meneses,
Wiest, Adv. Math. 2019), the fact behind the adjacency test too.  So c^-1 P c
is a standard A_T exactly when c^-1 z_P c is positive and is z_T for its
support T (_standard_target), with no membership test.

The z-exponent is read off W, not off a table of types.  The centre of an
irreducible A_X is generated by Delta_X or by Delta_X^2 (Brieskorn-Saito,
Artin-Gruppen und Coxeter-Gruppen, Invent. Math. 1972), so z_X = Delta_X^e
with e the least exponent making Delta_X^e central.  Delta_X s Delta_X^-1 =
pi(s) for every atom s of X, where pi is the involution of X induced by the
longest element of W_X (delta_permutation).  The atoms generate A_X, so
Delta_X is central exactly when pi = id, and Delta_X^2 always is, as
pi^2 = id: z_exponent is 1 when pi is trivial and 2 otherwise.  Both are
memoized together, once per subset, in ctx.delta_involutions.

Conjugacy of standard parabolic subgroups is an orbit search from X.  A_X
and A_X' are conjugate exactly when some positive ribbon carries X to X',
and every positive ribbon is a product of elementary ribbons d_{Z,t}
(Paris, Parabolic subgroups of Artin groups, J. Algebra 1997).  The
elementary ribbon d_{Z,t} = Delta_C Delta_{C-t}^-1, with C the component of
Z + {t} holding t, moves Z to Z + {t} - {pi_C(t)}, pi_C the involution of
Delta_C (_ribbon_move, which elementary_ribbon reads its target off too).
So standard_conjugate walks these moves breadth-first from X and
stops at X'.  Each move keeps the size of Z, so the search visits at most
C(n, |X|) subsets and needs no budget.  The Paris graph on all 2^n subsets,
with an edge (Y, t, t') where the involution of a component of Y moves t to
t', is never built: conjugacy_edge_count counts its edges per connected
component.  A component whose Delta_X is central has the trivial involution
and adds no edge and no move.
"""

from __future__ import annotations

import itertools
from collections import deque
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    Disconnected,
    EmptySubset,
    InvariantViolated,
    MixedContext,
    NotASimplex,
    NotAnXRibbonX,
    NotIrreducible,
    NotProper,
    ParseError,
    PreconditionViolated,
)
from .garside import ArtinElement, GarsideContext, parse_element

Subset = frozenset[int]


def central_generator_z(ctx: GarsideContext, subset: Subset) -> ArtinElement:
    """z_X: the minimal central power of Delta_X, per irreducible component."""
    subset = frozenset(subset)
    if not subset:
        raise EmptySubset("z is undefined for the empty subset")
    out = ctx.identity
    for comp in ctx.graph.components(subset):
        out = out * ctx.delta_of(comp) ** z_exponent(ctx, comp)
    return out


def delta_permutation(ctx: GarsideContext, subset: Subset) -> Mapping[int, int]:
    """The permutation s -> Delta_X s Delta_X^-1 of a connected subset, as a
    read-only mapping shared through ctx.delta_involutions."""
    return _delta_involution(ctx, subset)[0]


def z_exponent(ctx: GarsideContext, subset: Subset) -> int:
    """The exponent e of z_X = Delta_X^e for a connected subset X: 1 when
    the involution of Delta_X is trivial, else 2 (see the module docstring)."""
    return _delta_involution(ctx, subset)[1]


def _delta_involution(ctx: GarsideContext, subset) -> tuple[Mapping[int, int], int]:
    """(involution, z-exponent) of a connected subset, given as any iterable
    of generator indices and memoized under its frozenset."""
    subset = frozenset(subset)
    entry = ctx.delta_involutions.get(subset)
    if entry is not None:
        return entry
    if not ctx.graph.is_connected(subset) or not subset:
        raise Disconnected(f"subset {sorted(subset)} must be connected and nonempty")
    w0x = ctx.w0_of(subset)
    out = {}
    for s in subset:
        image = ctx.system.generator_of(w0x * ctx.system.generators[s] * w0x.inverse())
        if image not in subset:
            raise InvariantViolated(f"Delta_X does not permute the generators {sorted(subset)}")
        out[s] = image
    exponent = 1 if all(s == t for s, t in out.items()) else 2
    entry = ctx.delta_involutions[subset] = (MappingProxyType(out), exponent)
    return entry


class ParabolicSubgroup:
    """A subgroup conj * A_gens * conj^-1 with a cached canonical form.

    Instances are interned: the context holds one per (conj, gens), so the
    canonical form, z and key of a representative are computed once.
    Equality and hashing still go through the canonical form, never identity.
    """

    __slots__ = ("ctx", "conj", "gens", "_canonical", "_z", "_key")

    def __new__(cls, ctx: GarsideContext, conj: ArtinElement, gens: Subset):
        gens = frozenset(gens)
        self = ctx.parabolics.get((conj, gens))
        if self is None:
            if conj.ctx is not ctx:
                raise MixedContext("conjugator from a different group")
            self = ctx.parabolics[conj, gens] = object.__new__(cls)
            self.ctx = ctx
            self.conj = conj
            self.gens = gens
            self._canonical: tuple[ArtinElement, Subset] | None = None
            self._z: ArtinElement | None = None
            self._key: str | None = None
        return self

    @staticmethod
    def standard(ctx: GarsideContext, gens: Subset) -> ParabolicSubgroup:
        return ParabolicSubgroup(ctx, ctx.identity, frozenset(gens))

    @property
    def irreducible(self) -> bool:
        return bool(self.gens) and self.ctx.graph.is_connected(self.gens)

    @property
    def proper(self) -> bool:
        return self.gens != frozenset(self.ctx.graph.vertices)

    @property
    def is_standard_rep(self) -> bool:
        return self.conj.is_identity

    def z_element(self) -> ArtinElement:
        """z_P, independent of the representation."""
        if self._z is None:
            zx = central_generator_z(self.ctx, self.gens)
            self._z = self.conj * zx * self.conj.inverse()
        return self._z

    def conjugated_by(self, x: ArtinElement) -> ParabolicSubgroup:
        return ParabolicSubgroup(self.ctx, x * self.conj, self.gens)

    def canonical(self) -> tuple[ArtinElement, Subset]:
        """(minimal positive standardizer c, subset Y) with P = c A_Y c^-1."""
        if self._canonical is None:
            self._canonical = minimal_standardizer(self)
        return self._canonical

    def key(self) -> str:
        if self._key is None:
            c, gens = self.canonical()
            names = ",".join(self.ctx.graph.name(i) for i in sorted(gens))
            self._key = f"{c.to_text()}|{names}"
        return self._key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ParabolicSubgroup) or self.ctx is not other.ctx:
            return False
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        names = ",".join(self.ctx.graph.name(i) for i in sorted(self.gens))
        if self.is_standard_rep:
            return f"<A_{{{names}}}>"
        return f"<{self.conj.to_text()} . A_{{{names}}}>"

    def to_json(self) -> dict:
        return {
            "conj": self.conj.to_text(),
            "gens": [self.ctx.graph.name(i) for i in sorted(self.gens)],
        }

    @staticmethod
    def from_json(ctx: GarsideContext, data: dict) -> ParabolicSubgroup:
        return parabolics_from_json(ctx, [data])[0]


def parabolics_from_json(ctx: GarsideContext, items: Iterable[dict]) -> list[ParabolicSubgroup]:
    """Read serialized parabolics in order, parsing each distinct conj text
    once: the vertices of a conjugated simplex or marking share one.  The
    texts are mapped to elements in a dict local to the call."""
    conjs: dict[str, ArtinElement] = {}
    out = []
    for data in items:
        text = data.get("conj", "DELTA^0 |")
        if not isinstance(text, str):
            raise ParseError(f"conj must be an element string, not {text!r}")
        conj = conjs.get(text)
        if conj is None:
            conj = conjs[text] = parse_element(ctx, text)
        names = data["gens"]
        if not isinstance(names, list):
            raise ParseError(f"gens must be a list of generator names, not {names!r}")
        out.append(ParabolicSubgroup(ctx, conj, frozenset(ctx.graph.index(n) for n in names)))
    return out


def _standard_target(
    ctx: GarsideContext, candidate: ArtinElement, z_p: ArtinElement
) -> Subset | None:
    """Subset T with c^-1 P c = A_T for the candidate c, or None, from z_P.

    c^-1 P c has z-element w = c^-1 z_P c.  If it is A_T, then w = z_T, which
    is positive with support T; conversely, for an irreducible P, w = z_T
    forces c^-1 P c = A_T, as z determines the subgroup.
    """
    w = candidate.inverse() * z_p * candidate
    if not w.is_positive:
        return None
    target = w.support()
    return target if w == ParabolicSubgroup.standard(ctx, target).z_element() else None


class Ribbon(NamedTuple):
    """A positive conjugator carrying the source generator set to the target.
    Ribbons compose by *, which replaces the tuple repetition."""

    element: ArtinElement
    source: Subset
    target: Subset

    def __mul__(self, earlier: Ribbon) -> Ribbon:
        """Composite ribbon applying `earlier` first."""
        if earlier.target != self.source:
            raise NotAnXRibbonX(
                f"cannot compose: source {sorted(self.source)} != target {sorted(earlier.target)}"
            )
        return Ribbon(self.element * earlier.element, earlier.source, self.target)


def elementary_ribbon(ctx: GarsideContext, subset, t: int) -> Ribbon:
    """The elementary conjugator d_{X,t} with its target subset.

    d_{X,t} is Delta_C Delta_{C-{t}}^-1 for t outside X and Delta_C for t in
    X, with C the component of X + {t} holding t.  It is simple, and its
    target is read off the involution of Delta_C (_ribbon_move).
    """
    x = frozenset(subset)
    comp, target = _ribbon_move(ctx, x, t)
    w = ctx.w0_of(comp)
    if t not in x:
        w = w * ctx.w0_of(comp - {t})  # w0 of a subset is an involution
    return Ribbon(ctx.element(0, (w,)), x, target)


def _ribbon_move(ctx: GarsideContext, x: Subset, t: int) -> tuple[Subset, Subset]:
    """(C, target) for d_{X,t}, C the component of X + {t} holding t.

    For t in X, Delta_C permutes C and commutes with the other components,
    so the target is X.  For t outside X, Delta_{C-{t}}^-1 permutes C - {t},
    and Delta_C then carries it to C - {pi_C(t)}, pi_C the involution of
    Delta_C: the target is X + {t} - {pi_C(t)}.
    """
    y = x | {t}
    comp = next(c for c in ctx.graph.components(y) if t in c)
    if t in x:
        return comp, x
    return comp, y - {delta_permutation(ctx, comp)[t]}


def minimal_standardizer(p: ParabolicSubgroup) -> tuple[ArtinElement, Subset]:
    """Minimal positive c with c^-1 P c standard, plus the target subset.

    Descends from the positive standardizer Delta^(2N) conj with
    N = -floor(inf conj / 2) (Delta^2 is central), whose infimum is 0 or 1,
    so no Delta^2 is left to strip one atom at a time; it strips atoms of
    the target and elementary ribbons d_{target,t} from the right while the
    rest stays positive.  See the module docstring for why the descent ends
    at the minimum.

    No trial product is built.  For a simple d, c d^-1 is positive exactly
    when d right-divides the right head rho(c) = c ^_R Delta: Delta when
    inf c >= 1, else the fold rho(A x) = rho(rho(A) x) over the body
    (ArtinElement.right_head).  That is decided in W: d right-divides rho
    exactly when the inversions of d lie in those of rho
    (RootSystem._inversions).  Each step computes rho(c) once, tests the
    strips in order and builds one product, the strip it takes.
    """
    if not p.gens:
        raise EmptySubset("the canonical form needs a nonempty generator subset")
    ctx = p.ctx
    inversions = ctx.system._inversions
    c = ctx.delta ** (-2 * (p.conj.inf // 2)) * p.conj
    target = p.gens
    while True:
        head = inversions(c.right_head().perm)
        for d_inv, image, bits in _descent_strips(ctx, target):
            if bits & head == bits:
                c, target = c * d_inv, image
                break
        else:
            return c, target


def _descent_strips(
    ctx: GarsideContext, target: Subset
) -> tuple[tuple[ArtinElement, Subset, int], ...]:
    """What the descent tries to strip from a standardizer onto A_target, in
    order, as (d^-1, the target after, the inversions of the simple d): the
    atoms of the target ascending, then d_{target,t} for t ascending outside
    it.  Built once per target and kept in ctx.standardizer_strips."""
    strips = ctx.standardizer_strips.get(target)
    if strips is None:
        system = ctx.system
        simples = [(system.generators[s], target) for s in sorted(target)]
        for t in range(ctx.rank):
            if t not in target:
                ribbon = elementary_ribbon(ctx, target, t)
                simples.append((ribbon.element.body[0], ribbon.target))
        strips = tuple(
            (ctx.element(0, (d,)).inverse(), image, system._inversions(d.perm))
            for d, image in simples
        )
        ctx.standardizer_strips[target] = strips
    return strips


def standard_adjacent(graph, x: Subset, y: Subset) -> bool:
    """Edge test for standard irreducible subgroups, combinatorially."""
    if x <= y or y <= x:
        return True
    return not (x & y) and not any(graph.adjacent(a, b) for a in x for b in y)


def nonadjacent_pair(parabolics):
    """The first pair of vertices whose z's do not commute in the first
    vertex's frame, or None; raises on a reducible or improper vertex.

    A vertex that shares the first vertex's conjugator is A_X in that frame,
    framed with no product, and two such vertices are compared by
    standard_adjacent on their subsets; any other pair by its z-product."""
    for v in parabolics:
        if not v.irreducible:
            raise NotIrreducible(f"{v} is not irreducible")
        if not v.proper:
            raise NotProper(f"{v} is the whole group")
    if not parabolics:
        return None
    ctx, g = parabolics[0].ctx, parabolics[0].conj
    g_inv = g.inverse() if any(v.conj != g for v in parabolics) else None
    framed = [
        ParabolicSubgroup.standard(ctx, v.gens) if v.conj == g else v.conjugated_by(g_inv)
        for v in parabolics
    ]
    for (p, fp), (q, fq) in itertools.combinations(zip(parabolics, framed), 2):
        if fp.is_standard_rep and fq.is_standard_rep:
            adjacent = standard_adjacent(ctx.graph, fp.gens, fq.gens)
        else:
            adjacent = fp.z_element().commutes_with(fq.z_element())
        if not adjacent:
            return p, q
    return None


def check_simplex_family(parabolics) -> None:
    """Raise unless the parabolics are irreducible, proper and have pairwise
    commuting z's, the condition for a minimal simultaneous standardizer.
    The z's of P_i = g_i A_{X_i} g_i^-1 are compared after conjugating by
    g_0^-1, which changes no commutation, so g_i = g_0 gives the short z_{X_i}."""
    pair = nonadjacent_pair(parabolics)
    if pair is not None:
        raise NotASimplex(f"{pair[0]} and {pair[1]} are not adjacent")


def simultaneous_standardizer(
    ctx: GarsideContext, parabolics: list[ParabolicSubgroup]
) -> tuple[ArtinElement, list[Subset]]:
    """Minimal positive c with every c^-1 P_i c standard, plus the targets.

    Climbs from c = 1 by c <- c * (minimal standardizer of c^-1 P_i c),
    round-robin, until a full round leaves c unchanged; c^-1 is computed
    once per change of c, when it is next used.
    """
    check_simplex_family(parabolics)
    n = len(parabolics)
    c = c_inv = ctx.identity
    targets: list[Subset] = [frozenset()] * n
    settled = i = 0
    while settled < n:
        if c_inv is None:
            c_inv = c.inverse()
        step, targets[i] = parabolics[i].conjugated_by(c_inv).canonical()
        if step.is_identity:
            settled += 1
        else:
            c, c_inv = c * step, None
            settled = 1
        i = (i + 1) % n
    return c, targets


# -- Paris conjugacy of standard parabolic subgroups --------------------------


def conjugacy_edge_count(ctx: GarsideContext) -> int:
    """The number of edges (Y, t, t') of the Paris graph on all 2^n subsets:
    t != t' in a component of Y whose involution moves t to t'.

    A subset Y has the connected C as a component exactly when Y = C + Z
    with Z outside C and its neighbours N(C), so C is a component of
    2^(n - |C + N(C)|) subsets, and each adds one edge per generator that
    pi_C moves.  The whole vertex set is connected, as the type is
    irreducible.
    """
    graph = ctx.graph
    count = 0
    for comp in ctx.connected_proper_subsets() + (frozenset(graph.vertices),):
        moved = sum(t != t2 for t, t2 in delta_permutation(ctx, comp).items())
        closure = comp.union(*map(graph.neighbors, comp))
        count += moved << (ctx.rank - len(closure))
    return count


def standard_conjugate(ctx: GarsideContext, x: Subset, x2: Subset) -> bool:
    """Whether A_X and A_X' are conjugate.

    Breadth-first search from X over the elementary ribbon moves
    Z -> Z + {t} - {pi_C(t)}, C the component of Z + {t} holding t (see the
    module docstring); it stops when it reaches X'.  Every move keeps |Z|,
    so at most C(n, |X|) subsets are visited, n the rank.  A generator index
    outside 0..n-1 in either subset raises PreconditionViolated first.
    """
    x, x2 = frozenset(x), frozenset(x2)
    stray = (x | x2) - frozenset(ctx.graph.vertices)
    if stray:
        raise PreconditionViolated(
            f"generators {sorted(stray)} are outside 0..{ctx.rank - 1}"
        )
    if len(x) != len(x2):
        return False
    seen, queue = {x}, deque([x])
    while queue and x2 not in seen:
        z = queue.popleft()
        for t in range(ctx.rank):
            if t in z:
                continue
            image = _ribbon_move(ctx, z, t)[1]
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return x2 in seen
