"""Markings: transverse decorations of maximal simplices, and their moves.

A marking is an ordered list of pairs (P_i, Q_i) of irreducible proper
parabolic subgroups: the bases P_i span a maximal simplex, z_{Q_i} commutes
with z_{P_j} exactly when i != j, and each Q_j is simultaneously
standardizable with the whole base.  That last condition is certified
constructively: relative to any standardizer g of the base there is a unique
twist k and standard subset Y with Q_j = g Delta_{X_j}^k A_Y Delta_{X_j}^-k
g^-1, and |k| is read off the infimum of g^-1 z_{Q_j} g, so at most two
twists are tested (decompose_transversal).  Validation finds these
decompositions relative to the canonical standardizer ghat first, and then
decides the commutation pattern on the standardized subsets alone:
conjugation by (ghat Delta_{X_i}^{k_i})^-1 takes Q_i to A_{Y_i} and each
base to a standard A_{X_j}, moved by the involution of Delta_{X_i} when
X_j < X_i and k_i is odd, and z-elements of standard irreducible
subgroups commute exactly when their subsets are nested or disjoint and not
adjacent.  The projection of Q_j onto P_j is the twist k relative to the
canonical standardizer ghat.  Relative to any other standardizer g it is the
Delta_{X_j}-exponent of the ascending product relating g Delta_{X_j}^k to
ghat; relative to ghat that product is Delta_{X_j}^k itself, so no
extraction is needed here (the extraction is a reference implementation in
tests/oracles.py).  The structure of a marking is read off the same
decompositions: conjugation by ghat preserves containment, and A_U <= A_V
exactly when U <= V.

The certificate is the marking's frame, listed by pair index: ghat, the
standardized bases X_i and the decompositions (k_i, Y_i).  Only validation
and a flip, for its flipped base, read ghat and the X_i off a base simplex
(_base_frame); every other move, edge test and standardization reads them
off the certificate, and the levels, where they are needed, are the nesting
levels of the X_i.

One standardizer per base: the certificate is the only source of a
marking's twists, and no move or standardization decomposes against a
second standardizer.  Move the standardizer from ghat to h = ghat
Delta_{X_j}^k, for any base index j and any k.  Conjugation by
Delta_{X_j}^-k moves only the subsets nested in X_j, by the involution pi of
Delta_{X_j} and only at odd k (simplex.delta_twisted), and every other pair
i keeps its twist k_i.  If X_i < X_j, then Y_i <= X_j (the structural
invariant of validate_marking), so the conjugation moves Delta_{X_i} and
A_{Y_i} together: the twist stays k_i and the subset becomes pi^k(Y_i).
Otherwise Delta_{X_j}^-k Delta_{X_i}^{k_i} = Delta_{X_i}^{k_i} Delta_Z^-k,
with A_Z the image of P_j in the frame of pair i, and by the transversality
pattern A_{Y_i} is nested in A_Z or disjoint from it and not adjacent.  It
is not inside A_Z, which lies in A_{X_i} or apart from it while Y_i is
transverse to X_i, so Delta_Z lies in A_{Y_i} or commutes with it, and
normalizes it: the pair keeps (k_i, Y_i).

Twist moves conjugate one transversal by the z-element of its base.  Flip
moves swap one pair and rechoose every other transversal within twist
distance one of the old one, measured against a standardizer shared by both
bases, h = ghat Delta_{X_j}^{k_j}: it takes Q_j to A_{Y_j}, so by the
argument above the old twists relative to h are the certified k_i and the
flipped base standardizes to the delta_twisted base with Y_j at j.  By the
uniqueness of transversal decompositions a replacement is fixed by its
twist and its standard subset, and the subset must keep the transversality
pattern against the flipped base, standardized by the shared standardizer
and moved by the twist.  A maximal standard family has exactly one such
subset at each index (simplex.transversal_subset), the same that
standard_transversals attaches to a standard base, so ranging the twist over
the window enumerates every possible replacement, and the flip neighbors
listed here are complete.  They are also distinct and all valid, so they are
certified without a filter.  Distinct twist tuples give distinct markings,
because the decomposition relative to h is unique and every candidate has
the same bases.  Every candidate keeps the pattern: at j the new transversal
is P_j = h A_{X_j} h^-1, transverse to Q_j and commuting with the other
bases, and at each i != j the subset is the transversal_subset.

Moves carry their certificates, so validate_marking runs only on markings
read from outside.  A twist at j keeps every base, so ghat, every X_i and
every Y_i, and adds direction * z_exponent(X_j) to k_j, because z_{P_j}
= ghat Delta_{X_j}^e ghat^-1.  The flips across j share a flip frame
(FlipFrame): the flipped base B, its canonical standardizer ghat_B, the
swapped pair (Q_j, P_j) with its decomposition, and at each other base the
recipe of its candidates relative to h and an offset.  Both h and ghat_B
standardize B, and twist differences against a shared standardizer do not
depend on which one is used (_flip_frame), so at i != j the twist relative
to ghat_B is the twist t relative to h plus an offset c_i of h, B and P_i
alone.  The subset is then the one pattern-keeping subset of the maximal
standard family delta_twisted(x_B, i, t + c_i) at i, its transversal_subset.
So the frame depends on (base key set, P_j key, Q_j key) only: every marking
with that base set and that pair, its twist variants at the other indices
among them, flips through the same frame, and a context builds it once
(flip_frame).  flip_frame reads ghat_B off the base simplex of B and finds
the offsets with one decomposition per base: at each P_i it decomposes the
candidate with twist k_i relative to h against ghat_B.  A flip is then its
coordinates (P_i key, twist_i, Y_i) relative to ghat_B, listed from the
frame before it is built (frame_flips) and built from them (frame_flip): at
each P_i != P_j the twist relative to h is twist_i - c_i.  The same offsets
decide whether a certified marking with bases B is a flip without
decomposing it: its twists relative to h are its certified twists minus c_i.

Standardization conjugates by ghat and then by Delta_{X_j}^{k_j} for every
pair, deepest level first: a deeper Delta leaves the bases and twists of the
shallower pairs alone, and the Deltas of one level commute.

Markings compare equal as unordered pair sets (canonical keys), while the
stored pair order is preserved by every move.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import (
    BaseNotMaximal,
    InvariantViolated,
    NotAStandardizer,
    NotIrreducible,
    NotMaximal,
    NotProper,
    NotStandard,
    NotSimultaneouslyStandardizable,
    PreconditionViolated,
    TransversalityPatternBroken,
)
from .garside import ArtinElement, GarsideContext
from .parabolic import ParabolicSubgroup, _standard_target, parabolics_from_json, z_exponent
from .simplex import (
    CparabSimplex,
    delta_twisted,
    nesting_levels,
    pattern_break,
    transversal_subset,
)

Subset = frozenset[int]
Pair = tuple[ParabolicSubgroup, ParabolicSubgroup]
# (P_i key, twist_i, Y_i): a pair of a certified marking (Marking.coordinates)
Coordinate = tuple[str, int, Subset]
# a certified marking, or a flip before it is built (frame_flips)
Coordinates = frozenset[Coordinate]
# (base key set, P_j key, Q_j key): the key of a flip frame (flip_frame)
FrameKey = tuple[frozenset[str], str, str]


@dataclass(frozen=True)
class TransversalData:
    """Unique decomposition Q_j = g Delta_{X_j}^twist A_subset Delta^-twist g^-1."""

    twist: int
    subset: Subset


@dataclass(frozen=True)
class MarkingCertificate:
    """The frame of a marking, listed by pair index: the canonical
    standardizer ghat of the base, the standardized bases X_i with
    ghat^-1 P_i ghat = A_{X_i}, and the decomposition (k_i, Y_i) of each
    transversal relative to ghat."""

    ghat: ArtinElement
    bases: tuple[Subset, ...]
    transversals: tuple[TransversalData, ...]


class Marking:
    """Ordered pairs (base, transverse); equality ignores the order."""

    __slots__ = (
        "ctx", "pairs", "_key", "_base", "_cert",
    )

    def __init__(self, ctx: GarsideContext, pairs):
        self.ctx = ctx
        self.pairs: tuple[Pair, ...] = tuple((p, q) for p, q in pairs)
        self._key: str | None = None
        self._base: CparabSimplex | None = None
        self._cert: MarkingCertificate | None = None

    def __len__(self) -> int:
        return len(self.pairs)

    def key(self) -> str:
        if self._key is None:
            self._key = "||".join(
                sorted(f"{p.key()}>{q.key()}" for p, q in self.pairs)
            )
        return self._key

    def ordered_key(self) -> tuple[tuple[str, str], ...]:
        """Pair-order-sensitive key: is_flip_edge tests with it whether a
        swapped pair (Q_j, P_j) sits in a marking."""
        return tuple((p.key(), q.key()) for p, q in self.pairs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Marking)
            and self.ctx is other.ctx
            and self.key() == other.key()
        )

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Marking[{', '.join(f'({p!r},{q!r})' for p, q in self.pairs)}]"

    def base_simplex(self) -> CparabSimplex:
        if self._base is None:
            self._base = CparabSimplex(self.ctx, [p for p, _ in self.pairs])
        return self._base

    def conjugated_by(self, x: ArtinElement) -> Marking:
        return Marking(
            self.ctx,
            [(p.conjugated_by(x), q.conjugated_by(x)) for p, q in self.pairs],
        )

    def all_standard(self) -> bool:
        """Whether every base and transversal is a standard subgroup A_X,
        however its conjugator is written."""
        return all(
            p.canonical()[0].is_identity and q.canonical()[0].is_identity
            for p, q in self.pairs
        )

    def certificate(self) -> MarkingCertificate:
        if self._cert is None:
            self._cert = validate_marking(self)
        return self._cert

    def coordinates(self) -> list[Coordinate]:
        """(P_j key, twist_j, Y_j) per pair, read off the certificate: by the
        uniqueness of transversal decompositions a certified marking is
        the set of them (see graph.bfs)."""
        return [
            (p.key(), d.twist, d.subset)
            for (p, _q), d in zip(self.pairs, self.certificate().transversals)
        ]

    def to_json(self) -> dict:
        return {
            "pairs": [
                {"base": p.to_json(), "transverse": q.to_json()}
                for p, q in self.pairs
            ]
        }

    @staticmethod
    def from_json(ctx: GarsideContext, data: dict) -> Marking:
        parabolics = parabolics_from_json(
            ctx, (pair[side] for pair in data["pairs"] for side in ("base", "transverse"))
        )
        return Marking(ctx, zip(parabolics[::2], parabolics[1::2]))


# -- standard transversals -----------------------------------------------------


def standard_transversals(simplex: CparabSimplex) -> Marking:
    """The simultaneously standardizable marking on a maximal standard base:
    each vertex A_{X_i} paired with A_{Y_i}, Y_i = transversal_subset at i.
    X_i is read off the vertex's canonical form, so a vertex written with a
    conjugator, such as Delta A_{s1,s2} Delta^-1 = A_{s2,s3} in A3, counts
    by the subgroup it is."""
    ctx = simplex.ctx
    if not simplex.all_standard():
        raise NotStandard("all vertices must be standard")
    if not simplex.canonical_data()[1].is_maximal:
        raise BaseNotMaximal("base simplex is not maximal")
    subsets = tuple(v.canonical()[1] for v in simplex.vertices)
    return Marking(
        ctx,
        [
            (v, ParabolicSubgroup.standard(ctx, transversal_subset(ctx, subsets, i)))
            for i, v in enumerate(simplex.vertices)
        ],
    )


# -- validation ----------------------------------------------------------------


def decompose_transversal(
    q: ParabolicSubgroup, base: ParabolicSubgroup, g: ArtinElement, index: int = -1
) -> TransversalData:
    """The unique (k, Y) with q = g Delta_X^k A_Y Delta_X^-k g^-1, where
    A_X = g^-1 (base) g must be standard; raises
    NotSimultaneouslyStandardizable(index) when there is none.

    |k| is read off w = g^-1 z_q g = Delta_X^k z_Y Delta_X^-k: it is
    -min(inf w, 0).  So k = 0 is tested when w is positive, and otherwise
    +|k| and then -|k|, each on z_q alone, with no membership test
    (parabolic._standard_target).  Let Y be transverse to X: neither holds
    the other, and they meet or are adjacent.
      * inf w >= -|k|: inf is superadditive, Delta_X^j has inf 0 and
        Delta_X^-j has inf -j for j >= 0, as X is proper.
      * For k >= 1 write w = b a^-1 with a = Delta_X^k and b = Delta_X^k z_Y,
        and cancel their right gcd.  Then inf w = -sup of what is left of a,
        so inf w > -k would make Delta_X, and every atom of X, right-divide b.
      * X and Y are connected, so some s in X - Y is adjacent to Y.  The left
        lcm of s and Delta_Y is Delta_{Y+s} = M Delta_Y, so if s right-divides
        b = Delta_X^k Delta_Y, then M right-divides Delta_X^k.  But supp M =
        Y + s is not inside X, and right divisors of A_X^+ stay in A_X^+.
        For z_Y = Delta_Y^2 apply this twice: M right-divides
        Delta_X^k Delta_Y, so does s, the only right descent of M, and then M
        right-divides Delta_X^k.  So inf w = -k.
      * k <= -1 follows by word reversal, which fixes inf, Delta_X and z_Y.
    The decomposition is unique, so at most one of +|k| and -|k| passes.  If
    Y is not transverse, Delta_X normalizes A_Y, every k works, w is
    positive and the twist is 0.

    w is formed in the base's frame, as u z_{Y_q} u^-1 with u = g^-1 conj(q)
    and Y_q the generators of q: the long z_q = conj(q) z_{Y_q} conj(q)^-1 is
    never built.  Normal forms are unique, so w, and with it the twist and
    the subset, is the same element either way.
    """
    ctx = q.ctx
    cache = ctx.transversal_decompositions
    cache_key = (q.conj, q.gens, base.conj, base.gens, g)
    hit = cache.get(cache_key)
    if hit is not None:
        return hit
    g_inv = g.inverse()
    c, x = base.conjugated_by(g_inv).canonical()
    if not c.is_identity:
        raise NotAStandardizer(f"{g} does not standardize the base {base}")
    u = g_inv * q.conj
    w = ParabolicSubgroup.standard(ctx, q.gens).z_element().conjugated_by(u)
    size = max(-w.inf, 0)
    d_x = ctx.delta_of(x)
    for twist in (size, -size) if size else (0,):
        target = _standard_target(ctx, d_x**twist, w)
        if target is not None:
            cache[cache_key] = data = TransversalData(twist, target)
            return data
    raise NotSimultaneouslyStandardizable(
        index,
        f"pair {index} is not simultaneously standardizable: no twist k with |k| = {size}"
        " makes it standard",
    )


def _check_index(marking: Marking, j: int) -> None:
    """Raise unless j is a pair index, 0 <= j < len(marking)."""
    if not 0 <= j < len(marking):
        raise PreconditionViolated(f"pair index {j} is outside 0..{len(marking) - 1}")


def transversal_decomposition(
    marking: Marking, j: int, g: ArtinElement
) -> TransversalData:
    """Decomposition of the j-th transversal relative to a base standardizer g."""
    _check_index(marking, j)
    p_j, q_j = marking.pairs[j]
    return decompose_transversal(q_j, p_j, g, j)


def _base_frame(simplex: CparabSimplex) -> tuple[ArtinElement, dict[str, Subset]]:
    """(ghat, X by vertex key) read off a base simplex, whose vertices are in
    canonical order; raises BaseNotMaximal unless the simplex is maximal."""
    ghat, std = simplex.canonical_data()
    if not std.is_maximal:
        raise BaseNotMaximal("base does not span a maximal simplex")
    return ghat, {v.key(): x for v, x in zip(simplex.vertices, std.subsets)}


def validate_marking(marking: Marking) -> MarkingCertificate:
    """Check the three marking conditions; return the marking's frame.

    Errors are checked in this order: a transversal that is not irreducible
    or not proper, a base that is not maximal, a transversal without a
    decomposition Q_i = ghat Delta_{X_i}^{k_i} A_{Y_i} Delta_{X_i}^-k_i
    ghat^-1 (NotSimultaneouslyStandardizable), then the transversality
    pattern, first broken (i, j) in row order (TransversalityPatternBroken).
    The pattern is decided on subsets: conjugating by
    (ghat Delta_{X_i}^{k_i})^-1 takes Q_i to A_{Y_i} and P_j to the
    Delta_{X_i}^{k_i} image of A_{X_j} (simplex.delta_twisted), and the
    z-elements of standard irreducible subgroups commute exactly when their
    subsets are standard-adjacent.
    """
    ctx = marking.ctx
    pairs = marking.pairs
    for _, q in pairs:
        if not q.irreducible:
            raise NotIrreducible(f"transversal {q} is not irreducible")
        if not q.proper:
            raise NotProper(f"transversal {q} is the whole group")
    ghat, subset_of = _base_frame(marking.base_simplex())
    x = tuple(subset_of[p.key()] for p, _ in pairs)
    data = [transversal_decomposition(marking, j, ghat) for j in range(len(pairs))]
    for i, d in enumerate(data):
        m = pattern_break(ctx.graph, d.subset, delta_twisted(ctx, x, i, d.twist), i)
        if m is not None:
            raise TransversalityPatternBroken(i, m)
    # structural sanity: a top-level transversal contains the other top-level
    # bases (Delta_{X_j} commutes with A_{X_k}), and a nested base's
    # transversal lies in every base above it (Delta_{X_j} lies in A_{X_k})
    top = {j for layer in nesting_levels(x).levels[:1] for j in layer}
    for j, k in itertools.product(range(len(pairs)), repeat=2):
        y_j = data[j].subset
        if j != k and j in top and k in top and not x[k] <= y_j:
            raise InvariantViolated(f"transversal {j} misses the top-level base {k}")
        if x[j] < x[k] and not y_j <= x[k]:
            raise InvariantViolated(f"transversal {j} leaves the base {k} above it")
    return MarkingCertificate(ghat, x, tuple(data))


def projection(marking: Marking, j: int) -> int:
    """The integer twist coordinate pi_{P_j}(Q_j): the twist of the j-th
    transversal decomposition relative to the canonical standardizer ghat.

    Relative to any standardizer g, the same value is the Delta_{X_j}-exponent
    of the ascending product relating g Delta_{X_j}^k to ghat, where k is the
    twist relative to g; the tests compute it that way
    (tests/oracles.py::extraction_projection).  The base must be maximal;
    the marking is not validated.
    """
    ghat, std = marking.base_simplex().canonical_data()
    if not std.is_maximal:
        raise NotMaximal("base does not span a maximal simplex")
    return transversal_decomposition(marking, j, ghat).twist


# -- moves ---------------------------------------------------------------------


def twist_move(marking: Marking, j: int, direction: int = 1) -> Marking:
    """Replace Q_j by z_{P_j}^direction Q_j z_{P_j}^-direction; the direction
    is 1 or -1.  The marking is certified first; z_{P_j} fixes every base
    and every z_{P_i}, so the result is a marking too, and its certificate
    is carried over: twist_j moves by direction * z_exponent(X_j)."""
    cert = marking.certificate()
    _check_index(marking, j)
    if direction not in (1, -1):
        raise PreconditionViolated(f"twist direction {direction} is not 1 or -1")
    p_j, q_j = marking.pairs[j]
    z = p_j.z_element() ** direction
    pairs = list(marking.pairs)
    pairs[j] = (p_j, q_j.conjugated_by(z))
    d = cert.transversals[j]
    step = direction * z_exponent(marking.ctx, cert.bases[j])
    data = list(cert.transversals)
    data[j] = TransversalData(d.twist + step, d.subset)
    moved = MarkingCertificate(cert.ghat, cert.bases, tuple(data))
    return _certified(Marking(marking.ctx, pairs), marking, moved)


def _certified(marking: Marking, frame: Marking, cert: MarkingCertificate) -> Marking:
    """The marking, certified by the certificate carried over from a move:
    it has the bases of frame, in the same order, so it shares the frame's
    base simplex, ghat and X_i too."""
    marking._base, marking._cert = frame.base_simplex(), cert
    return marking


def _flip_frame(marking: Marking, j: int) -> tuple[ArtinElement, MarkingCertificate]:
    """The shared standardizer h for a flip across j, and the certificate.

    h = ghat * Delta_{X_j}^{k_j} standardizes the base, the j-th transversal,
    and therefore the base obtained by flipping across j.  The marking is
    certified first, and k_j is read off its certificate.  Twist differences
    measured against a shared standardizer of two bases do not depend on
    which shared standardizer is used (any two differ by an ascending
    product, which shifts both twists equally), and they are preserved
    verbatim under conjugation; the flip condition is stated in these terms.
    """
    cert = marking.certificate()
    _check_index(marking, j)
    return cert.ghat * marking.ctx.delta_of(cert.bases[j]) ** cert.transversals[j].twist, cert


class FlipFrame:
    """What every flip across a pair (P_j, Q_j) shares, for all the markings
    with one base set that hold that pair.  The base set fixes ghat and
    every X_i, and Q_j fixes k_j, so the frame is fixed by (base key set,
    P_j key, Q_j key) and built once per context (flip_frame).  Its
    data is keyed by base, not by pair index: markings with one base set can
    list their pairs in different orders.

    h = ghat Delta_{X_j}^{k_j} is the shared standardizer (_flip_frame).  By
    the unique transversal decomposition, the candidate with twist t and
    standard subset Y at base P_i != P_j is (h Delta_X^t) A_Y (h Delta_X^t)^-1
    with A_X the h-standardization of P_i.  Conjugating by (h Delta_X^t)^-1
    takes the flipped base to the Delta_X^t image of its h-standardization
    (simplex.delta_twisted), a maximal standard family that depends only on
    the parity of t, and Y must keep the transversality pattern against it,
    so Y is its transversal_subset.  recipe[P_i] holds Delta_X and Y by the
    parity of t, and transversal builds the candidate, once per frame, base
    and twist.  The rest is read off B (flip_frame): simplex is the base
    simplex of B, which every flip shares, ghat its canonical standardizer
    and bases its standardized bases, by key.  swapped is the decomposition
    of the swapped pair (Q_j, P_j) relative to ghat.  offsets[P_i] is the
    twist of any transversal at P_i relative to ghat minus its twist
    relative to h, and subsets[P_i] the transversal_subset of the flipped
    family at P_i by the parity of the twist relative to ghat, so the
    candidate with twist t relative to h has the coordinates
    (P_i key, k, subsets[P_i][k % 2]) with k = t + offsets[P_i]
    (frame_flips).
    """

    __slots__ = (
        "h", "recipe", "_candidates", "ghat", "bases", "subsets", "swapped", "offsets", "simplex",
    )

    def __init__(
        self, h: ArtinElement, recipe: dict[str, tuple[ArtinElement, tuple[Subset, Subset]]]
    ):
        self.h = h
        self.recipe = recipe
        self._candidates: dict[tuple[str, int], ParabolicSubgroup] = {}

    def transversal(self, p_key: str, t: int) -> ParabolicSubgroup:
        """The candidate transversal at base p_key with twist t relative to
        h, built once per frame."""
        q = self._candidates.get((p_key, t))
        if q is None:
            q = self._candidates[p_key, t] = _candidate(self.h, self.recipe[p_key], t)
        return q


def _candidate(
    h: ArtinElement, recipe: tuple[ArtinElement, tuple[Subset, Subset]], t: int
) -> ParabolicSubgroup:
    d_x, by_parity = recipe
    return ParabolicSubgroup(h.ctx, h * d_x**t, by_parity[t % 2])


def _by_parity(ctx: GarsideContext, family, i: int) -> tuple[Subset, Subset]:
    """transversal_subset at i of the family moved by an even and an odd
    power of Delta_{family[i]}."""
    return tuple(transversal_subset(ctx, delta_twisted(ctx, family, i, t), i) for t in (0, 1))


def flip_frame(marking: Marking, j: int) -> FlipFrame:
    """The flip frame of marking across j (FlipFrame).  The marking is
    certified and j checked first, so an invalid marking raises its
    validation error; a flipped base that is not maximal raises
    BaseNotMaximal.  The frame is a function of its key (base key set, P_j
    key, Q_j key), built on the first call with that key and kept in the
    context's flip_frames memo.

    ghat_B and the flipped bases are read off the base simplex of B =
    {P_i : i != j} and Q_j, by vertex key; no marking is built.  Relative to
    h every other pair keeps its certified twist k_i, and the flipped base
    standardizes to the Delta_{X_j}^{k_j} image of the base with Y_j at
    index j (see the module docstring).  The swapped pair is decomposed
    against ghat_B, and at each P_i != P_j so is one candidate, the one with
    twist k_i relative to h: one decomposition per base, and the offset at
    P_i is its twist there minus k_i."""
    ctx = marking.ctx
    marking.certificate()
    _check_index(marking, j)
    keys = [p.key() for p, _q in marking.pairs]
    p_j, q_j = marking.pairs[j]
    frame_key = (frozenset(keys), keys[j], q_j.key())
    frame = ctx.flip_frames.get(frame_key)
    if frame is not None:
        return frame
    flipped = [q_j if i == j else p for i, (p, _q) in enumerate(marking.pairs)]
    simplex = CparabSimplex(ctx, flipped)
    ghat, bases = _base_frame(simplex)
    h, cert = _flip_frame(marking, j)
    x_h = list(delta_twisted(ctx, cert.bases, j, cert.transversals[j].twist))
    x_h[j] = cert.transversals[j].subset
    x = [bases[v.key()] for v in flipped]
    anchors = {i: d.twist for i, d in enumerate(cert.transversals) if i != j}
    frame = FlipFrame(
        h, {keys[i]: (ctx.delta_of(x_h[i]), _by_parity(ctx, x_h, i)) for i in anchors}
    )
    frame.simplex, frame.ghat, frame.bases = simplex, ghat, bases
    frame.subsets = {keys[i]: _by_parity(ctx, x, i) for i in anchors}
    frame.swapped = decompose_transversal(p_j, q_j, ghat, j)
    frame.offsets = {
        keys[i]: decompose_transversal(frame.transversal(keys[i], k_i), flipped[i], ghat, i).twist
        - k_i
        for i, k_i in anchors.items()
    }
    ctx.flip_frames[frame_key] = frame
    return frame


def frame_flips(marking: Marking, j: int, frame: FlipFrame) -> Iterator[Coordinates]:
    """The coordinates of every flip of marking across j, in table order,
    read off its certificate and its flip frame; none is built.

    The new pair j is the swap (Q_j, P_j) with the frame's decomposition.
    At every other index i, in index order, the twist relative to h ranges
    over the window k_i - 1..k_i + 1 of width one around the certified
    twist, in increasing order, and each twist gives the coordinates of its
    candidate (FlipFrame).  A flip takes one item of every window, so
    itertools.product lists the flips with the indices varying last to
    first."""
    windows = []
    for i, (p_key, k_i, _y) in enumerate(marking.coordinates()):
        if i != j:
            c, by_parity = frame.offsets[p_key], frame.subsets[p_key]
            windows.append(
                [(p_key, k, by_parity[k % 2]) for k in range(k_i + c - 1, k_i + c + 2)]
            )
    swapped = (marking.pairs[j][1].key(), frame.swapped.twist, frame.swapped.subset)
    for combo in itertools.product(*windows):
        yield frozenset((swapped, *combo))


def frame_flip(
    marking: Marking, j: int, frame: FlipFrame, coordinates: Coordinates
) -> Marking:
    """The flip of marking across j with the given coordinates, one set of
    frame_flips.  The new pair j is the swap (Q_j, P_j), and at every other
    base P_i the transversal is the frame's candidate with twist
    twist_i - offsets[P_i] relative to h.  Every such candidate is a flip
    (see the module docstring), and it is certified by its coordinates,
    with no decomposition, and shares the frame's base simplex."""
    at = {p_key: (k, y) for p_key, k, y in coordinates}
    pairs = list(marking.pairs)
    for i, (p, q) in enumerate(marking.pairs):
        if i == j:
            pairs[i] = (q, p)
        else:
            key = p.key()
            pairs[i] = (p, frame.transversal(key, at[key][0] - frame.offsets[key]))
    flipped = Marking(marking.ctx, pairs)
    keys = [p.key() for p, _q in pairs]
    flipped._base = frame.simplex
    flipped._cert = MarkingCertificate(
        frame.ghat,
        tuple(frame.bases[key] for key in keys),
        tuple(TransversalData(*at[key]) for key in keys),
    )
    return flipped


def flip_candidates(marking: Marking, j: int) -> list[Marking]:
    """Every flip across index j, certified by its frame, in table order
    (frame_flips).  Every candidate has the bases {P_i : i != j} and Q_j,
    and every one is a flip (see the module docstring).  The marking is
    certified first, so an invalid one raises its validation error.
    """
    frame = flip_frame(marking, j)
    return [frame_flip(marking, j, frame, c) for c in frame_flips(marking, j, frame)]


def enumerate_flip_moves(marking: Marking, j: int) -> list[Marking]:
    """All flips across index j, certified by transport and sorted by key.

    Each other transversal is replaced by a candidate whose twist relative to
    the shared standardizer differs from the old one by at most one.  The
    candidates of flip_candidates are distinct and all valid, and their
    certificates are carried over from the frame (see the module
    docstring), so none of them is validated again.
    """
    return sorted(flip_candidates(marking, j), key=Marking.key)


def _base_index(marking: Marking) -> dict[str, int]:
    """Pair index by base key; no key repeats in a certified marking."""
    return {p.key(): i for i, (p, _q) in enumerate(marking.pairs)}


def is_flip_edge(a: Marking, b: Marking) -> bool:
    """Whether b is a flip of a: one pair (P_j, Q_j) swapped, so P_j is not
    a base of b, and every other transversal within twist distance one
    relative to a shared standardizer.  Both ends are certified first, so a
    non-marking raises its validation error.  The twists of a are its
    certified ones; only b is decomposed against that standardizer.  The
    bfs boundary closure decides the same condition by flip frame offsets."""
    a.certificate()
    b.certificate()
    at_b = _base_index(b)
    swapped = [j for j, (p, _q) in enumerate(a.pairs) if p.key() not in at_b]
    if len(a) != len(b) or len(swapped) != 1:
        return False
    j = swapped[0]
    p_j, q_j = a.pairs[j]
    if (q_j.key(), p_j.key()) not in b.ordered_key():
        return False
    h, cert = _flip_frame(a, j)
    return all(
        abs(cert.transversals[i].twist - transversal_decomposition(b, at_b[p.key()], h).twist) <= 1
        for i, (p, _q) in enumerate(a.pairs)
        if i != j
    )


def is_twist_edge(a: Marking, b: Marking) -> bool:
    """Whether b is a single twist of a.  Both ends are certified first, so
    a non-marking raises its validation error."""
    a.certificate()
    b.certificate()
    at_b = _base_index(b)
    if at_b.keys() != _base_index(a).keys():
        return False
    moved = [
        (p, q, b.pairs[at_b[p.key()]][1])
        for p, q in a.pairs
        if q.key() != b.pairs[at_b[p.key()]][1].key()
    ]
    if len(moved) != 1:
        return False
    p, qa, qb = moved[0]
    z = p.z_element()
    return qb == qa.conjugated_by(z) or qb == qa.conjugated_by(z.inverse())


# -- standardization and stabilizers -----------------------------------------


def standardize_marking(marking: Marking) -> tuple[ArtinElement, Marking]:
    """(c, M0) with marking = c M0 c^-1 and M0 entirely standard.

    c = ghat * prod Delta_{X_j}^{k_j} over the pairs, deepest level first,
    with the certified twists k_j: conjugating by ghat standardizes the base,
    and each Delta power absorbs one twist without moving the bases or the
    twists of the pairs above it (see the module docstring).
    """
    ctx = marking.ctx
    cert = marking.certificate()
    conj = cert.ghat
    for layer in reversed(nesting_levels(cert.bases).levels):
        for j in layer:
            k_j = cert.transversals[j].twist
            if k_j:
                conj = conj * ctx.delta_of(cert.bases[j]) ** k_j
    cur = marking.conjugated_by(conj.inverse())
    # normal-form representations: swap every pair for its standard form
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


def marking_stabilizer(marking: Marking) -> int:
    """The d with Stab(mu) = <Delta^d> for a standard marking mu: 1 when
    conjugation by Delta fixes mu, else 2.  The marking is certified first,
    so an invalid one raises its validation error, and one that is not all
    standard raises NotStandard.

    The pairs of mu are (A_{X_i}, A_{Y_i}), so its canonical standardizer
    ghat is 1 and every pair has twist 0 relative to it.  Let g stabilize
    mu.  Conjugation by g permutes the pairs: g A_{X_i} g^-1 = A_{X_s(i)}
    and g A_{Y_i} g^-1 = A_{Y_s(i)} for a permutation s of the indices.  So
    g standardizes the base, and g = ghat p for the unique ascending product
    p of powers of the Delta_{X_i} and of Delta_Gamma over the base, the
    statement the module and simplex docstrings rely on
    (tests/oracles.py::extract_ascending_product is its reference
    implementation).  Relative to g every pair has twist 0 as well: pair
    s(i) is g A_{Y_i} g^-1 over g A_{X_i} g^-1.  The projection of pair j is
    its twist relative to ghat, and also the exponent at X_j of the
    ascending product relating g Delta_X^k to ghat, with k the twist of the
    pair relative to g and A_X = g^-1 A_{X_j} g (projection).  Here k = 0,
    that product is p, and the projections are 0, so every exponent of p at
    an X_j is 0 and g = Delta_Gamma^gamma = Delta^gamma.  Delta^2 is
    central, so it stabilizes every marking, and the stabilizer is <Delta>
    when Delta fixes mu and <Delta^2> otherwise.
    """
    marking.certificate()
    if not marking.all_standard():
        raise NotStandard("the stabilizer is computed for an all-standard marking")
    return 1 if marking.conjugated_by(marking.ctx.delta) == marking else 2
