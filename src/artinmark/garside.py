"""Exact arithmetic in a finite-type Artin group via its Garside structure.

An element is stored in left-greedy normal form Delta^p x_1 ... x_l where the
x_i are simples, i.e. elements of the finite Coxeter group W (every element
of W divides the longest element w0, the image of Delta).  A pair (u, v) of
adjacent factors is normal when the left descent set of v is contained in
the right descent set of u; the normalizer repeatedly slides the maximal
absorbable prefix of v into u until every pair is normal, then pulls leading
w0 factors into the Delta exponent.

The prefix-order meet of two simples strips w0 of the common left descents
(RootSystem._strip).  No table of W is materialized, so one code serves
I2(3), E8.

A slide works on raw tables (RootSystem._slide_tables).  The pair (u, v)
is normal exactly when L(v) lies in R(u), which two n-byte descent keys
decide with no product and no meet.  Otherwise the head moved into u is the
meet of u^-1 Delta and v; the roots blocked by u^-1 Delta are the beta with
u(beta) negative, read off u's table, so neither the complement nor the
meet nor its inverse is interned: only the two new factors are.

Products are incremental: each factor of the right operand is appended to
the (left-weighted) body and one right-to-left sweep of slides restores
left-weightedness, stopping at the first pair that is already normal
(Epstein et al., Word Processing in Groups, ch. 9).  Every other
constructor goes through the same sweep.  The largest simple right divisor
of a positive element is read off the same slides, one per factor of its
body (ArtinElement.right_head).

Signed generator words enter in runs: maximal stretches of letters of one
sign whose positive word is reduced, each one simple (a positive run) or
Delta^-1 times a simple (a negative run, through s^-1 = Delta^-1 (Delta
s^-1) applied to the whole run).  The Delta powers are commuted to the
front with the conjugation automorphism tau(x) = w0 x w0, and one sweep
normalizes the runs: the sweep is fed one factor per run, not per letter.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Mapping

from .coxeter import (
    CoxeterElement,
    DefiningGraph,
    RootSystem,
    build_defining_graph,
    longest_element,
    root_reflection_table,
)
from .errors import InvariantViolated, MixedContext, NotPositive, ParseError

if TYPE_CHECKING:
    from .marking import FlipFrame, FrameKey, TransversalData
    from .parabolic import ParabolicSubgroup
    from .simplex import StandardizedSimplex

Word = tuple[tuple[int, int], ...]  # (generator index, +1 or -1)


class GarsideContext:
    """The tables of one Artin group and every memo shared across calls.

    Every memo is declared here, and each entry is written once: the slides
    and tau images of the simple elements and the Delta_X elements, transversal
    subsets by (family, index), parabolics interned by (conj, gens), the
    Delta_X involution of each connected subset X with its z-exponent
    (parabolic.delta_permutation and parabolic.z_exponent), the strips of the
    minimal standardizer descent, each with the inversions of its simple, by
    target subset (at most one entry per subset of the vertices), and
    two memos that several representatives share, keyed by value: the
    canonical data of a simplex (by its sorted vertex keys) and transversal
    decompositions (by transversal, standardized base and inverted
    standardizer).  The flip frames are kept by (base key set, P_j key,
    Q_j key) (marking.flip_frame), so an exploration reads the frames that
    earlier calls on the context built.  Meets and complements of simples are not
    memoized: each is one table operation on interned elements.  The memos
    hold results only: a failure is recomputed and raised fresh.
    """

    def __init__(self, graph: DefiningGraph, system: RootSystem):
        self.graph = graph
        self.system = system
        self.rank = graph.rank
        self.delta_w = longest_element(system, frozenset(graph.vertices))
        self.delta_len = self.delta_w.length
        self._slide: dict[tuple[int, int], tuple[CoxeterElement, CoxeterElement] | None] = {}
        self._tau: dict[int, CoxeterElement] = {}
        self._delta_of: dict[frozenset[int], ArtinElement] = {}
        self._connected_proper: tuple[frozenset[int], ...] | None = None
        self.transversal_subsets: dict[tuple, frozenset[int]] = {}
        self.delta_involutions: dict[frozenset[int], tuple[Mapping[int, int], int]] = {}
        self.standardizer_strips: dict[
            frozenset[int], tuple[tuple[ArtinElement, frozenset[int], int], ...]
        ] = {}
        self.parabolics: dict[tuple[ArtinElement, frozenset[int]], ParabolicSubgroup] = {}
        self.simplex_canonical: dict[
            str, tuple[tuple[str, ...], ArtinElement, StandardizedSimplex]
        ] = {}
        self.transversal_decompositions: dict[tuple, TransversalData] = {}
        self.flip_frames: dict[FrameKey, FlipFrame] = {}
        self.identity = ArtinElement(self, 0, ())
        self.delta = ArtinElement(self, 1, ())
        self.atoms = tuple(self.element(0, (g,)) for g in system.generators)

    def __repr__(self) -> str:
        return f"GarsideContext({self.graph.type})"

    # -- simple (W-level) operations ------------------------------------

    def tau(self, x: CoxeterElement, power: int = 1) -> CoxeterElement:
        """Delta^power x Delta^-power; only the parity matters."""
        if power % 2 == 0:
            return x
        el = self._tau.get(x.uid)
        if el is None:
            el = self.delta_w * x * self.delta_w
            self._tau[x.uid] = el
        return el

    def left_complement(self, x: CoxeterElement) -> CoxeterElement:
        """The simple l with l * x = Delta, lengths adding."""
        return self.delta_w * x.inverse()

    def w0_of(self, subset: frozenset[int]) -> CoxeterElement:
        return longest_element(self.system, subset)

    def _slide_pair(
        self, u: CoxeterElement, v: CoxeterElement
    ) -> tuple[CoxeterElement, CoxeterElement] | None:
        """Left-greedy a pair: move the maximal head of v into u, or None.
        The meet is taken on raw tables; only the two new factors are
        interned."""
        key = (u.uid, v.uid)
        if key in self._slide:
            return self._slide[key]
        slid = self.system._slide_tables(u.perm, v.perm)
        result = None if slid is None else tuple(map(self.system.element, slid))
        self._slide[key] = result
        return result

    def _sweep(
        self, body: list[CoxeterElement], factors: Iterable[CoxeterElement]
    ) -> tuple[int, tuple[CoxeterElement, ...]]:
        """Right-multiply a left-weighted body by simples: (Delta gain, body).

        Each factor is appended and slid leftwards.  By the domino rule a
        slide leaves the pair to its right left-weighted, so once a pair
        does not slide the body is left-weighted again; only the last pair
        can vanish.  w0 factors gather at the front and become the gain.
        """
        one, slide = self.system.identity, self._slide_pair
        for x in factors:
            if x is one:
                continue
            body.append(x)
            for i in range(len(body) - 2, -1, -1):
                slid = slide(body[i], body[i + 1])
                if slid is None:
                    break
                body[i] = slid[0]
                if slid[1] is one:
                    del body[i + 1]
                else:
                    body[i + 1] = slid[1]
        gain = 0
        while gain < len(body) and body[gain] is self.delta_w:
            gain += 1
        return gain, tuple(body[gain:])

    def normalize_factors(
        self, factors: Iterable[CoxeterElement]
    ) -> tuple[int, tuple[CoxeterElement, ...]]:
        """Normal form of a product of simples: (Delta gain, body)."""
        return self._sweep([], factors)

    # -- element constructors --------------------------------------------

    def element(self, inf: int, factors: Iterable[CoxeterElement]) -> ArtinElement:
        gain, body = self.normalize_factors(factors)
        return ArtinElement(self, inf + gain, body)

    def from_word(self, word: Word) -> ArtinElement:
        """Normal form of a signed word in the Artin generators.

        The word is cut into runs: maximal stretches of letters of one sign
        whose positive word s_a1 ... s_ak is reduced, with W-image e.  A
        positive run is the simple e.  A negative run s_a1^-1 ... s_ak^-1 is
        y^-1 for the simple y = s_ak ... s_a1 (W-image e^-1), which is
        Delta^-1 times the simple Delta y^-1 (W-image w0 e).  A letter t
        extends a run while t is not a right descent of e; runs are built on
        raw tables and only each finished run is interned.  Delta powers are
        then commuted to the front with tau, and one sweep follows."""
        system = self.system
        after, pos, gens = system._after, system._pos, system.generators
        runs: list[list] = []  # [positive, raw table e] per run
        for i, sign in word:
            if runs and runs[-1][0] is (sign > 0) and pos[runs[-1][1][i]]:
                runs[-1][1] = after(gens[i].perm, runs[-1][1])
            else:
                runs.append([sign > 0, gens[i].perm])
        delta = self.delta_w.perm
        factors: list[CoxeterElement] = []
        total = 0
        for positive, e in reversed(runs):
            factors.append(self.tau(system.element(e if positive else after(e, delta)), total))
            total -= not positive
        factors.reverse()
        return self.element(total, factors)

    def delta_of(self, subset: frozenset[int]) -> ArtinElement:
        """The Garside element Delta_X of a standard parabolic subgroup."""
        subset = frozenset(subset)
        el = self._delta_of.get(subset)
        if el is None:
            w = self.w0_of(subset)
            el = self.element(0, (w,))
            self._delta_of[subset] = el
        return el

    def connected_proper_subsets(self) -> tuple[frozenset[int], ...]:
        """All generator subsets inducing connected proper subgraphs."""
        if self._connected_proper is None:
            n = self.rank
            subs = [
                frozenset(i for i in range(n) if mask >> i & 1)
                for mask in range(1, (1 << n) - 1)
            ]
            self._connected_proper = tuple(
                s for s in sorted(subs, key=sorted) if self.graph.is_connected(s)
            )
        return self._connected_proper


@lru_cache(maxsize=None)
def context(spec: str) -> GarsideContext:
    graph = build_defining_graph(spec)
    return GarsideContext(graph, root_reflection_table(spec))


class ArtinElement:
    """Group element in left-greedy normal form Delta^inf x_1 ... x_l.

    Instances compare by (inf, body), which is canonical.  The body never
    contains the identity and never starts with w0.
    """

    __slots__ = ("ctx", "inf", "body", "_hash")

    def __init__(self, ctx: GarsideContext, inf: int, body: tuple[CoxeterElement, ...]):
        if ctx.system.identity in body or (body and body[0] is ctx.delta_w):
            raise InvariantViolated("a normal-form body holds the identity or starts with Delta")
        self.ctx = ctx
        self.inf = inf
        self.body = body
        self._hash: int | None = None

    def __hash__(self) -> int:
        # computed on demand: most products are intermediate and never hashed
        if self._hash is None:
            self._hash = hash((self.inf,) + tuple(x.uid for x in self.body))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, ArtinElement)
            and self.ctx is other.ctx
            and self.inf == other.inf
            and self.body == other.body
        )

    def __repr__(self) -> str:
        return f"<{self.to_text()}>"

    # -- structure ---------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return self.inf == 0 and not self.body

    @property
    def is_positive(self) -> bool:
        return self.inf >= 0

    @property
    def canonical_length(self) -> int:
        return len(self.body)

    def support(self) -> frozenset[int]:
        """Generators appearing in any positive word for a positive element."""
        if not self.is_positive:
            raise NotPositive(f"{self} is not in the monoid")
        supp = set()
        if self.inf > 0:
            supp |= self.ctx.delta_w.support()
        for x in self.body:
            supp |= x.support()
        return frozenset(supp)

    # -- group operations ----------------------------------------------------

    def __mul__(self, other: ArtinElement) -> ArtinElement:
        if self.ctx is not other.ctx:
            raise MixedContext("elements from different groups")
        ctx = self.ctx
        moved = [ctx.tau(x, other.inf) for x in self.body]
        gain, body = ctx._sweep(moved, other.body)
        return ArtinElement(ctx, self.inf + other.inf + gain, body)

    def inverse(self) -> ArtinElement:
        ctx = self.ctx
        p, body = self.inf, self.body
        factors = []
        for k, x in enumerate(reversed(body)):
            # position k from the left; tau power p + len(body) - 1 - k
            factors.append(ctx.tau(ctx.left_complement(x), p + len(body) - 1 - k))
        return ctx.element(-p - len(body), factors)

    def right_head(self) -> CoxeterElement:
        """rho(c) = c ^_R Delta, the largest simple right divisor of a positive c.

        It is Delta when inf c >= 1.  Otherwise it folds over the body with
        rho(A x) = rho(rho(A) x), the mirror of Delta ^ ab = Delta ^ a(Delta ^ b)
        (Epstein et al., ch. 9).  Word reversal is an anti-automorphism of the
        monoid that sends a simple to its inverse in W, so rho(r x) for simples
        r and x is the inverse of the first normal-form factor of x^-1 r^-1:
        one slide, read from the slide memo."""
        if not self.is_positive:
            raise NotPositive(f"{self} is not in the monoid")
        ctx = self.ctx
        if self.inf > 0:
            return ctx.delta_w
        reversed_head, *rest = [x.inverse() for x in self.body or (ctx.system.identity,)]
        for x_inv in rest:
            slid = ctx._slide_pair(x_inv, reversed_head)
            reversed_head = x_inv if slid is None else slid[0]
        return reversed_head.inverse()

    def __pow__(self, exp: int) -> ArtinElement:
        if not self.body:
            return ArtinElement(self.ctx, self.inf * exp, ())
        if exp == 0:
            return self.ctx.identity
        base = out = self if exp > 0 else self.inverse()
        for _ in range(abs(exp) - 1):
            out = out * base
        return out

    def conjugated_by(self, h: ArtinElement) -> ArtinElement:
        """h * self * h^-1."""
        return h * self * h.inverse()

    def commutes_with(self, other: ArtinElement) -> bool:
        return self * other == other * self

    # -- serialization ---------------------------------------------------------

    def to_text(self) -> str:
        graph = self.ctx.graph
        words = [
            " ".join(graph.name(i) for i in x.reduced_word()) for x in self.body
        ]
        out = f"DELTA^{self.inf} |"
        if words:
            out += " " + " . ".join(words)
        return out


# -- module-level operation names ------------------------------------------


def normalize(ctx: GarsideContext, text_or_word: str | Word) -> ArtinElement:
    if isinstance(text_or_word, str):
        return ctx.from_word(parse_word(ctx.graph, text_or_word))
    return ctx.from_word(text_or_word)


def member_of_standard(g: ArtinElement, subset: frozenset[int]) -> bool:
    """Whether g lies in the standard parabolic subgroup on the subset.

    g lies in A_X exactly when h = Delta_X^m g is positive with support in
    X, for m = max(-inf g, 0); one product decides it, and no power is
    scanned.  Write g = a^-1 b in np-normal form (a, b positive with no
    common left divisor), so that inf g = -sup a when a != 1 (Charney,
    Geodesic automation and growth functions for Artin groups of finite
    type, Math. Ann. 1995).  If g lies in A_X, then a and b lie in A_X^+,
    because left divisors of A_X^+ stay in A_X^+ and the np-form of A_X is
    that of A; a positive element of A_X with sup m right-divides
    Delta_X^m, so h = (Delta_X^m a^-1) b is positive with support in X.
    Conversely such an h puts g = Delta_X^-m h in A_X.  For the empty subset
    Delta_X is the identity and the test reads "g is the identity".
    """
    subset = frozenset(subset)
    h = g.ctx.delta_of(subset) ** max(-g.inf, 0) * g
    return h.is_positive and h.support() <= subset


def parse_word(graph: DefiningGraph, text: str) -> Word:
    """Parse whitespace-separated tokens s<i> and s<i>^-1.

    Each token is looked up in the graph's letter table; a token outside it
    (s<i> with leading zeros, or a bad token) is read by pattern, and a bad
    one raises a ParseError at its offset in text."""
    word = []
    for k, token in enumerate(text.split()):
        letter = graph.letters.get(token)
        word.append(_parse_token(graph, text, k) if letter is None else letter)
    return tuple(word)


def _parse_token(graph: DefiningGraph, text: str, k: int) -> tuple[int, int]:
    """The signed letter of the k-th token of text, read by pattern."""
    offset = 0
    for token in text.split()[: k + 1]:
        position = text.index(token, offset)
        offset = position + len(token)
    name, inverse = token, False
    if token.endswith("^-1"):
        name, inverse = token[:-3], True
    if not re.fullmatch("s[0-9]+", name):
        raise ParseError(f"bad generator token {token!r}", position)
    idx = int(name[1:]) - 1
    if not 0 <= idx < graph.rank:
        raise ParseError(f"generator {name!r} out of range", position)
    return idx, -1 if inverse else 1


def parse_element(ctx: GarsideContext, text: str) -> ArtinElement:
    """Parse the 'DELTA^p | w1 . w2' serialization (round-trips to_text).

    The tail after '|' is read as one signed word, '.' as a space, so a
    ParseError there gives its offset from the start of the tail, and the
    element is Delta^p times its normal form.  On a to_text tail the runs
    of from_word are its '.'-pieces: each piece is a reduced word whose
    first letter is a left descent of it, hence a right descent of the
    piece before, so the sweep sees the factors of the text itself."""
    head, sep, tail = text.partition("|")
    if not sep:
        # plain generator word
        return normalize(ctx, text)
    head = head.strip()
    if not head.startswith("DELTA^"):
        raise ParseError(f"expected DELTA^<p> before '|' in {text!r}")
    exponent = head[len("DELTA^"):].strip()
    if not re.fullmatch("[+-]?[0-9]+", exponent):
        raise ParseError(f"bad Delta exponent in {text!r}")
    g = ctx.from_word(parse_word(ctx.graph, tail.replace(".", " ")))
    return ArtinElement(ctx, int(exponent) + g.inf, g.body)
