"""Independent oracles used to derive expected values.

These deliberately avoid the library's normal-form and lattice algorithms:

* the word oracle decides equality of positive words by exhaustive
  bidirectional relation rewriting (the braid relation applied at every
  position, both directions), which presents the Artin monoid exactly;
* the Coxeter-group oracle enumerates W by closure under generators and
  answers prefix-order questions from the length function alone;
* the tuple kernel composes and inverts root permutations as plain int
  tuples, independent of the library's byte-table encoding;
* the fixed-point normalizer re-runs left-to-right slide passes over the
  whole factor list until nothing moves, independent of the library's
  one-sweep products.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from artinmark.coxeter import DefiningGraph, RootSystem


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
