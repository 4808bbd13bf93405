"""Defining graphs of finite-type Artin groups and exact Coxeter arithmetic.

A finite Coxeter group is realized on its root system: an element is the
permutation it induces on the (finite) set of roots of the standard geometric
representation, with coordinates in the exact ring Z[2cos(pi/m)] where m is
the largest edge label.  The length of an element is the number of positive
roots it sends negative, descent sets are read off the images of simple
roots, and the longest element of any standard parabolic is built greedily.
These permutations are the simple elements of the Garside structure.

A root system with at most 256 roots (every exceptional type, I2(m) for
m <= 128, A_n for n <= 15, B_n and D_n for n <= 11) stores each permutation
as a 256-byte translation table, identity past the last root: the product
is one bytes.translate call and the inverse one bytes.maketrans call.
Larger root systems store tuples of root indices.  The root system picks
its encoding once, from its root count; both encodings list the images of
the roots in the same order and compare lexicographically alike, so every
ordering of elements is the same under either.

The roots are found on integer vectors.  An element of Z[2cos(pi/m)] is
its d integer coefficients, d the degree of the ring, so a root is a flat
tuple of n*d integers, and multiplication by c_ij = 2cos(pi/m_ij) is a d x d
integer matrix, read off CosRing.mul once per system.  s_i changes only the
d integers of coordinate i, each by the sum of one integer row over the
root (RootSystem), so the closure runs no ring operation and no float.
The root order is the order in which the closure first meets each root:
it pops the last root found, reflects it by s_1, ..., s_n and appends every
new image, which depends on which images are new and not on how a root is
stored.  So the roots, the generator tables, the positive roots and both
encodings are those of the same closure on tuples of ring elements, which
the tests keep as the reference (tests/oracles.py, ring_root_closure).

Descents are read off roots (Bjorner-Brenti 2005, 4.4): t is a left descent
of w exactly when w^-1(alpha_t) is negative; the simple roots are roots
0..n-1, so a descent key is d[:n] read through 0/1 root flags.  The meet
of simples (RootSystem._strip) strips blocks of raw tables and interns
nothing: with D the common left descents of d^-1 a and d^-1 b, w0(W_D) is a
left prefix of all x with D in their left descents (parabolic
factorization, Bjorner-Brenti 2005, 2.4), so d w0(W_D) is a common prefix,
and d is the meet when D = {}.
A slide of a pair of simples (RootSystem._slide_tables) runs the same strip
against the roots blocked by u^-1 Delta and v, after a descent-key test.
Right divisibility of simples is read off inversion sets (RootSystem._inversions):
y is a suffix of x, x = x'y with lengths adding, exactly when every positive
root that y sends negative is sent negative by x (Bjorner-Brenti 2005, 3.1.3).

Vertex numbering of the defining graphs:

    A_n   s1 - s2 - ... - sn
    B_n   s1 =4= s2 - s3 - ... - sn
    D_n   s1 - ... - s(n-2), with s(n-1) and sn both joined to s(n-2)
    E_n   s1 - s2 - s3 - s5 - s6 - ... - sn, with s4 joined to s3
    F_4   s1 - s2 =4= s3 - s4
    H_n   s1 =5= s2 - s3 (- s4)
    I2(m) s1 =m= s2

In particular every prefix {s1, ..., si} induces a connected subgraph and s1
has valence 1, which the nested-chain examples rely on.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .errors import (
    InvariantViolated,
    MixedContext,
    ParseError,
    PreconditionViolated,
    UnsupportedType,
)
from .rings import CosRing

FAMILIES = ("A", "B", "D", "E", "F", "H", "I2")

IDENT256 = bytes(range(256))


def _tuple_after(op: tuple[int, ...], sp: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation i -> sp[op[i]] (apply op, then sp)."""
    return tuple(sp[i] for i in op)


def _tuple_inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


def _table(perm) -> bytes:
    """A permutation of range(k), k <= 256, as a translation table."""
    return bytes(perm) + IDENT256[len(perm):]


def _table_inverse(perm: bytes) -> bytes:
    return bytes.maketrans(perm, IDENT256)


def _tuple_key(images: tuple[int, ...], flags: bytes) -> bytes:
    """flags[i] for each i in images, as images.translate(flags) on tables."""
    return bytes(_tuple_after(images, flags))


# number of roots per type, used as a closure sanity check
def _root_count(family: str, rank: int, m: int | None) -> int:
    if family == "A":
        return rank * (rank + 1)
    if family == "B":
        return 2 * rank * rank
    if family == "D":
        return 2 * rank * (rank - 1)
    if family == "E":
        return {6: 72, 7: 126, 8: 240}[rank]
    if family == "F":
        return 48
    if family == "H":
        return {3: 30, 4: 120}[rank]
    return 2 * (m or 0)


class _TypeFields(NamedTuple):
    family: str
    rank: int
    i2_label: int | None


class ArtinType(_TypeFields):
    """A finite type: family letter, rank, and the dihedral label for I2.
    A type is an immutable tuple of these, checked when it is built."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int, i2_label: int | None = None):
        f, n, m = family, rank, i2_label
        ok = (
            (f == "A" and n >= 1)
            or (f == "B" and n >= 2)
            or (f == "D" and n >= 4)
            or (f == "E" and n in (6, 7, 8))
            or (f == "F" and n == 4)
            or (f == "H" and n in (3, 4))
            or (f == "I2" and n == 2 and m is not None and m >= 3)
        )
        if not ok or (f != "I2" and m is not None):
            name = "I2" if f == "I2" and n == 2 else f"{f}{n}"
            raise UnsupportedType(f"no finite type {name}" + (f"({m})" if m else ""))
        return super().__new__(cls, family, rank, i2_label)

    @staticmethod
    def parse(text: str) -> ArtinType:
        text = text.strip()
        match = re.fullmatch(r"I2\(([0-9]+)\)", text)
        if match:
            return ArtinType("I2", 2, int(match.group(1)))
        match = re.fullmatch(r"([ABDEFH])([0-9]+)", text)
        if not match:
            raise UnsupportedType(f"cannot parse type spec {text!r}")
        return ArtinType(match.group(1), int(match.group(2)))

    def __str__(self) -> str:
        if self.family == "I2":
            return f"I2({self.i2_label})"
        return f"{self.family}{self.rank}"

    @property
    def root_count(self) -> int:
        return _root_count(self.family, self.rank, self.i2_label)


def _edges(t: ArtinType) -> dict[tuple[int, int], int]:
    n = t.rank
    f = t.family
    if f == "I2":
        return {(0, 1): t.i2_label}  # type: ignore[dict-item]
    edges: dict[tuple[int, int], int] = {}
    if f == "A":
        edges = {(i, i + 1): 3 for i in range(n - 1)}
    elif f == "B":
        edges = {(i, i + 1): 3 for i in range(1, n - 1)}
        edges[(0, 1)] = 4
    elif f == "D":
        edges = {(i, i + 1): 3 for i in range(n - 3)}
        edges[(n - 3, n - 2)] = 3
        edges[(n - 3, n - 1)] = 3
    elif f == "E":
        chain = [0, 1, 2] + list(range(4, n))
        edges = {(a, b): 3 for a, b in zip(chain, chain[1:])}
        edges[(2, 3)] = 3
    elif f == "F":
        edges = {(0, 1): 3, (1, 2): 4, (2, 3): 3}
    elif f == "H":
        edges = {(i, i + 1): 3 for i in range(1, n - 1)}
        edges[(0, 1)] = 5
    return edges


class DefiningGraph:
    """Labeled defining graph; vertices are generator indices 0..n-1."""

    def __init__(self, artin_type: ArtinType):
        self.type = artin_type
        self.rank = artin_type.rank
        self.vertices = tuple(range(self.rank))
        self.names = tuple(f"s{i + 1}" for i in range(self.rank))
        # the signed letter of each token s<i> and s<i>^-1 of a word
        self.letters = {name: (i, 1) for i, name in enumerate(self.names)}
        self.letters.update({f"{name}^-1": (i, -1) for i, name in enumerate(self.names)})
        self._edges = _edges(artin_type)
        self.max_label = max(self._edges.values(), default=3)
        self._adj: dict[int, frozenset[int]] = {
            i: frozenset(
                j for j in self.vertices if i != j and self.label(i, j) >= 3
            )
            for i in self.vertices
        }

    def label(self, i: int, j: int) -> int:
        """m_ij; 2 encodes a non-edge."""
        if i == j:
            raise PreconditionViolated("m_ii is undefined")
        return self._edges.get((min(i, j), max(i, j)), 2)

    def adjacent(self, i: int, j: int) -> bool:
        return self.label(i, j) >= 3

    def neighbors(self, i: int) -> frozenset[int]:
        return self._adj[i]

    def name(self, i: int) -> str:
        return self.names[i]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ParseError(f"unknown generator {name!r}") from None

    def components(self, subset: frozenset[int]) -> list[frozenset[int]]:
        """Connected components of the induced subgraph, sorted."""
        left = set(subset)
        if not left <= self._adj.keys():
            raise PreconditionViolated(
                f"generators {sorted(left - self._adj.keys())} are outside 0..{self.rank - 1}"
            )
        comps = []
        while left:
            seed = min(left)
            comp = {seed}
            frontier = [seed]
            while frontier:
                v = frontier.pop()
                for w in self._adj[v] & left:
                    if w not in comp:
                        comp.add(w)
                        frontier.append(w)
            left -= comp
            comps.append(frozenset(comp))
        return sorted(comps, key=sorted)

    def is_connected(self, subset: frozenset[int]) -> bool:
        return len(self.components(subset)) <= 1


@lru_cache(maxsize=None)
def build_defining_graph(spec: str) -> DefiningGraph:
    """Graph for a type spec string like 'A5', 'B3', 'E8', 'H4', 'I2(7)'."""
    return DefiningGraph(ArtinType.parse(spec))


class RootSystem:
    """The finite root system of a defining graph, with reflection tables.

    Roots are tuples of ring elements in the simple-root basis.  The table
    stores, for every generator, the permutation its reflection induces on
    root indices, plus per-root positivity flags.  The reflection formula
    only touches one coordinate: s_i sends v_i to -v_i + sum over neighbors
    of 2cos(pi/m_ij) * v_j.  The closure runs on flat integer vectors,
    with one integer row per integer of coordinate i (module docstring);
    roots keeps each root as ring elements.
    """

    def __init__(self, graph: DefiningGraph):
        self.graph = graph
        self.ring = ring = CosRing(graph.max_label)
        n, d = graph.rank, ring.degree
        # multiplication by c_ij is the d x d integer matrix whose column l
        # is c_ij c^l; shifts[i] lists, for each flat position p of
        # coordinate i, the row (coefficients, positions) whose sum s_i adds
        # to v[p]: -2 v_i + sum over neighbors of c_ij v_j, by coefficient
        powers = [tuple(int(k == l) for k in range(d)) for l in range(d)]
        shifts = []
        for i in graph.vertices:
            terms: list[list[tuple[int, int]]] = [[(-2, i * d + k)] for k in range(d)]
            for j in sorted(graph.neighbors(i)):
                cij = ring.cos2(graph.label(i, j))
                for l, column in enumerate(ring.mul(cij, c) for c in powers):
                    for k, coef in enumerate(column):
                        if coef:
                            terms[k].append((coef, j * d + l))
            shifts.append(tuple((i * d + k, tuple(zip(*t))) for k, t in enumerate(terms)))

        simple = [tuple(int(p == i * d) for p in range(n * d)) for i in range(n)]
        index = {r: i for i, r in enumerate(simple)}
        roots: list[tuple[int, ...]] = list(simple)
        expect = graph.type.root_count
        # perms[i][r] is the index of s_i(root r), recorded as the closure
        # reflects each root once
        perms = [[0] * expect for _ in range(n)]
        frontier = list(range(n))
        while frontier:
            r = frontier.pop()
            root = roots[r]
            at = root.__getitem__
            for rows, perm in zip(shifts, perms):
                img = list(root)
                for p, (coefs, positions) in rows:
                    img[p] += sum(map(mul, coefs, map(at, positions)))
                img = tuple(img)
                k = index.get(img)
                if k is None:
                    if len(roots) >= expect:
                        raise InvariantViolated(f"{graph.type}: more than {expect} roots")
                    index[img] = k = len(roots)
                    roots.append(img)
                    frontier.append(k)
                perm[r] = k
        if len(roots) != expect:
            raise InvariantViolated(
                f"{graph.type}: {len(roots)} roots, expected {expect}"
            )

        # each flat root cut into its n coordinates of d integers: the d
        # columns of a coordinate zipped into ring elements, per root
        columns = tuple(zip(*roots))
        self.roots = tuple(zip(*(zip(*columns[p : p + d]) for p in range(0, n * d, d))))
        self.simple_index = tuple(index[r] for r in simple)
        if self.simple_index != tuple(range(n)):  # descent keys read d[:n]
            raise InvariantViolated(f"{graph.type}: simple roots are not roots 0..{n - 1}")

        # positive roots: the closure of the simple roots under the s_i,
        # never applying s_i to alpha_i (s_i permutes the other positive
        # roots, Humphreys Prop. 1.4, and some s_i lowers each one's height)
        positive = set(self.simple_index)
        todo = list(self.simple_index)
        while todo:
            r = todo.pop()
            for i, perm in enumerate(perms):
                if r != self.simple_index[i] and perm[r] not in positive:
                    positive.add(perm[r])
                    todo.append(perm[r])
        self.is_positive_root = tuple(r in positive for r in range(len(roots)))
        self.positive_indices = tuple(sorted(positive))
        if 2 * len(self.positive_indices) != len(roots):
            raise InvariantViolated(
                f"{graph.type}: {len(self.positive_indices)} positive roots"
                f" of {len(roots)}"
            )

        # the permutation encoding; _after(op, sp) is i -> sp[op[i]]
        self._pos = bytes(self.is_positive_root).ljust(256, b"\0")  # 0/1 flags
        self._neg = bytes(not p for p in self.is_positive_root).ljust(256, b"\0")
        self._pos_bits = int.from_bytes(self._pos[: len(roots)], "big")
        if len(roots) <= 256:
            encode, self._after, self._invert = _table, bytes.translate, _table_inverse
            self._key = bytes.translate
        else:
            encode, self._after, self._invert = tuple, _tuple_after, _tuple_inverse
            self._key = _tuple_key
        self._w0: dict[bytes, tuple[int, ...] | bytes] = {}
        self._elements: dict[tuple[int, ...] | bytes, CoxeterElement] = {}
        self._next_uid = 0
        self.identity = self.element(encode(range(len(roots))))
        self.generators = tuple(self.element(encode(perm)) for perm in perms)
        self._gen_of_perm = {g.perm: i for i, g in enumerate(self.generators)}

    def element(self, perm: tuple[int, ...] | bytes) -> CoxeterElement:
        el = self._elements.get(perm)
        if el is None:
            el = CoxeterElement(self, perm, self._next_uid)
            self._next_uid += 1
            self._elements[perm] = el
        return el

    def _strip(self, blocked: bytes) -> tuple[int, ...] | bytes:
        """Raw table of the prefix meet of simples x, given blocked: 0/1
        flags of the roots in any x(positive roots).  t is a left descent of
        every d^-1 x when d(alpha_t) is in no x(positive roots), so the zero
        bytes of the key of d against blocked are D, and each step strips
        w0(W_D) (module docstring)."""
        n, w0, d = self.graph.rank, self._w0, self.identity.perm
        while 0 in (key := self._key(d[:n], blocked)):
            d = self._after(w0.get(key) or self._longest(key), d)
        return d

    def _slide_tables(self, u, v) -> tuple[tuple[int, ...] | bytes, ...] | None:
        """Raw tables (u a, a^-1 v) for the simples with raw tables u, v,
        where a is the meet of u^-1 Delta and v; None when a = 1, that is
        when the left descents of v lie in the right descents of u.

        u^-1 Delta sends the positive roots to the roots beta with u(beta)
        negative, so its blocked roots are read off u's table; the meet is
        then one strip, and only its two products are built."""
        n, pos, key = self.graph.rank, self._pos, self._key
        v_inv = self._invert(v)
        # t in L(v) - R(u): u(alpha_t) positive, v^-1(alpha_t) negative
        if not int.from_bytes(key(u[:n], pos), "big") & int.from_bytes(
            key(v_inv[:n], self._neg), "big"
        ):
            return None
        bits = int.from_bytes(key(u, self._neg), "big") | int.from_bytes(key(v_inv, pos), "big")
        a = self._strip(bits.to_bytes(len(u), "big"))
        return self._after(a, u), self._after(v, self._invert(a))

    def _inversions(self, perm) -> int:
        """The positive roots beta with x(beta) negative, x with raw table
        perm, as the bits of an int: y right-divides x in W exactly when the
        inversions of y are among those of x (module docstring)."""
        flags = self._key(perm[: len(self.roots)], self._neg)
        return int.from_bytes(flags, "big") & self._pos_bits

    def _flags(self, perm) -> bytes:
        """0/1 flags of the roots in x(positive roots), x with raw table perm."""
        return self._key(self._invert(perm), self._pos)

    def _word(self, perm) -> tuple[int, ...]:
        """Least reduced word of the raw table perm: one letter per step."""
        blocked, n, gens = self._flags(perm), self.graph.rank, self.generators
        d, letters = self.identity.perm, []
        while (t := self._key(d[:n], blocked).find(0)) >= 0:
            letters.append(t)
            d = self._after(gens[t].perm, d)
        return tuple(letters)

    def _longest(self, key: bytes) -> tuple[int, ...] | bytes:
        """Raw table of w0(W_D), D the zero bytes of key, built greedily and
        memoized per key: at most 2^rank tables, none interned."""
        w0 = self._w0.get(key)
        if w0 is None:
            w0, subset = self.identity.perm, [t for t, b in enumerate(key) if not b]
            while free := [t for t in subset if self._pos[w0[t]]]:
                w0 = self._after(self.generators[free[0]].perm, w0)
            self._w0[key] = w0
        return w0

    def generator_of(self, w: CoxeterElement) -> int | None:
        """Index i if w is the reflection of generator i, else None."""
        return self._gen_of_perm.get(w.perm)


@lru_cache(maxsize=None)
def root_reflection_table(spec: str) -> RootSystem:
    return RootSystem(build_defining_graph(spec))


class CoxeterElement:
    """An element of the finite Coxeter group, as a permutation of roots.

    `perm[i]` is the index of the image of root i: a 256-byte translation
    table (identity past the last root) when the root system has at most
    256 roots, else a tuple of ints.  Instances are interned per root
    system, so equality is identity and the length, support and reduced
    word, each computed once, are shared.  The hash is the interning serial
    number `uid`, which does not depend on PYTHONHASHSEED (bytes hashes do).
    """

    __slots__ = ("system", "perm", "uid", "_length", "_inverse", "_supp", "_word")

    def __init__(self, system: RootSystem, perm: tuple[int, ...] | bytes, uid: int):
        self.system = system
        self.perm = perm
        self.uid = uid
        self._length: int | None = None
        self._inverse: CoxeterElement | None = None
        self._supp: frozenset[int] | None = None
        self._word: tuple[int, ...] | None = None

    def __hash__(self) -> int:
        return self.uid

    def __repr__(self) -> str:
        word = " ".join(self.system.graph.name(i) for i in self.reduced_word())
        return f"<W {word or 'e'}>"

    @property
    def length(self) -> int:
        if self._length is None:
            self._length = self.system._inversions(self.perm).bit_count()
        return self._length

    @property
    def is_identity(self) -> bool:
        return self is self.system.identity

    def __mul__(self, other: CoxeterElement) -> CoxeterElement:
        system = self.system
        if system is not other.system:
            raise MixedContext("elements from different root systems")
        return system.element(system._after(other.perm, self.perm))

    def inverse(self) -> CoxeterElement:
        if self._inverse is None:
            self._inverse = self.system.element(self.system._invert(self.perm))
            self._inverse._inverse = self
        return self._inverse

    def support(self) -> frozenset[int]:
        """Generators appearing in any reduced word (all reduced words share
        one support, so the lexicographically least one is read)."""
        if self._supp is None:
            self._supp = frozenset(self.reduced_word())
        return self._supp

    def reduced_word(self) -> tuple[int, ...]:
        """Lexicographically least reduced word (greedy left descents),
        computed once per interned element."""
        if self._word is None:
            self._word = self.system._word(self.perm)
        return self._word


def longest_element(system: RootSystem, subset: frozenset[int]) -> CoxeterElement:
    """Longest element of the standard parabolic W_X; only it is interned."""
    n = system.graph.rank
    if not all(0 <= t < n for t in subset):
        raise PreconditionViolated(f"generators {sorted(subset)} are not all in 0..{n - 1}")
    key = bytes(t not in subset for t in range(n))
    return system.element(system._longest(key))
