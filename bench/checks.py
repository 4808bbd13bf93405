"""Independent correctness checks for the benchmark workloads.

Nothing here imports artinmark.  Each crystallographic type the benchmark
uses gets its own integer reflection representation, built from a Cartan
matrix of the Dynkin diagram in the documented vertex numbering:

    A_n   s1 - s2 - ... - sn
    B_n   s1 =4= s2 - s3 - ... - sn
    D_n   s1 - ... - s(n-2), with s(n-1) and sn both joined to s(n-2)
    E_n   s1 - s2 - s3 - s5 - ... - sn, with s4 joined to s3

An element of W is the list of images of the simple roots (columns), in the
simple-root basis; s_i acts by s_i(a_j) = a_j - A[i][j] a_i.  Program
outputs are read back from their serialized text and compared with images
and exponent sums computed here, never with stored copies of earlier output.
"""

from __future__ import annotations

import re


class CheckFailed(Exception):
    """An output of the program disagrees with an independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _edges(family: str, n: int) -> dict[tuple[int, int], int]:
    """Edges (i, j) -> Coxeter label, 0-based, in the documented numbering."""
    if family == "A":
        return {(i, i + 1): 3 for i in range(n - 1)}
    if family == "B":
        edges = {(i, i + 1): 3 for i in range(1, n - 1)}
        edges[(0, 1)] = 4
        return edges
    if family == "D":
        edges = {(i, i + 1): 3 for i in range(n - 3)}
        edges[(n - 3, n - 2)] = 3
        edges[(n - 3, n - 1)] = 3
        return edges
    if family == "E":
        chain = [0, 1, 2] + list(range(4, n))
        edges = {(a, b): 3 for a, b in zip(chain, chain[1:])}
        edges[(2, 3)] = 3
        return edges
    raise ValueError(f"no crystallographic checker for family {family}")


class Weyl:
    """Integer reflection representation of a crystallographic Weyl group."""

    def __init__(self, spec: str):
        match = re.fullmatch(r"([ABDE])(\d+)", spec)
        if not match:
            raise ValueError(f"unsupported type spec {spec!r}")
        family, n = match.group(1), int(match.group(2))
        self.rank = n
        cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), m in _edges(family, n).items():
            cartan[i][j] = -1
            cartan[j][i] = -2 if m == 4 else -1
        self.adj = {i: frozenset(j for j in range(n) if j != i and cartan[i][j]) for i in range(n)}
        self._neigh = [
            [(j, cartan[i][j]) for j in range(n) if j != i and cartan[i][j]] for i in range(n)
        ]
        self.identity = tuple(tuple(1 if k == j else 0 for k in range(n)) for j in range(n))
        self._w0: dict[frozenset[int], tuple] = {}
        self.w0 = self.longest(frozenset(range(n)))
        self.delta_len = len(self.reduced_longest_word(frozenset(range(n))))

    # -- elements ------------------------------------------------------------

    def times_gen(self, cols: tuple, i: int) -> tuple:
        """w * s_i."""
        ci = cols[i]
        out = list(cols)
        out[i] = tuple(-x for x in ci)
        for j, a in self._neigh[i]:
            out[j] = tuple(x - a * y for x, y in zip(cols[j], ci))
        return tuple(out)

    def of_word(self, letters) -> tuple:
        w = self.identity
        for i in letters:
            w = self.times_gen(w, i)
        return w

    def mul(self, a: tuple, b: tuple) -> tuple:
        n = self.rank
        return tuple(
            tuple(sum(b[j][k] * a[k][r] for k in range(n) if b[j][k]) for r in range(n))
            for j in range(n)
        )

    @staticmethod
    def positive(vec) -> bool:
        return all(x >= 0 for x in vec) and any(vec)

    def right_descents(self, w: tuple) -> frozenset[int]:
        return frozenset(i for i in range(self.rank) if not self.positive(w[i]))

    def is_reduced(self, letters) -> bool:
        w = self.identity
        for i in letters:
            if not self.positive(w[i]):
                return False
            w = self.times_gen(w, i)
        return True

    def reduced_longest_word(self, subset: frozenset[int]) -> list[int]:
        word, w = [], self.identity
        while True:
            free = [s for s in sorted(subset) if self.positive(w[s])]
            if not free:
                return word
            word.append(free[0])
            w = self.times_gen(w, free[0])

    def longest(self, subset: frozenset[int]) -> tuple:
        subset = frozenset(subset)
        if subset not in self._w0:
            self._w0[subset] = self.of_word(self.reduced_longest_word(subset))
        return self._w0[subset]

    def components(self, subset) -> list[frozenset[int]]:
        left, comps = set(subset), []
        while left:
            comp, frontier = set(), [min(left)]
            while frontier:
                v = frontier.pop()
                if v not in comp:
                    comp.add(v)
                    frontier.extend(self.adj[v] & left)
            left -= comp
            comps.append(frozenset(comp))
        return sorted(comps, key=sorted)

    # -- serialized Artin elements ------------------------------------------

    def letter(self, name: str) -> int:
        require(re.fullmatch(r"s\d+", name) is not None, f"bad generator {name!r}")
        i = int(name[1:]) - 1
        require(0 <= i < self.rank, f"generator {name!r} out of range")
        return i

    def parse_word(self, text: str) -> list[tuple[int, int]]:
        out = []
        for tok in text.split():
            sign = -1 if tok.endswith("^-1") else 1
            out.append((self.letter(tok[:-3] if sign < 0 else tok), sign))
        return out

    def parse_normal_form(self, text: str) -> tuple[int, list[list[int]]]:
        """(p, factors) from 'DELTA^p | w1 . w2'."""
        head, sep, tail = text.partition("|")
        require(bool(sep) and head.strip().startswith("DELTA^"), f"not a normal form: {text!r}")
        p = int(head.strip()[len("DELTA^"):])
        factors = []
        for piece in tail.split("."):
            if piece.strip():
                factors.append([self.letter(t) for t in piece.split()])
        return p, factors

    def check_normal_form(self, text: str) -> tuple[tuple, int]:
        """Check left-greedy form; return (W-image, exponent sum)."""
        p, factors = self.parse_normal_form(text)
        images = []
        for k, x in enumerate(factors):
            require(len(x) > 0, f"empty factor in {text!r}")
            require(self.is_reduced(x), f"factor {k} not reduced in {text!r}")
            require(len(x) < self.delta_len, f"factor {k} is Delta in {text!r}")
            images.append(self.of_word(x))
        for k in range(len(factors) - 1):
            left_of_next = self.right_descents(self.of_word(factors[k + 1][::-1]))
            require(
                left_of_next <= self.right_descents(images[k]),
                f"pair {k} not left-greedy in {text!r}",
            )
        image = self.w0 if p % 2 else self.identity
        for x in factors:
            image = self.mul(image, self.of_word(x))
        return image, p * self.delta_len + sum(len(x) for x in factors)

    def image_of_text(self, text: str, inverse: bool = False) -> tuple:
        """W-image of a serialized element ('DELTA^p | ...' or a signed word)."""
        if "|" in text:
            p, factors = self.parse_normal_form(text)
            letters = [i for x in factors for i in x]
        else:
            p, letters = 0, [i for i, _ in self.parse_word(text)]
        if inverse:
            letters = letters[::-1]
        body = self.of_word(letters)
        if p % 2 == 0:
            return body
        return self.mul(body, self.w0) if inverse else self.mul(self.w0, body)

    def is_positive_text(self, text: str) -> bool:
        return "|" not in text or self.parse_normal_form(text)[0] >= 0

    def maps_into(self, w: tuple, source, target) -> bool:
        """Whether w sends every simple root of source into span(target)."""
        target = frozenset(target)
        return all(
            all(c == 0 or r in target for r, c in enumerate(w[x])) for x in source
        )

    def ribbon_conjugate(self, x: frozenset[int], y: frozenset[int]) -> bool:
        """Whether W_X and W_Y are joined by elementary ribbons, i.e. some
        product of d_{Z,t} = w0(Z(t)) w0(Z(t) - t) carries the simple roots
        of X onto those of Y."""
        x, y = frozenset(x), frozenset(y)
        seen, frontier = {x}, [x]
        while frontier:
            nxt = []
            for z in frontier:
                if z == y:
                    return True
                for t in range(self.rank):
                    if t in z:
                        continue
                    comp = next(c for c in self.components(z | {t}) if t in c)
                    d = self.mul(self.longest(comp), self.longest(comp - {t}))
                    image = set()
                    for s in z:
                        col = d[s]
                        hits = [r for r, c in enumerate(col) if c]
                        require(
                            len(hits) == 1 and col[hits[0]] == 1,
                            "elementary ribbon does not permute simple roots",
                        )
                        image.add(hits[0])
                    image = frozenset(image)
                    if image not in seen:
                        seen.add(image)
                        nxt.append(image)
            frontier = nxt
        return False
