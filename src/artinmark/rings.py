"""Exact arithmetic in the rings Z[2cos(pi/m)].

Root coordinates for the non-crystallographic and B/F families live in the
ring generated by c = 2cos(pi/m), where m is the largest edge label of the
defining graph.  An element is stored as a tuple of integers: the coordinates
of an integer polynomial in c, reduced modulo the minimal polynomial of c.

The minimal polynomial is computed exactly from the cyclotomic polynomial
Phi_{2m}: writing zeta for a primitive 2m-th root of unity, c = zeta + 1/zeta,
and Phi_{2m} is palindromic, so Phi_{2m}(x) / x^(d/2) rewrites as an integer
polynomial in y = x + 1/x via the recursion p_{k+1} = y*p_k - p_{k-1} for
p_k = x^k + x^-k.  For m = 3 this degenerates to c = 1 and the ring is Z.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvariantViolated, PreconditionViolated

Coeffs = tuple[int, ...]


def poly_divmod_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of num by monic-or-+-1-leading den; remainder must vanish."""
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - dn)
    for k in range(len(num) - dn - 1, -1, -1):
        q, r = divmod(num[k + dn], lead)
        if r:
            raise InvariantViolated(f"{den} does not divide {num}")
        quot[k] = q
        for j, dj in enumerate(den):
            num[k + j] -= q * dj
    if any(num):
        raise InvariantViolated(f"division by {den} leaves the remainder {num}")
    return quot


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> Coeffs:
    """Coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n == 1:
        return (-1, 1)
    poly = [0] * n + [1]
    poly[0] = -1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = poly_divmod_exact(poly, list(cyclotomic(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def cos_minpoly(m: int) -> Coeffs:
    """Minimal polynomial of 2cos(pi/m) over Q, monic, low degree first."""
    phi = list(cyclotomic(2 * m))
    deg = len(phi) - 1
    if deg % 2 or phi != phi[::-1]:
        raise InvariantViolated(f"cyclotomic polynomial {phi} must be palindromic")
    half = deg // 2
    # p_k(y) stands for x^k + x^-k; Phi(x)/x^half = phi[half] + sum phi[half+k] p_k
    p_prev, p_cur = [2], [0, 1]
    out = [0] * (half + 1)
    out[0] = phi[half]
    for k in range(1, half + 1):
        coeff = phi[half + k]
        if coeff:
            for i, v in enumerate(p_cur):
                out[i] += coeff * v
        p_next = [0] + p_cur
        for i, v in enumerate(p_prev):
            p_next[i] -= v
        p_prev, p_cur = p_cur, p_next
    if out[-1] != 1:
        raise InvariantViolated(f"minimal polynomial of 2cos(pi/{m}) must be monic: {out}")
    return tuple(out)


class CosRing:
    """The ring Z[2cos(pi/m)], elements represented as coefficient tuples."""

    def __init__(self, m: int):
        self.m = m
        self.minpoly = cos_minpoly(m)
        self.degree = len(self.minpoly) - 1
        self.zero: Coeffs = (0,) * self.degree
        self.one: Coeffs = (1,) + (0,) * (self.degree - 1)
        # reduction rows: c^k as a ring element, for k = degree .. 2*degree-2
        rows = [tuple(-a for a in self.minpoly[:-1])]
        for _ in range(self.degree - 2):
            prev = rows[-1]
            overflow = prev[-1]
            shifted = (0,) + prev[:-1]
            rows.append(tuple(s + overflow * r for s, r in zip(shifted, rows[0])))
        self._red_rows = rows

    def cos2(self, label: int) -> Coeffs:
        """The element 2cos(pi/label) for an edge label of this graph."""
        if label == 2:
            return self.zero
        if label == 3:
            return self.one
        if label == self.m:
            if self.degree == 1:
                # m == 3 only; c == 1
                return self.one
            return (0, 1) + (0,) * (self.degree - 2)
        raise PreconditionViolated(f"label {label} not representable in Z[2cos(pi/{self.m})]")

    def mul(self, a: Coeffs, b: Coeffs) -> Coeffs:
        d = self.degree
        if d == 1:
            return (a[0] * b[0],)
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        out = prod[:d]
        for k in range(d, 2 * d - 1):
            coeff = prod[k]
            if coeff:
                row = self._red_rows[k - d]
                out = [o + coeff * r for o, r in zip(out, row)]
        return tuple(out)
