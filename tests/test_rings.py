import math

import pytest

from artinmark.errors import PreconditionViolated
from artinmark.rings import CosRing, cos_minpoly, cyclotomic

from oracles import ring_add, ring_int, ring_neg, ring_sign, ring_sub, ring_value


def test_cyclotomic_known_values():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(8) == (1, 0, 0, 0, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize(
    "m,poly",
    [
        (3, (-1, 1)),
        (4, (-2, 0, 1)),
        (5, (-1, -1, 1)),
        (6, (-3, 0, 1)),
        (7, (1, -2, -1, 1)),
        (8, (2, 0, -4, 0, 1)),
    ],
)
def test_cos_minpoly(m, poly):
    assert cos_minpoly(m) == poly


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8, 9, 12])
def test_minpoly_annihilates_cosine(m):
    value = 2 * math.cos(math.pi / m)
    poly = cos_minpoly(m)
    assert abs(sum(c * value**k for k, c in enumerate(poly))) < 1e-9


def test_golden_ratio_identity():
    ring = CosRing(5)
    phi = ring.cos2(5)
    assert ring.mul(phi, phi) == ring_add(phi, ring.one)


def test_sqrt2_squares_to_two():
    ring = CosRing(4)
    c = ring.cos2(4)
    assert ring.mul(c, c) == ring_int(ring, 2)


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
def test_ring_mul_matches_floats(m):
    ring = CosRing(m)
    c = ring.cos2(m)
    powers = [ring.one]
    for _ in range(5):
        powers.append(ring.mul(powers[-1], c))
    value = 2 * math.cos(math.pi / m)
    for k, p in enumerate(powers):
        assert abs(ring_value(ring, p) - value**k) < 1e-9


def test_signs():
    ring = CosRing(8)
    c = ring.cos2(8)
    assert ring_sign(ring, c) == 1
    assert ring_sign(ring, ring_neg(c)) == -1
    assert ring_sign(ring, ring.zero) == 0
    # 2 + sqrt(2) - 3 > 0
    csq = ring.mul(c, c)
    assert ring_sign(ring, ring_sub(csq, ring_int(ring, 3))) == 1


def test_edge_label_cosines():
    ring = CosRing(6)
    assert ring.cos2(2) == ring.zero
    assert ring.cos2(3) == ring.one
    with pytest.raises(PreconditionViolated):
        ring.cos2(5)
