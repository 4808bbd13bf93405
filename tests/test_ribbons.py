import random

import pytest

from artinmark.errors import MixedContext, NotAnXRibbonX, NotCorankOne
from artinmark.garside import context, normalize
from artinmark.ribbons import Ribbon, elementary_ribbon, peel_delta_powers, ribbon_delta_form

from oracles import symmetric_peel_delta_powers


def gens(ctx, *names):
    return frozenset(ctx.graph.index(n) for n in names)


def test_b_n_elementary_ribbon_examples():
    bn = context("B4")
    # d_{X, s2} for X = {s1}: Delta_12 s1^-1, an X-ribbon-X
    r = elementary_ribbon(bn, gens(bn, "s1"), bn.graph.index("s2"))
    assert r.element == bn.delta_of(gens(bn, "s1", "s2")) * bn.atoms[0].inverse()
    assert r.source == r.target == gens(bn, "s1")
    # d_{Y, s3} for Y = {s2}: the element s2 s3, carrying {s2} to {s3}
    r2 = elementary_ribbon(bn, gens(bn, "s2"), bn.graph.index("s3"))
    assert r2.element == normalize(bn, "s2 s3")
    assert r2.source == gens(bn, "s2") and r2.target == gens(bn, "s3")
    # t inside X: d = Delta_{X(t)}, target = source
    r3 = elementary_ribbon(bn, gens(bn, "s1", "s2"), bn.graph.index("s1"))
    assert r3.element == bn.delta_of(gens(bn, "s1", "s2"))
    assert r3.target == gens(bn, "s1", "s2")


def test_ribbon_composition():
    bn = context("B4")
    first = elementary_ribbon(bn, gens(bn, "s2"), bn.graph.index("s1"))
    assert first.source == first.target == gens(bn, "s2")
    second = elementary_ribbon(bn, gens(bn, "s2"), bn.graph.index("s3"))
    combined = second * first
    assert combined.source == gens(bn, "s2") and combined.target == gens(bn, "s3")
    assert combined.element == second.element * first.element
    with pytest.raises(NotAnXRibbonX):
        _ = first * second  # source/target mismatch


def test_ribbons_are_immutable_values():
    # ribbons compare and hash by element, source and target, as the
    # composite of the same factors twice shows
    bn = context("B4")
    first = elementary_ribbon(bn, gens(bn, "s2"), bn.graph.index("s1"))
    second = elementary_ribbon(bn, gens(bn, "s2"), bn.graph.index("s3"))
    assert second * first == Ribbon(second.element * first.element, first.source, second.target)
    assert len({second * first, second * first, first}) == 2
    with pytest.raises(AttributeError):
        first.target = second.target


def test_elementary_ribbon_conjugates_generators():
    for spec in ["A3", "B3", "E6"]:
        ctx = context(spec)
        n = ctx.rank
        import itertools

        for size in range(1, n):
            for x in map(frozenset, itertools.combinations(range(n), size)):
                for t in range(n):
                    r = elementary_ribbon(ctx, x, t)
                    d_inv = r.element.inverse()
                    image = {
                        next(
                            i
                            for i, a in enumerate(ctx.atoms)
                            if a == r.element * ctx.atoms[s] * d_inv
                        )
                        for s in x
                    }
                    assert frozenset(image) == r.target


def test_case_two_identity():
    # (Delta Delta_Y^-1)(Delta Delta_X^-1) = Delta^2 Delta_X^-2 in A3
    a3 = context("A3")
    x = gens(a3, "s1", "s2")
    y = gens(a3, "s2", "s3")
    d_xt = a3.delta * a3.delta_of(x).inverse()
    d_yt = a3.delta * a3.delta_of(y).inverse()
    ribbon = d_yt * d_xt
    assert ribbon == a3.delta**2 * a3.delta_of(x) ** -2
    assert ribbon_delta_form(a3, ribbon, x) == (-2, 0, 0, 2)


def test_delta_form_trivial_cases():
    a3 = context("A3")
    x = gens(a3, "s1", "s2")
    assert ribbon_delta_form(a3, a3.identity, x) == (0, 0, 0, 0)
    assert ribbon_delta_form(a3, a3.delta_of(x), x) == (1, 0, 0, 0)


def test_delta_form_errors():
    a3 = context("A3")
    with pytest.raises(NotCorankOne):
        ribbon_delta_form(a3, a3.identity, gens(a3, "s1"))
    with pytest.raises(NotAnXRibbonX):
        ribbon_delta_form(a3, a3.atoms[0], gens(a3, "s1", "s2"))
    b3 = context("B3")
    with pytest.raises(MixedContext):
        ribbon_delta_form(b3, a3.delta_of(gens(a3, "s1", "s2")), gens(b3, "s1", "s2"))


def random_ribbon_walk(ctx, start, steps, rng):
    """Compose elementary ribbons; returns (element, final subset)."""
    current = frozenset(start)
    element = ctx.identity
    for _ in range(steps):
        t = rng.randrange(ctx.rank)
        r = elementary_ribbon(ctx, current, t)
        element = r.element * element
        current = r.target
    return element, current


@pytest.mark.parametrize("spec", ["A3", "B3"])
def test_random_ribbon_compositions_decompose(spec):
    ctx = context(spec)
    rng = random.Random(17)
    everything = frozenset(ctx.graph.vertices)
    corank_one = [everything - {t} for t in sorted(everything)]
    for x in corank_one:
        done = 0
        attempts = 0
        while done < 100 and attempts < 3000:
            attempts += 1
            element, final = random_ribbon_walk(ctx, x, rng.randrange(1, 6), rng)
            if final != x:
                continue
            a, b, c, d = ribbon_delta_form(ctx, element, x)
            comps = ctx.graph.components(x)
            rebuilt = ctx.identity
            for exp, comp in zip((a, b, c), comps):
                rebuilt = rebuilt * ctx.delta_of(comp) ** exp
            rebuilt = rebuilt * ctx.delta**d
            assert rebuilt == element
            done += 1
        assert done == 100, (spec, sorted(x), done)


def test_decomposed_ribbon_products_redecompose():
    # the composition of two decomposed X-ribbons-X decomposes again
    a3 = context("A3")
    x = gens(a3, "s1", "s2")
    rng = random.Random(23)
    ribbons = []
    while len(ribbons) < 10:
        element, final = random_ribbon_walk(a3, x, rng.randrange(1, 5), rng)
        if final == x:
            ribbons.append(element)
    for r1 in ribbons[:5]:
        for r2 in ribbons[5:]:
            quad = ribbon_delta_form(a3, r1 * r2, x)
            assert isinstance(quad, tuple) and len(quad) == 4


@pytest.mark.parametrize("spec", ["A3", "B3", "D4", "A4"])
def test_peel_matches_symmetric_scan_oracle(spec):
    # X-ribbons-X, their inverses and Delta-shifted products peel to the
    # exponents the bounded symmetric scan finds; one more atom on either
    # side breaks the product, and both then find nothing
    ctx = context(spec)
    rng = random.Random(f"peel {spec}")
    everything = frozenset(ctx.graph.vertices)
    peeled = broken = 0
    for x in [everything - {t} for t in sorted(everything)]:
        comps = ctx.graph.components(x)
        ribbons = []
        while len(ribbons) < 12:
            element, final = random_ribbon_walk(ctx, x, rng.randrange(1, 6), rng)
            if final == x:
                ribbons.append(element)
        atom = ctx.atoms[rng.randrange(ctx.rank)]
        for element in ribbons:
            shifted = element.inverse() * rng.choice(ribbons) * ctx.delta ** rng.randint(-2, 2)
            broken_pair = (shifted * atom, atom.inverse() * element)
            for g in (element, element.inverse(), shifted, *broken_pair):
                expected = symmetric_peel_delta_powers(ctx, g, comps)
                try:
                    found = peel_delta_powers(ctx, g, comps)
                except NotAnXRibbonX:
                    found = None
                assert found == expected, (sorted(x), g)
                peeled += found is not None
                broken += found is None
    assert peeled >= 100 and broken >= 20
