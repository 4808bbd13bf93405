"""Property-based checks of the algebraic invariants."""

import itertools

from hypothesis import given, settings, strategies as st

from artinmark.garside import context

from oracles import atom_length, braid_rewrites, is_prefix_of

SPECS = ["A2", "A3", "B3", "I2(5)"]


def signed_words(rank, max_len=6):
    return st.lists(
        st.tuples(st.integers(0, rank - 1), st.sampled_from([1, -1])),
        max_size=max_len,
    ).map(tuple)


def positive_words(rank, max_len=6):
    return st.lists(st.integers(0, rank - 1), max_size=max_len).map(tuple)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPECS), st.data())
def test_group_laws(spec, data):
    ctx = context(spec)
    u = ctx.from_word(data.draw(signed_words(ctx.rank)))
    v = ctx.from_word(data.draw(signed_words(ctx.rank)))
    w = ctx.from_word(data.draw(signed_words(ctx.rank)))
    assert (u * v) * w == u * (v * w)
    assert (u * u.inverse()).is_identity
    assert u * ctx.identity == u
    assert (u * v).inverse() == v.inverse() * u.inverse()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPECS), st.data())
def test_normalize_constant_on_relation_rewrites(spec, data):
    ctx = context(spec)
    word = data.draw(positive_words(ctx.rank, max_len=7))
    value = ctx.from_word(tuple((i, 1) for i in word))
    for other in itertools.islice(braid_rewrites(ctx.graph, word), 10):
        assert ctx.from_word(tuple((i, 1) for i in other)) == value


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPECS), st.data())
def test_positive_product_support_and_length(spec, data):
    ctx = context(spec)
    u = ctx.from_word(tuple((i, 1) for i in data.draw(positive_words(ctx.rank))))
    v = ctx.from_word(tuple((i, 1) for i in data.draw(positive_words(ctx.rank))))
    assert atom_length(u * v) == atom_length(u) + atom_length(v)
    assert (u * v).support() == u.support() | v.support()
    assert is_prefix_of(u, u * v)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SPECS), st.data())
def test_delta_squared_central(spec, data):
    ctx = context(spec)
    g = ctx.from_word(data.draw(signed_words(ctx.rank)))
    d2 = ctx.delta**2
    assert d2 * g == g * d2


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_parabolic_equality_invariant_under_representation(data):
    ctx = context("A3")
    from artinmark.parabolic import ParabolicSubgroup

    gens = frozenset(data.draw(st.sets(st.integers(0, 2), min_size=1, max_size=2)))
    if not ctx.graph.is_connected(gens):
        gens = frozenset({min(gens)})
    x = ctx.from_word(data.draw(signed_words(3, max_len=4)))
    p = ParabolicSubgroup(ctx, x, gens)
    # re-representing through a central shift or an inner element
    assert p == ParabolicSubgroup(ctx, x * ctx.delta**2, gens)
    inner = ctx.delta_of(gens)
    assert p == ParabolicSubgroup(ctx, x * inner, gens)
    assert p.z_element() == ParabolicSubgroup(ctx, x * inner, gens).z_element()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_parabolic_equality_through_delta_route(data):
    # g A_X g^-1 equals (g Delta) A_{delta^-1(X)} (g Delta)^-1
    from artinmark.parabolic import ParabolicSubgroup, delta_permutation

    ctx = context("A3")
    gens = frozenset(data.draw(st.sampled_from([(0,), (1,), (2,), (0, 1), (1, 2)])))
    x = ctx.from_word(data.draw(signed_words(3, max_len=3)))
    table = delta_permutation(ctx, frozenset(range(3)))
    preimage = frozenset(table[i] for i in gens)  # delta is an involution
    first = ParabolicSubgroup(ctx, x, gens)
    second = ParabolicSubgroup(ctx, x * ctx.delta, preimage)
    assert first == second and first.z_element() == second.z_element()
