import itertools
import random

import pytest

from artinmark.coxeter import RootSystem, build_defining_graph
from artinmark.errors import MixedContext, NotPositive, ParseError
from artinmark.garside import (
    GarsideContext,
    context,
    member_of_standard,
    normalize,
    parse_element,
    parse_word,
)

from oracles import (
    all_w,
    atom_length,
    budget_member_of_standard,
    descent_peel_reduced_word,
    fixed_point_from_word,
    fixed_point_inverse,
    fixed_point_product,
    gcd_simples,
    is_prefix_of,
    lcm_simples,
    left_descents,
    oracle_equal_positive,
    per_piece_parse,
    right_descents,
    w_prefix,
    whole_tail_parse,
    word_partition,
    word_to_text,
)


def gens(ctx, *names):
    return frozenset(ctx.graph.index(n) for n in names)


def test_normalize_delta_a2():
    ctx = context("A2")
    d = normalize(ctx, "s1 s2 s1")
    assert d == ctx.delta
    assert d.to_text() == "DELTA^1 |"
    assert normalize(ctx, "s2 s1 s2") == d


def test_normalize_empty_word():
    ctx = context("A2")
    e = normalize(ctx, "")
    assert e.inf == 0 and e.body == ()


def test_i2_4_prefix_computations():
    # (s1 s2 s1)^-1 s1 s2 s1 s2^2 = s2^2 and (s2 s1 s2)^-1 ... = s1 s2
    ctx = context("I2(4)")
    g = normalize(ctx, "s1 s2 s1 s2 s2")
    left = normalize(ctx, "s1 s2 s1")
    right = normalize(ctx, "s2 s1 s2")
    assert left.inverse() * g == normalize(ctx, "s2 s2")
    assert right.inverse() * g == normalize(ctx, "s1 s2")


def test_i2_4_support_and_length():
    ctx = context("I2(4)")
    g = normalize(ctx, "s1 s2 s1 s2 s2")
    assert atom_length(g) == 5
    assert atom_length(normalize(ctx, "s2 s2 s2 s2 s2 s2")) == 6
    assert g.support() == gens(ctx, "s1", "s2")
    assert normalize(ctx, "s2 s2 s2 s2 s2 s2").support() == gens(ctx, "s2")


def test_i2_4_prefix_examples():
    ctx = context("I2(4)")
    g = normalize(ctx, "s1 s2 s1 s2 s2")
    assert is_prefix_of(normalize(ctx, "s1 s2 s1"), g)
    assert is_prefix_of(normalize(ctx, "s2 s1 s2"), g)
    assert not is_prefix_of(normalize(ctx, "s2 s2 s2 s2 s2 s2"), g)
    assert is_prefix_of(ctx.identity, g)


def test_is_positive():
    ctx = context("A2")
    assert not normalize(ctx, "s1^-1").is_positive
    assert normalize(ctx, "s1 s2").is_positive
    with pytest.raises(NotPositive):
        normalize(ctx, "s1^-1").support()


def test_multiply_examples():
    ctx = context("A2")
    d2 = ctx.delta * ctx.delta
    for a in ctx.atoms:
        assert a.conjugated_by(d2) == a  # Delta^2 central
    assert ctx.identity.inverse() == ctx.identity
    prod = ctx.atoms[0] * ctx.atoms[1]
    assert prod.inf == 0 and len(prod.body) == 1


def test_delta_central_table():
    # Delta central exactly when the center is generated by Delta itself
    for spec, central in [
        ("A2", False),
        ("A3", False),
        ("B3", True),
        ("D4", True),
        ("D5", False),
        ("E6", False),
        ("F4", True),
        ("H3", True),
        ("I2(4)", True),
        ("I2(5)", False),
        ("I2(6)", True),
        ("I2(7)", False),
    ]:
        ctx = context(spec)
        is_central = all(a.conjugated_by(ctx.delta) == a for a in ctx.atoms)
        assert is_central == central, spec


def test_conjugation_by_delta_reverses_a_n():
    for spec in ["A2", "A3", "A4"]:
        ctx = context(spec)
        n = ctx.rank
        for i in range(n):
            assert ctx.atoms[i].conjugated_by(ctx.delta) == ctx.atoms[n - 1 - i]


def test_conjugate_identity():
    ctx = context("A2")
    g = normalize(ctx, "s1 s2^-1 s1")
    assert g.conjugated_by(ctx.identity) == g


def test_conjugate_against_rewriting_oracle():
    # s1 s2 s1^-1: verified via the monoid oracle by clearing denominators
    ctx = context("A2")
    g = ctx.atoms[1].conjugated_by(ctx.atoms[0])
    assert g == normalize(ctx, "s1 s2 s1^-1")
    assert g * ctx.atoms[0] == normalize(ctx, "s1 s2")
    assert oracle_equal_positive(ctx.graph, (0, 1), (0, 1))


@pytest.mark.parametrize("spec", ["A2", "B2"])
def test_normalize_agrees_with_rewriting_oracle_exhaustive(spec):
    ctx = context(spec)
    for length in range(0, 7):
        reps = word_partition(ctx.graph, length)
        by_rep = {}
        by_nf = {}
        for word in itertools.product(range(ctx.rank), repeat=length):
            by_rep.setdefault(reps[word], set()).add(word)
            nf = ctx.from_word(tuple((i, 1) for i in word))
            by_nf.setdefault(nf, set()).add(word)
        assert sorted(map(sorted, by_rep.values())) == sorted(
            map(sorted, by_nf.values())
        )


def test_normalize_idempotent_on_random_words():
    random.seed(3)
    for spec in ["A3", "B3", "I2(5)"]:
        ctx = context(spec)
        for _ in range(100):
            word = tuple(
                (random.randrange(ctx.rank), random.choice([1, -1]))
                for _ in range(random.randrange(0, 8))
            )
            g = ctx.from_word(word)
            assert parse_element(ctx, g.to_text()) == g
            assert ctx.element(g.inf, g.body) == g
            assert (g * g.inverse()).is_identity


def test_normal_form_invariants():
    random.seed(4)
    ctx = context("B3")
    for _ in range(200):
        word = tuple(
            (random.randrange(3), random.choice([1, -1])) for _ in range(6)
        )
        g = ctx.from_word(word)
        assert all(not x.is_identity for x in g.body)
        if g.body:
            assert g.body[0] != ctx.delta_w
        # left-greedy: left descents of each factor inside right descents of the previous
        for u, v in zip(g.body, g.body[1:]):
            assert left_descents(v) <= right_descents(u)


@pytest.mark.parametrize("spec", ["A2", "I2(4)", "A3", "B3"])
def test_gcd_lcm_against_brute_force(spec):
    ctx = context(spec)
    elements = all_w(spec)
    rng = random.Random(5)
    pairs = (
        list(itertools.product(elements, repeat=2))
        if len(elements) <= 24
        else [ (rng.choice(elements), rng.choice(elements)) for _ in range(300) ]
    )
    for a, b in pairs:
        meet = gcd_simples(ctx, a, b)
        lower = [w for w in elements if w_prefix(w, a) and w_prefix(w, b)]
        assert meet in lower
        assert all(w_prefix(w, meet) for w in lower)
        join = lcm_simples(ctx, a, b)
        upper = [w for w in elements if w_prefix(a, w) and w_prefix(b, w)]
        assert join in upper
        assert all(w_prefix(join, w) for w in upper)


def test_lcm_of_atoms_is_delta():
    for spec in ["A2", "I2(4)", "I2(7)"]:
        ctx = context(spec)
        s1, s2 = ctx.system.generators[:2]
        assert lcm_simples(ctx, s1, s2) == ctx.delta_w
    a3 = context("A3")
    acc = a3.system.generators[0]
    for g in a3.system.generators[1:]:
        acc = lcm_simples(a3, acc, g)
    assert acc == a3.delta_w


def test_gcd_examples():
    ctx = context("A2")
    s1, s2 = ctx.system.generators
    assert gcd_simples(ctx, s1, s2) == ctx.system.identity
    x = s1 * s2
    assert gcd_simples(ctx, ctx.delta_w, x) == x
    # gcd(s1s2, s1s2s1) = s1s2 by brute force over the 6 simples
    assert gcd_simples(ctx, x, ctx.delta_w) == x
    assert gcd_simples(ctx, x, x) == x


def test_support_union_and_atom_length_additive():
    random.seed(6)
    ctx = context("B3")
    for _ in range(100):
        u = ctx.from_word(tuple((random.randrange(3), 1) for _ in range(4)))
        v = ctx.from_word(tuple((random.randrange(3), 1) for _ in range(4)))
        assert (u * v).support() == u.support() | v.support()
        assert atom_length(u * v) == atom_length(u) + atom_length(v)


def test_member_of_standard():
    ctx = context("A3")
    x12 = gens(ctx, "s1", "s2")
    assert member_of_standard(normalize(ctx, "s1 s2^-1"), x12)
    assert not member_of_standard(ctx.atoms[2], x12)
    d12 = ctx.delta_of(x12)
    assert member_of_standard(d12.inverse() * ctx.atoms[0], x12)
    assert not member_of_standard(ctx.delta, x12)
    assert member_of_standard(ctx.identity, frozenset())
    assert not member_of_standard(ctx.atoms[0], frozenset())


@pytest.mark.parametrize("spec", ["A3", "B3", "D4", "H3", "F4", "A5"])
def test_member_of_standard_matches_budget_oracle(spec):
    # members: signed words in the letters of X, shifted by Delta_X powers;
    # near misses: one more atom outside X, and signed words in every letter
    ctx = context(spec)
    rng = random.Random(f"member {spec}")
    n = ctx.rank
    subsets = [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
    hits = misses = 0
    for _ in range(120):
        x = rng.choice(subsets)
        inside = sorted(x) or [0]
        word = tuple((rng.choice(inside), rng.choice((1, -1))) for _ in range(rng.randrange(8)))
        member = ctx.from_word(word) * ctx.delta_of(x) ** rng.randint(-3, 3)
        outside = ctx.atoms[rng.randrange(n)]
        wild = tuple((rng.randrange(n), rng.choice((1, -1))) for _ in range(rng.randrange(1, 8)))
        for g in (member, member * outside, outside.inverse() * member, ctx.from_word(wild)):
            found = member_of_standard(g, x)
            assert found == budget_member_of_standard(g, x), (sorted(x), g)
            hits += found
            misses += not found
    assert hits >= 120 and misses >= 120


def test_prefix_partial_order_on_positives():
    ctx = context("A2")
    els = [
        ctx.from_word(tuple((i, 1) for i in word))
        for length in range(0, 4)
        for word in itertools.product(range(2), repeat=length)
    ]
    for a in els:
        assert is_prefix_of(a, a)
        for b in els:
            if is_prefix_of(a, b) and is_prefix_of(b, a):
                assert a == b
            for c in els:
                if is_prefix_of(a, b) and is_prefix_of(b, c):
                    assert is_prefix_of(a, c)


def test_mixed_context_raises():
    a2, a3 = context("A2"), context("A3")
    with pytest.raises(MixedContext):
        a2.atoms[0] * a3.atoms[0]


def test_parse_word_errors():
    g = context("A3").graph
    assert parse_word(g, "s1 s2^-1") == ((0, 1), (1, -1))
    with pytest.raises(ParseError) as err:
        parse_word(g, "s1 t3")
    assert err.value.position == 3
    with pytest.raises(ParseError):
        parse_word(g, "s9")


def test_parse_word_reads_tokens_outside_the_letter_table_by_pattern():
    # s<i> with leading zeros is no name of the graph but a valid token;
    # an error offset counts the text before it, repeated tokens included
    g = context("A3").graph
    assert parse_word(g, " s01\ts002^-1 s3 ") == ((0, 1), (1, -1), (2, 1))
    with pytest.raises(ParseError, match="'s04' out of range") as err:
        parse_word(g, "s1  s1 s01 s04")
    assert err.value.position == 11
    with pytest.raises(ParseError, match=r"bad generator token 's1\^-2'") as err:
        parse_word(g, "s1^-1 s1^-2")
    assert err.value.position == 6


def test_parsers_read_ascii_digits_only():
    ctx = context("A3")
    for token in ("s\u00b2", "s\u2460", "s\u0663", "s"):
        with pytest.raises(ParseError) as err:
            parse_word(ctx.graph, "s1 " + token)
        assert err.value.position == 3
    for text in ("DELTA^1_0 | s1", "DELTA^\u0663 | s1", "DELTA^ | s1", "DELTA^+-1 | s1"):
        with pytest.raises(ParseError, match="bad Delta exponent"):
            parse_element(ctx, text)
    s1 = normalize(ctx, "s1")
    assert parse_element(ctx, "DELTA^+2 | s1") == ctx.delta**2 * s1
    assert parse_element(ctx, "DELTA^-10 | s1") == ctx.delta**-10 * s1


def test_element_serialization_roundtrip():
    ctx = context("B3")
    g = normalize(ctx, "s1 s3^-1 s2 s1 s2^-1")
    assert parse_element(ctx, g.to_text()) == g
    assert parse_element(ctx, "DELTA^-2 | s1 s2 . s1") == (
        ctx.delta**-2 * normalize(ctx, "s1 s2 s1")
    )


def test_parse_element_error_offsets_count_from_the_tail():
    ctx = context("A3")
    with pytest.raises(ParseError) as err:
        parse_element(ctx, "DELTA^1 | s1 s2 . s9")
    assert err.value.position == 9
    with pytest.raises(ParseError) as err:
        parse_element(ctx, "DELTA^0 | s1.t2")
    assert err.value.position == 4


def serialized_texts(ctx, rng, count, length):
    """to_text of seeded normal forms, each also with one letter inverted,
    with one letter doubled (a non-reduced piece) and as its signed word."""
    texts = []
    for _ in range(count):
        word = tuple(
            (rng.randrange(ctx.rank), rng.choice([1, -1])) for _ in range(rng.randrange(length))
        )
        text = ctx.from_word(word).to_text()
        head, _, tail = text.partition("|")
        tokens = tail.split()
        letters = [i for i, t in enumerate(tokens) if t != "."]
        texts += [text, word_to_text(ctx.graph, word)]
        if letters:
            k = rng.choice(letters)
            inverted, doubled = list(tokens), list(tokens)
            inverted[k] += "^-1"
            doubled[k] += " " + doubled[k]
            texts += [f"{head}| {' '.join(inverted)}", f"{head}| {' '.join(doubled)}"]
    return texts


@pytest.mark.parametrize(
    "spec,count,length", [("A4", 60, 12), ("B3", 60, 12), ("D4", 60, 12), ("E8", 8, 20)]
)
def test_parse_element_matches_per_piece_and_whole_tail_oracles(spec, count, length):
    ctx = context(spec)
    texts = serialized_texts(ctx, random.Random(spec), count, length) + [
        "DELTA^3 |",
        "DELTA^-1 |  ",
        "DELTA^2 | s1 s2 .",
        "DELTA^0 | . s2",
        "DELTA^-1 | s1 s1 . s2^-1 s1",
        "DELTA^1 | s1 s2 s1",
        "s1 s2^-1 s1",
        "s2 s2",
        "",
    ]
    for text in texts:
        g = parse_element(ctx, text)
        assert g == per_piece_parse(ctx, text) == whole_tail_parse(ctx, text), text


def test_cox_multiply_reaches_longest_element():
    from artinmark.coxeter import longest_element
    ctx = context("A2")
    s1, s2 = ctx.system.generators
    w0 = longest_element(ctx.system, frozenset({0, 1}))
    assert s1 * s2 * s1 == w0 and w0.length == 3
    assert ctx.system.identity * w0 == w0


def test_lcm_idempotent():
    ctx = context("A2")
    x = ctx.system.generators[0] * ctx.system.generators[1]
    assert lcm_simples(ctx, x, x) == x


def test_word_text_roundtrip():
    ctx = context("B3")
    word = ((0, 1), (2, -1), (1, 1), (0, -1))
    text = word_to_text(ctx.graph, word)
    assert text == "s1 s3^-1 s2 s1^-1"
    assert parse_word(ctx.graph, text) == word


def random_signed_word(rng, rank, length):
    return tuple((rng.randrange(rank), rng.choice((1, -1))) for _ in range(length))


@pytest.mark.parametrize(
    "spec,length",
    [("A3", 12), ("B3", 12), ("D4", 12), ("H3", 12), ("I2(5)", 12), ("E6", 12), ("E8", 8)],
)
def test_sweep_matches_fixed_point_normalizer(spec, length):
    ctx = context(spec)
    rng = random.Random(spec)
    elements = []
    for _ in range(10):
        word = random_signed_word(rng, ctx.rank, rng.randrange(length + 1))
        g = ctx.from_word(word)
        assert (g.inf, g.body) == fixed_point_from_word(ctx, word)
        assert (g.inverse().inf, g.inverse().body) == fixed_point_inverse(g)
        elements.append(g)
    for a in elements[:6]:
        for b in elements:
            ab = a * b
            assert (ab.inf, ab.body) == fixed_point_product(a, b)


def words_with_runs(rng, rank, count, length):
    """Seeded signed words of blocks of one sign, 1 to 12 letters each, so
    that from_word meets long runs, reduced or not."""
    words = []
    for _ in range(count):
        word = []
        while len(word) < length:
            sign = rng.choice((1, -1))
            word += [(rng.randrange(rank), sign) for _ in range(rng.randint(1, 12))]
        words.append(tuple(word[:length]))
    return words


def test_runs_split_where_the_word_stops_being_reduced():
    ctx = context("A2")
    for text, expected in [
        ("s1 s1", "DELTA^0 | s1 . s1"),
        ("s1^-1 s1^-1", "DELTA^-2 | s2 s1 . s1 s2"),
        ("s1 s2 s1 s2", "DELTA^1 | s2"),
        ("s1 s2 s1^-1 s2^-1", "DELTA^-1 | s2 s1 . s1"),
    ]:
        word = parse_word(ctx.graph, text)
        g = ctx.from_word(word)
        assert g.to_text() == expected, text
        assert (g.inf, g.body) == fixed_point_from_word(ctx, word)


@pytest.mark.parametrize(
    "spec,count,length",
    [("A3", 60, 30), ("I2(5)", 60, 30), ("E8", 10, 40), ("A16", 3, 24), ("B12", 3, 24)],
)
def test_runs_match_fixed_point_from_word(spec, count, length):
    ctx = context(spec)
    rng = random.Random(f"{spec} runs")
    for word in words_with_runs(rng, ctx.rank, count, length):
        g = ctx.from_word(word)
        assert (g.inf, g.body) == fixed_point_from_word(ctx, word)


@pytest.mark.parametrize("spec", ["A3", "I2(5)", "E8"])
def test_parse_element_of_unreduced_pieces_matches_fixed_point_from_word(spec):
    # a doubled letter makes its '.'-piece unreduced, so a run of from_word
    # ends inside the piece; an inverted letter splits it by sign
    ctx = context(spec)
    rng = random.Random(f"{spec} pieces")
    texts = serialized_texts(ctx, rng, 20, 16)
    texts += ["DELTA^-1 | s1 s1 . s2^-1 s1", "DELTA^2 | s1 s2 s1 s2", "s2 s2 s1^-1"]
    for text in texts:
        head, sep, tail = text.partition("|")
        inf = int(head.strip()[len("DELTA^"):]) if sep else 0
        word = parse_word(ctx.graph, (tail if sep else head).replace(".", " "))
        g = parse_element(ctx, text)
        p, body = fixed_point_from_word(ctx, word)
        assert (g.inf, g.body) == (inf + p, body), text


def test_e8_normal_forms_intern_only_meets():
    # on a fresh root system these 60 signed length-40 words intern 2,479
    # elements; 7,892 when each letter was a factor and each slide interned
    # the complement, the meet and its inverse, and 340,814 when every
    # descent-peel temporary was interned
    graph = build_defining_graph("E8")
    ctx = GarsideContext(graph, RootSystem(graph))
    rng = random.Random(40)
    for _ in range(60):
        ctx.from_word(random_signed_word(rng, 8, 40))
    assert len(ctx.system._elements) < 20_000


def test_e8_signed_words_normal_forms_without_the_peel():
    # the e8-words regime (length 40, 20 inverse letters), checked with
    # descent sets and interned products only, not the meet kernel: every
    # adjacent pair is left-weighted, the factors spell the word's W-image,
    # and the letter count matches the exponent sum
    ctx = context("E8")
    gens, w0 = ctx.system.generators, ctx.delta_w
    rng = random.Random("e8-words")
    for _ in range(20):
        signs = [1, -1] * 20
        rng.shuffle(signs)
        word = tuple((rng.randrange(8), sign) for sign in signs)
        g = ctx.from_word(word)
        for u, v in zip(g.body, g.body[1:]):
            assert left_descents(v) <= right_descents(u)
        image = ctx.system.identity
        for i, _ in word:
            image = image * gens[i]
        nf_image = w0 if g.inf % 2 else ctx.system.identity
        letters = 0
        for x in g.body:
            for t in descent_peel_reduced_word(x):
                nf_image, letters = nf_image * gens[t], letters + 1
        assert nf_image is image
        assert g.inf * ctx.delta_len + letters == sum(signs)


def test_delta_only_powers_closed_form():
    ctx = context("B3")
    for k in range(-4, 5):
        expected = ctx.identity
        for _ in range(abs(k)):
            expected = expected * (ctx.delta if k > 0 else ctx.delta.inverse())
        assert ctx.delta**k == expected
        assert (ctx.delta**2) ** k == expected * expected


def test_powers_take_one_product_per_factor_after_the_first(monkeypatch):
    # x^k multiplies |k| copies of x (of x^-1 when k < 0) with |k| - 1
    # products, and x^0 is the identity with none
    from artinmark.garside import ArtinElement

    ctx = context("A3")
    x = normalize(ctx, "s1 s2^-1 s3 s2")
    expected = {}
    for k in range(-4, 5):
        value = ctx.identity
        for _ in range(abs(k)):
            value = value * (x if k > 0 else x.inverse())
        expected[k] = value
    products = []
    mul = ArtinElement.__mul__

    def spy(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(ArtinElement, "__mul__", spy)
    for k, value in expected.items():
        products.clear()
        assert x**k == value
        assert len(products) == max(abs(k) - 1, 0)
