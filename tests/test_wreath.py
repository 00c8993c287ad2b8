import operator
from types import MappingProxyType

import pytest
from hypothesis import given, strategies as st

from allostery import Lamp, WreathElement, WreathGroup, audit_castle, format_element, parse_element
from allostery.base import neg
from allostery.errors import BudgetExceededError, RankMismatchError, TextParseError
from allostery import wreath
from allostery.wreath import format_vec, read_canonical

from conftest import make_transversal_castle
from oracle import grammar_element, scan_element


def vecs(rank, lo=-4, hi=4):
    return st.lists(st.integers(lo, hi), min_size=rank, max_size=rank).map(tuple)


def elements(d=1, m=1):
    return st.builds(
        lambda items, shift: WreathElement(Lamp.of(items), shift),
        st.dictionaries(vecs(m), vecs(d), max_size=3),
        vecs(m),
    )


def test_lamp_normalization():
    lamp = Lamp.of({(0,): (1,), (2,): (0,), (1,): (3,)})
    assert lamp.support == ((0,), (1,))
    assert dict(lamp.entries).get((2,)) is None
    assert dict(lamp.entries).get((1,)) == (3,)
    assert len(lamp) == 2


def test_product_example():
    a = WreathElement(Lamp.of({(0,): (1,)}), (1,))
    b = WreathElement(Lamp.of({(0,): (1,)}), (0,))
    ab = a * b
    assert dict(ab.lamp.entries).get((0,)) == (1,)
    assert dict(ab.lamp.entries).get((1,)) == (1,)
    assert ab.shift == (1,)


def test_inverse_example():
    a = WreathElement(Lamp.of({(0,): (1,)}), (1,))
    inv = a.inverse()
    assert dict(inv.lamp.entries).get((-1,)) == (-1,)
    assert inv.shift == (-1,)
    assert (a * inv).is_identity()
    assert (inv * a).is_identity()


def test_identity_element(group11):
    e = group11.identity()
    assert e.is_identity()
    x = group11.parse_element("{(2):(-1)};(3)")
    assert e * x == x
    assert x * e == x


def test_rank_checked_on_multiply():
    a = WreathElement(Lamp.of({(0,): (1,)}), (0,))
    b = WreathElement(Lamp.of({(0, 0): (1,)}), (0, 0))
    with pytest.raises(RankMismatchError):
        a * b


@pytest.mark.parametrize("left", ["{};(0)", "{(0):(1)};(0)", "{};(2)", "{(0):(1)};(-1)"])
@pytest.mark.parametrize("entries", [{(0, 0): (1,)}, {(3,): (1,), (0, 0): (1,)}])
def test_rank_checked_on_multiply_for_lamp_positions(left, entries):
    """Equal shift ranks, but a right lamp position of another rank: the
    product raises whether or not the left shift moves it."""
    with pytest.raises(RankMismatchError):
        parse_element(left) * WreathElement(Lamp.of(entries), (0,))


def test_rank_checked_on_multiply_for_lamp_values_that_meet():
    a = parse_element("{(0):(1)};(0)")
    with pytest.raises(RankMismatchError):
        a * WreathElement(Lamp.of({(0,): (1, 1)}), (0,))


@given(elements(), elements(), elements())
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(elements())
def test_inverse_laws(x):
    assert (x * x.inverse()).is_identity()
    assert x.inverse().inverse() == x


@given(elements(), elements())
def test_support_containment(a, b):
    allowed = set(a.lamp.support)
    allowed.update(tuple(p + s for p, s in zip(pos, a.shift)) for pos in b.lamp.support)
    assert set((a * b).lamp.support) <= allowed


def test_generators_and_names(group11):
    names = group11.generator_names()
    assert names == ("s1", "S1", "t1", "T1")
    gens = group11.generators()
    assert dict(gens[0].lamp.entries).get((0,)) == (1,)
    assert gens[1] == gens[0].inverse()
    assert gens[2].shift == (1,)
    assert gens[3] == gens[2].inverse()


def test_generator_layout_d2_m2():
    group = WreathGroup(2, 2)
    names = group.generator_names()
    assert names == ("s1", "S1", "s2", "S2", "t1", "T1", "t2", "T2")
    assert dict(group.lamp_generator(1).lamp.entries).get((0, 0)) == (0, 1)
    assert group.shift_generator(1).shift == (0, 1)


def test_word_evaluates_left_to_right(group11):
    s, _, t, _ = group11.generators()
    word = group11.parse_word("s1.t1")
    assert group11.word_element(word) == s * t
    assert group11.word_name(word) == "s1.t1"
    assert group11.word_name(()) == "e"
    assert group11.word_element(group11.parse_word("e")).is_identity()


def inverse_paired_words(n_gens):
    """Words of 0-40 letters: each drawn letter is followed, or not, by its
    inverse."""
    return st.lists(st.tuples(st.integers(0, n_gens - 1), st.booleans()), max_size=20).map(
        lambda pairs: tuple(g for a, paired in pairs for g in ((a, a ^ 1) if paired else (a,)))
    )


@given(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]), st.data())
def test_word_element_is_the_fold_of_generator_products(ranks, data):
    group = WreathGroup(*ranks)
    gens = group.generators()
    word = data.draw(inverse_paired_words(len(gens)))
    expected = group.identity()
    for g in word:
        expected = expected * gens[g]
    assert group.word_element(word) == expected


LEFT_FACTORS = ("generator", "identity", "lamp-only", "shift-only", "mixed")
RANKS_TO_3 = [(d, m) for d in (1, 2, 3) for m in (1, 2, 3)]


def left_factor(draw, group, kind):
    """A random g of the kind; lamp-only and mixed g have a nonzero lamp,
    shift-only and mixed g a nonzero shift."""
    d, m = group
    if kind == "generator":
        return draw(st.sampled_from(group.generators()))
    lamp, shift = Lamp(), (0,) * m
    if kind in ("lamp-only", "mixed"):
        lamp = Lamp.of(draw(st.dictionaries(vecs(m), vecs(d).filter(any), min_size=1, max_size=3)))
    if kind in ("shift-only", "mixed"):
        shift = draw(vecs(m).filter(any))
    return WreathElement(lamp, shift)


@given(st.sampled_from(RANKS_TO_3), st.data())
def test_left_multiplier_is_the_product(ranks, data):
    """g.left_multiplier() maps x to g * x, for every kind of g.  Some x
    hold, at each position of g's lamp moved back by g's shift, the
    negation of g's entry, so that the entry cancels and is pruned."""
    group = WreathGroup(*ranks)
    g = left_factor(data.draw, group, data.draw(st.sampled_from(LEFT_FACTORS), label="kind"))
    times = g.left_multiplier()
    x = data.draw(elements(*ranks), label="x")
    cancel = data.draw(st.booleans(), label="cancel")
    if cancel:
        back = {tuple(map(operator.sub, p, g.shift)): neg(v) for p, v in g.lamp}
        x = WreathElement(Lamp.of({**dict(x.lamp), **back}), x.shift)
    product = times(x)
    assert product == g * x
    assert type(product) is WreathElement and type(product.lamp) is Lamp
    if cancel:
        assert not set(g.lamp.support) & set(product.lamp.support)


@pytest.mark.parametrize("ranks", RANKS_TO_3)
def test_left_multiplier_of_each_generator_and_the_identity(ranks):
    group = WreathGroup(*ranks)
    xs = [group.identity(), *group.generators(), group.word_element(range(len(group.generators())))]
    for g in (group.identity(), *group.generators()):
        times = g.left_multiplier()
        assert [times(x) for x in xs] == [g * x for x in xs]


@pytest.mark.parametrize("gamma", ["{(0,0):(1)};(0,0)", "{(0):(1,1)};(0)", "{};(1,0)"])
def test_audit_of_a_gamma_of_other_ranks_raises(w9, gamma):
    """The audit multiplies by gamma^-1 without checking ranks, after the
    window has rejected a gamma of other ranks."""
    with pytest.raises(RankMismatchError):
        audit_castle(make_transversal_castle(w9), parse_element(gamma), w9)


@pytest.mark.parametrize("letter", [-1, 99])
def test_word_element_rejects_out_of_range_letter(group11, letter):
    with pytest.raises(ValueError, match="out of range"):
        group11.word_element((2, letter))


def test_ball_radius_zero_and_one(group11):
    ball0 = group11.ball(0)
    assert [x.text() for x in ball0] == ["{};(0)"]
    ball1 = group11.ball(1)
    assert len(ball1) == 5
    assert ball1[0].is_identity()
    texts = [x.text() for x in ball1[1:]]
    assert texts == sorted(texts)
    assert {t for t in texts} == {"{(0):(-1)};(0)", "{(0):(1)};(0)", "{};(-1)", "{};(1)"}


def test_ball_growth_and_words(group11):
    ball1 = group11.ball(1)
    ball2 = group11.ball(2)
    assert len(ball2) == 17
    assert ball2[: len(ball1)] == ball1
    assert set(ball2) == {x * g for x in ball1 for g in group11.generators()} | set(ball1)


def test_ball_budget(group11):
    with pytest.raises(BudgetExceededError):
        group11.ball(9)


@given(elements(d=2, m=2))
def test_text_round_trip(x):
    text = format_element(x)
    assert parse_element(text, 2, 2) == x


def test_parse_errors_have_positions():
    with pytest.raises(TextParseError):
        parse_element("{(0):(1)};", 1, 1)
    with pytest.raises(TextParseError):
        parse_element("{(0):(1,2)};(0)", 1, 1)
    with pytest.raises(TextParseError):
        parse_element("nonsense", 1, 1)
    err = None
    try:
        parse_element("{(0):(x)};(0)", 1, 1, line=7)
    except TextParseError as exc:
        err = exc
    assert err is not None and err.line == 7


def test_validate_element(group11):
    with pytest.raises(RankMismatchError):
        group11.validate_element(WreathElement(Lamp.of({(0, 0): (1,)}), (0, 0)))


def wide_vecs(rank):
    return st.tuples(*[st.one_of(st.integers(-4, 4), st.integers(-(10**12), 10**12))] * rank)


def wide_elements(d, m):
    """Elements with an empty lamp or up to four entries at small or huge
    positions of either sign, and a zero shift or any."""
    return st.builds(
        lambda items, shift: WreathElement(Lamp.of(items), shift),
        st.dictionaries(wide_vecs(m), vecs(d), max_size=4),
        st.one_of(st.just((0,) * m), wide_vecs(m)),
    )


@given(st.data())
def test_operations_keep_lamps_in_normal_form(data):
    d, m = data.draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]), label="d, m")
    a = data.draw(wide_elements(d, m), label="a")
    b = data.draw(wide_elements(d, m), label="b")
    by = data.draw(wide_vecs(m), label="by")
    word = data.draw(st.lists(st.integers(0, 2 * (d + m) - 1), max_size=12), label="word")
    lamps = [
        (a * b).lamp,
        (a * b * b.inverse()).lamp,
        a.inverse().lamp,
        a.lamp.neg(),
        a.lamp.shifted(by),
        WreathGroup(d, m).word_element(word).lamp,
    ]
    for lamp in lamps:
        assert lamp == Lamp.of(lamp.entries)
        assert Lamp(lamp.entries) == lamp
    assert (a * b * b.inverse()) == a


def test_direct_lamp_keeps_validation():
    with pytest.raises(ValueError):
        Lamp((((1,), (1,)), ((0,), (1,))))
    with pytest.raises(ValueError):
        Lamp((((0,), (0,)),))
    with pytest.raises(ValueError):
        Lamp((((0,), (1,)), ((0,), (2,))))


RANKS = st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)])


def raw_element_texts(d, m):
    """Element texts in any entry order, with repeated positions and zero
    values, and now and then a vector of the other rank."""
    def vec(rank):
        return st.one_of(vecs(rank, -2, 2), vecs(rank, -2, 2), vecs(3 - rank, -2, 2))

    entries = st.lists(st.tuples(vec(m), vec(d)), max_size=4)
    return st.builds(
        lambda items, shift: "{"
        + ",".join(f"{format_vec(p)}:{format_vec(v)}" for p, v in items)
        + "};"
        + format_vec(shift),
        entries,
        vec(m),
    )


EDIT_CHARS = "{}();:,-0123456789 x٣"


@st.composite
def edited(draw, text):
    """The text with one character deleted, replaced or inserted."""
    i = draw(st.integers(0, len(text)))
    c = draw(st.sampled_from(EDIT_CHARS))
    op = draw(st.sampled_from(["delete", "replace", "insert"]))
    if op == "insert" or i == len(text):
        return text[:i] + c + text[i:]
    return text[:i] + ("" if op == "delete" else c) + text[i + 1 :]


def outcome(parse, text, d, m):
    try:
        return parse(text, d, m, line=3)
    except TextParseError as exc:
        return ("TextParseError", exc.message, exc.line, exc.column)
    except RankMismatchError as exc:
        return ("RankMismatchError", str(exc))


def assert_parser_matches_the_oracles(text, d, m):
    """parse_element and the scanner oracle give the same element, or the
    same error at the same line and column, with and without ranks.  The
    parser accepts the text without ranks exactly when the grammar oracle
    does, and gives its element; with ranks, exactly when that element also
    has ranks d and m; both raise the RankMismatchError of ``Lamp.of``
    where the grammar's entries at one position differ in rank."""
    ranked, free = outcome(parse_element, text, d, m), outcome(parse_element, text, None, None)
    assert ranked == outcome(scan_element, text, d, m)
    assert free == outcome(scan_element, text, None, None)
    try:
        x = grammar_element(text)
    except RankMismatchError as exc:
        assert free == ranked == ("RankMismatchError", str(exc))
        return
    if x is None:
        assert free[0] == ranked[0] == "TextParseError"
        return
    assert free == x
    try:
        WreathGroup(d, m).validate_element(x)
    except RankMismatchError:
        assert ranked[0] == "TextParseError"
    else:
        assert ranked == x


@given(RANKS, st.data())
def test_parser_matches_the_scanner(ranks, data):
    """The parser, the part-by-part scanner and the one-pattern grammar
    agree on canonical and non-canonical texts and on single-character
    edits of both."""
    d, m = ranks
    text = data.draw(
        st.one_of(elements(d, m).map(format_element), raw_element_texts(d, m)), label="text"
    )
    if data.draw(st.booleans(), label="edit"):
        text = data.draw(edited(text), label="edited")
    assert_parser_matches_the_oracles(text, d, m)


@pytest.mark.parametrize(
    "text",
    [
        " {};(0) ",
        "{(1):(2),(0):(1)};(0)",
        "{(0):(1),(0):(-1)};(0)",
        "{(0):(0)};(5)",
        "{(0):(1),};(0)",
        "{(0):(1)(1):(1)};(0)",
        "{};(0)x",
        "{};(0,)",
        "{} ;(0)",
        "{(0):(1)}",
        "",
        5,
    ],
)
def test_parser_matches_the_scanner_on_examples(text):
    assert outcome(parse_element, text, 1, 1) == outcome(scan_element, text, 1, 1)
    assert_parser_matches_the_oracles(text, 1, 1)


@given(st.dictionaries(vecs(2), vecs(1, -3, 3).filter(any), max_size=5), st.data())
def test_lamp_of_normalises_any_spelling(entries, data):
    """The same lamp written sorted, unsorted, with a position split in two
    and with zero values added comes out of Lamp.of as the canonical lamp."""
    canonical = sorted(entries.items())
    lamp = Lamp.of(canonical)
    assert lamp == tuple(canonical)
    messy = data.draw(st.permutations(canonical), label="order")
    if messy:
        pos, val = messy[0]
        part = data.draw(vecs(1, -3, 3), label="part")
        messy[0] = (pos, (val[0] - part[0],))
        messy.append((pos, part))
    zeros = data.draw(st.lists(vecs(2), max_size=2), label="zeros")
    messy += [(pos, (0,)) for pos in zeros]
    assert Lamp.of(messy) == lamp
    assert Lamp.of(dict(entries)) == lamp


def test_lamp_of_takes_lists_and_any_mapping():
    """Positions and values given as lists become tuples, and a mapping that
    is not a dict is read by its items, so each lamp hashes and equals the
    tuple-built one."""
    lamp = Lamp.of({(0,): (1,), (2,): (-1,)})
    assert Lamp.of([([2], [-1]), ([0], [1])]) == lamp
    assert Lamp.of(MappingProxyType({(2,): (-1,), (0,): (1,)})) == lamp
    assert hash(Lamp.of([([0], [1]), ([2], [-1])])) == hash(lamp)


@given(RANKS, st.data())
def test_canonical_texts_print_as_parsed(ranks, data):
    d, m = ranks
    text = data.draw(wide_elements(d, m).map(format_element), label="text")
    assert format_element(parse_element(text, d, m)) == text


def test_vector_texts_come_from_the_formatter():
    """Input spellings never become canonical: (01) and (-0) print as (1)
    and (0), and the memos of vectors stay bounded."""
    x = parse_element("{(01):(1),(2):(-0)};(-0)")
    assert format_element(x) == "{(1):(1)};(0)"
    for i in range(5000):
        parse_element(f"{{}};({i})")
    assert wreath.format_vec.cache_info().currsize <= 4096
    for i in range(5000):
        read_canonical(f"{{}};({i})", 1, 1)
    assert wreath._canonical_vec.cache_info().currsize <= 4096
    assert format_element(parse_element("{(-0):(01)};(00)")) == "{(0):(1)};(0)"


def reads_as_canonical(text, d, m):
    """read_canonical agrees with parsing and printing: it gives an element
    exactly when the text parses at ranks d and m and prints back to
    itself, and then the scanner oracle gives the same element."""
    x = read_canonical(text, d, m)
    try:
        printed = format_element(parse_element(text, d, m)) == text
    except (TextParseError, RankMismatchError):
        printed = False
    assert (x is not None) == printed
    if x is not None:
        assert x == scan_element(text, d, m)
        assert type(x) is WreathElement and type(x.lamp) is Lamp
    return x is not None


@given(RANKS, st.data())
def test_canonical_reader_accepts_exactly_the_printed_texts(ranks, data):
    d, m = ranks
    text = data.draw(
        st.one_of(
            wide_elements(d, m).map(format_element),
            elements(d, m).map(format_element),
            raw_element_texts(d, m),
        ),
        label="text",
    )
    if data.draw(st.booleans(), label="edit"):
        text = data.draw(edited(text), label="edited")
    reads_as_canonical(text, d, m)
    other = data.draw(RANKS, label="other ranks")
    reads_as_canonical(text, *other)


@pytest.mark.parametrize(
    "text, canonical",
    [
        ("{};(0)", True),
        ("{(-3):(2),(0):(-1),(12):(1)};(-7)", True),
        ("{(01):(1)};(0)", False),
        ("{(0):(1)};(-0)", False),
        ("{(+1):(1)};(0)", False),
        ("{(1_0):(1)};(0)", False),
        ("{( 1):(1)};(0)", False),
        ("{(0):(1)};(٣)", False),
        (" {};(0)", False),
        ("{};(0)\n", False),
        ("{(1):(1),(0):(1)};(0)", False),
        ("{(0):(1),(0):(2)};(0)", False),
        ("{(0):(0)};(0)", False),
        ("{(0):(1),};(0)", False),
        ("{};(0,)", False),
        ("{(1):(1)):(2)};(0)", False),
        ("{(1):(1)};(0)};(0)", False),
        ("{(0):(1)(1):(1)};(0)", False),
        ("{x0):(1y};(0)", False),
        ("{[0):(1]};(0)", False),
        ("{(0,0):(1)};(0)", False),
        ("{(0):(1,1)};(0)", False),
        ("{};(0,0)", False),
        ("{};(" + "7" * 5000 + ")", False),
        ("{(" + "7" * 5000 + "):(1)};(0)", False),
        ("", False),
        (5, False),
    ],
)
def test_canonical_reader_on_examples(text, canonical, default_digit_limit):
    assert reads_as_canonical(text, 1, 1) == canonical


def test_a_number_past_the_digit_limit_is_a_parse_error_at_its_column(default_digit_limit):
    """A number longer than the interpreter reads from text is a parse
    error at the number's column, not a ValueError, wherever it stands and
    whatever follows it."""
    big = "-" + "7" * 5000
    for text in [
        "{(0):(1),(" + big + "):(2)};(0)",
        "{(0):(1)};(1," + big + ")",
        "{(0):(1)};(1," + big + ")x",
        " {(0):(" + big + ")};(0)",
    ]:
        with pytest.raises(TextParseError) as info:
            parse_element(text, 1, 1, line=4)
        column = text.strip().index(big) + 1
        assert (info.value.message, info.value.line, info.value.column) == (
            "number longer than 4300 digits",
            4,
            column,
        )
    assert read_canonical("{};(" + big + ")", 1, 1) is None
