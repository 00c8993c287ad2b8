from fractions import Fraction
from math import prod

import pytest

from allostery import (
    FiniteLevel,
    Lamp,
    Window,
    WreathElement,
    WreathGroup,
    assign_primes,
    forge,
    stabilizer_witness,
)
from allostery.dynamics import _bfs
from allostery.errors import (
    BudgetExceededError,
    RankMismatchError,
    TextParseError,
    WindowError,
)

from conftest import fresh_rng
from oracle import (
    Coset,
    _projection,
    act,
    check_inverse_system,
    coset_at,
    coset_text,
    fixed_states,
    flat_stabilizer_witness,
    identity_state,
    index_of,
    iter_states,
    state_of,
    structure_map,
    tuple_orbit,
)
from sampling import random_element, random_member


@pytest.fixture(scope="module")
def level32(d32):
    return FiniteLevel(d32)


@pytest.fixture(scope="module")
def level9(d9):
    return FiniteLevel(d9)


def test_state_count_equals_index(level32, level9):
    assert level32.size == 32
    assert len(list(iter_states(level32))) == 32
    assert level9.size == 9
    assert len(list(iter_states(level9))) == 9


@pytest.fixture(scope="module")
def level729():
    """A level with d = m = 2 and two lamp digit groups: 9 base blocks of 81 lamp offsets."""
    gamma = WreathGroup(2, 2).parse_element("{(0,0):(1,0)};(0,0)")
    level = FiniteLevel(forge(gamma, 3, Fraction(1, 2), 2, 2))
    assert (level.size, level.l, level.modulus) == (729, 2, 3)
    return level


def test_index_round_trip(level32, level9, level729):
    """The reference's own index spelling numbers the states as iter_states
    lists them, and the level's digits are the reference's base and sums."""
    for level in (level32, level9, level729):
        for i, s in enumerate(iter_states(level)):
            assert index_of(level, s) == i
            assert coset_at(level, i) == s
            assert level.digits(i) == (list(s.base), [c for v in s.sums for c in v])


def test_act_examples(level32, group11):
    def coset(x):
        """The coset of x: x acting on the identity coset, state 0."""
        return coset_at(level32, level32.images(0, [x])[0])

    t = group11.parse_element("{};(1)")
    s1 = group11.parse_element("{(0):(1)};(0)")
    assert coset_at(level32, 0) == Coset((0,), ((0,), (0,)))
    assert coset(t) == Coset((1,), ((0,), (0,)))
    assert coset(s1) == Coset((0,), ((1,), (0,)))
    assert coset(t * s1) == Coset((1,), ((1,), (0,)))
    assert coset(group11.identity()) == coset_at(level32, 0)


def test_member_acts_trivially_on_identity_coset(level32, d32):
    rng = fresh_rng(3)
    for _ in range(20):
        member = random_member(rng, d32)
        assert level32.images(0, [member])[0] == 0
        assert state_of(level32, member) == identity_state(level32)


def test_left_action_law(level32, level9, group11):
    rng = fresh_rng(11)
    for level in (level32, level9):
        for _ in range(40):
            x = random_element(rng, group11)
            y = random_element(rng, group11)
            i = rng.randrange(level.size)
            after_y = level.images(i, [y])[0]
            assert level.images(i, [x * y])[0] == level.images(after_y, [x])[0]


def test_tables_are_permutations(level32):
    for g in range(4):
        table = level32.table(g)
        assert sorted(table) == list(range(32))
    assert level32.table(0) is level32.table(0)


def test_level_orbit(level32, level9):
    for level in (level32, level9):
        orb = level.orbit(0)
        assert orb.size == level.size
        assert orb.order[0] == 0
        assert sorted(orb.order) == list(range(level.size))
        for s in orb.order:
            x = level.group.word_element(orb.words[s])
            assert level.images(0, [x])[0] == s


def test_orbit_with_no_generators(level32):
    orb = _bfs([], 5, level32.size)
    assert orb.size == 1
    assert orb.words == {5: ()}


def test_fixed_point_counts(level32, level9, group11, d32, d9):
    s1 = group11.parse_element("{(0):(1)};(0)")
    t = group11.parse_element("{};(1)")
    assert len(level32.brute_fixed_indices(s1)) == 24 == d32.fixed_fraction() * d32.index()
    assert len(level9.brute_fixed_indices(s1)) == 6 == d9.fixed_fraction() * d9.index()
    assert level32.brute_fixed_indices(t) == []
    assert len(level32.brute_fixed_indices(group11.identity())) == 32
    assert d32.fixed_fraction() == Fraction(3, 4)
    assert d9.fixed_fraction() == Fraction(2, 3)


def test_window_basics(w288, w32, w9):
    assert w288.size == 288
    assert len(w288) == 2
    assert w288.identity_thread() == (0, 0)
    assert w288.primes_distinct()
    assert not Window([w32.data[0], w32.data[0]]).primes_distinct()
    for i in range(0, 288, 17):
        assert w288.flat_index(w288.state_at(i)) == i


def test_window_action_is_diagonal(w288, group11):
    rng = fresh_rng(5)
    for _ in range(25):
        x = random_element(rng, group11)
        state = w288.state_at(rng.randrange(288))
        acted = w288.prepare(x).apply(state)
        for level, before, after in zip(w288.levels, state, acted):
            assert act(level, x, coset_at(level, before)) == coset_at(level, after)


def test_window_transitivity(w32, w9, w288, d32):
    assert w32.orbit(w32.identity_thread()).size == 32
    assert w9.orbit(w9.identity_thread()).size == 9
    assert w288.orbit(w288.identity_thread()).size == 288
    doubled = Window([d32, d32])
    assert doubled.orbit(doubled.identity_thread()).size < doubled.size


def test_window_orbit_matches_tuple_bfs(w288, d32):
    rng = fresh_rng(7)
    cases = [(w288, w288.state_at(i)) for i in [0, 287] + rng.sample(range(1, 287), 4)]
    split = Window([d32, d32])
    cases += [(split, (0, 0)), (split, (5, 17))]
    for window, start in cases:
        order, words = tuple_orbit(window, start)
        orb = window.orbit(start)
        assert orb.start == start
        assert orb.size == len(order) == len(words)
        assert orb.order == order
        assert orb.words == words
        assert all(orb.word(s) == words[s] for s in order[::37])
    assert split.orbit((0, 0)).size < split.size


class _Unscannable(list):
    def index(self, *args):
        raise AssertionError("the order was scanned")


def test_orbit_word_reads_each_state_without_a_scan(w288, level32):
    """word(s) equals words[s] for every state of a W288 orbit, on flat
    indices, on index tuples and on a level, and never scans the order."""
    steps = list(enumerate(map(w288.flat_table, range(len(w288.group.generators())))))
    orbits = [_bfs(steps, 5, w288.size), w288.orbit(w288.state_at(5)), level32.orbit(3)]
    for orb in orbits:
        orb.order = _Unscannable(orb.order)
        assert orb.size == len(orb.words)
        assert all(orb.word(s) == orb.words[s] for s in orb.order)
    tree = orbits[0]
    for orb, outside in [
        (_bfs(steps[:0], 7, w288.size), 0),
        (_bfs(steps[:0], 7, w288.size), w288.size + 5),
        (w288.orbit(w288.state_at(5)), (-1,) * len(w288.state_at(5))),
        (_bfs(steps[:0], 7, w288.size), w288.state_at(7)),
    ]:
        with pytest.raises(ValueError, match="not in the orbit"):
            orb.word(outside)
    assert tree.word(tree.start) == ()


def test_window_orbit_words(w288):
    orb = w288.orbit(w288.identity_thread())
    start = orb.start
    for state in orb.order[::23]:
        x = w288.group.word_element(orb.words[state])
        assert w288.prepare(x).apply(start) == state


def s_fixed_fraction(window):
    """The fraction of window states fixed by every lamp generator, counted,
    after checking that it is the product of the levels' closed forms."""
    counted = Fraction(window.fixed_count(window.group.lamp_generators()), window.size)
    assert counted == prod((dat.fixed_fraction() for dat in window.data), start=Fraction(1))
    return counted


def test_s_fixed_fraction(w32, w9, w288, d25):
    assert s_fixed_fraction(w32) == Fraction(3, 4)
    assert s_fixed_fraction(w9) == Fraction(2, 3)
    assert s_fixed_fraction(w288) == Fraction(1, 2)
    s1 = w288.group.lamp_generators()[0]
    closed_forms = [dat.fixed_fraction() * dat.index() for dat in w288.data]
    assert w288.fixed_count([s1]) == 144 == prod(closed_forms)
    assert Fraction(w288.fixed_count(w288.group.lamp_generators()), 288) == Fraction(1, 2)
    wider = Window(list(w288.data) + [d25])
    assert s_fixed_fraction(wider) == Fraction(2, 5)
    assert s_fixed_fraction(wider) <= s_fixed_fraction(w288) <= s_fixed_fraction(w32)


def test_empty_window():
    empty = Window([])
    assert empty.size == 1
    assert s_fixed_fraction(empty) == 1
    assert empty.orbit(empty.identity_thread()).size == 1
    assert empty.state_at(0) == () and empty.flat_index(()) == 0


def test_fixed_points_factorize(w288, group11):
    s1 = group11.parse_element("{(0):(1)};(0)")
    t = group11.parse_element("{};(1)")
    states = sorted(fixed_states(w288, [s1]))
    assert w288.fixed_count([s1]) == len(states) == 144
    assert w288.fixed_count([s1]) == prod(level.fixed_count([s1]) for level in w288.levels)
    for state in states[::13]:
        assert w288.prepare(s1).apply(state) == state
    assert w288.fixed_count([t]) == 0
    assert w288.fixed_count([s1, t]) == 0
    assert w288.fixed_count([group11.identity()]) == w288.fixed_count([]) == 288


def test_structure_map(w32, w9, w288):
    f = structure_map(w32, w288)
    assert f.positions == (0,)
    assert f.apply((3, 7)) == (3,)
    assert structure_map(w288, w288).positions == (0, 1)
    with pytest.raises(WindowError):
        structure_map(w9, w32)


def test_projection_matches_structure_map(d9, d25, d32):
    big = Window([d32, d9, d25])
    for small in (Window([d9]), Window([d25, d32])):
        f = structure_map(small, big)
        assert _projection(small, big) == [
            small.flat_index(f.apply(big.state_at(x))) for x in range(big.size)
        ]


def test_wrong_level_table_breaks_equivariance(w32, d32, d9, monkeypatch):
    big = Window([d32, d9])
    original = big.levels[0].table
    table = list(original(0))
    table[0], table[1] = table[1], table[0]
    monkeypatch.setattr(big.levels[0], "table", lambda g: table if g == 0 else original(g))
    (pair,) = check_inverse_system([w32, big]).pairs
    assert not pair.equivariant
    assert pair.surjective and pair.fibers_uniform


def test_inverse_system_pair(w32, w288):
    report = check_inverse_system([w32, w288])
    assert report.ok
    assert report.identity_ok
    assert report.composition_ok is None
    (pair,) = report.pairs
    assert pair.equivariant and pair.surjective and pair.fibers_uniform
    assert pair.checked_states == 288
    rec = report.to_dict()
    assert rec["ok"] is True and rec["pairs"][0]["surjective"] is True


def test_inverse_system_chain(w32, w288, d25):
    chain = [w32, w288, Window(list(w288.data) + [d25])]
    report = check_inverse_system(chain)
    assert report.ok
    assert report.composition_ok is True
    assert check_inverse_system([]).ok


def test_stabilizer_witness(w288, w32):
    witness = stabilizer_witness(w288)
    assert witness["ok"]
    assert all(g["moves_identity_thread"] for g in witness["window_gammas"])
    assert witness["fixers"] == ["{};(0)"]
    assert witness["mover_count"] == 4
    wide = stabilizer_witness(w32, ball_radius=2)
    assert wide["ok"]
    assert wide["mover_count"] + len(wide["fixers"]) == 17
    assert set(wide["fixers"]) == {"{};(0)", "{(0):(-2)};(0)", "{(0):(2)};(0)"}
    assert wide["ok"] is True and wide["fixer_count"] == 3


@pytest.mark.parametrize("d, m, radius", [(1, 1, 1), (1, 1, 2), (1, 1, 3), (2, 2, 1)])
def test_stabilizer_witness_matches_flat_indices(d, m, radius):
    """On the ball windows that ``verify`` certifies (schedule epsilon) the
    level-by-level witness equals the one read from flat indices."""
    ball = WreathGroup(d, m).ball(radius)
    gammas = [entry.element for entry in ball if not entry.element.is_identity()]
    window = Window(assign_primes(gammas).forge_all(d, m))
    assert stabilizer_witness(window, radius) == flat_stabilizer_witness(window, radius)


def test_stabilizer_witness_with_fixers_matches_flat_indices(w32, w288):
    for window in (w32, w288):
        for radius in (0, 1, 2, 3):
            witness = stabilizer_witness(window, radius)
            assert witness == flat_stabilizer_witness(window, radius)
    assert stabilizer_witness(w288, 3)["fixer_count"] > 1


def test_state_text(level32, w288):
    idx = index_of(level32, Coset((0,), ((1,), (0,))))
    assert level32.state_text(idx) == "(0)|((1),(0))"
    assert level32.parse_state_index("(0)|((1),(0))") == idx
    assert level32.parse_state_index(" (0)|((1),(0)) ") == idx
    state = (3, 5)
    text = w288.state_text(state)
    assert text == "(0)|((1),(1))*(1)|((2))"
    assert w288.parse_state(text) == state


def test_state_codec_on_every_state(level32, level9, level729, w288):
    """Each state's text reads back as its index and is the reference's own
    spelling of its coset; each window state's text reads back as the state."""
    for level in (level32, level9, level729):
        for i in range(level.size):
            text = level.state_text(i)
            assert level.parse_state_index(text) == i
            assert text == coset_text(coset_at(level, i))
    for flat in range(w288.size):
        state = w288.state_at(flat)
        assert w288.parse_state(w288.state_text(state)) == state


LEVEL_STATE_ERRORS = [
    ("x", "expected a vector like (0) or (1,-2)", 1),
    ("(0)|((1)", "expected ')' closing the sums", 9),
    ("(0)|((1),(0))x", "trailing characters after state", 14),
    ("(0)", "expected '|(' after the base residue", 4),
    ("(0)|(1)", "expected a vector like (0) or (1,-2)", 6),
    ("(0)|((0),)", "expected a vector like (0) or (1,-2)", 10),
    ("(9)|((0),(0))", "base coordinate 9 out of range", None),
    ("(0)|((0),(0),(0))", "state shape does not match the level", None),
    ("(0)|()", "state shape does not match the level", None),
    ("(0)|((2),(0))", "sum entry out of range", None),
    ("(0)|((0,0),(0))", "sum entry out of range", None),
]
WINDOW_STATE_ERRORS = [
    ("(0)|((0),(0))", "window state needs 2 factors, got 1"),
    (5, "state must be text, got 5"),
    ("(0)|((0),(0))*(3)|((0))", "base coordinate 3 out of range"),
]


def test_state_parse_errors(level32, w288):
    """Each bad level state text fails with its message, line and column
    (grammar errors carry a column, shape and range errors do not); each
    bad window state text with its message and line."""
    for text, message, column in LEVEL_STATE_ERRORS:
        with pytest.raises(TextParseError) as info:
            level32.parse_state_index(text, 4)
        assert (info.value.message, info.value.line, info.value.column) == (message, 4, column)
    for text, message in WINDOW_STATE_ERRORS:
        with pytest.raises(TextParseError) as info:
            w288.parse_state(text, 2)
        assert (info.value.message, info.value.line, info.value.column) == (message, 2, None)


@pytest.mark.parametrize(
    "x",
    [
        WreathElement(Lamp(), (1, 0)),
        WreathElement(Lamp.of({(0, 0): (1,)}), (0,)),
        WreathElement(Lamp.of({(0,): (1, 1)}), (0,)),
    ],
    ids=["shift", "position", "value"],
)
def test_rank_mismatch(w288, x):
    with pytest.raises(RankMismatchError):
        w288.prepare(x)
    level = w288.levels[0]
    for read in (level.datum.reduce, level.index_map, lambda x: level.fixed_count([x])):
        with pytest.raises(RankMismatchError):
            read(x)


def test_budgets(level32, w288, w32, group11):
    with pytest.raises(BudgetExceededError):
        level32.orbit(0, budget=10)
    with pytest.raises(BudgetExceededError):
        level32.brute_fixed_indices(group11.identity(), budget=10)
    with pytest.raises(BudgetExceededError):
        w288.orbit(w288.identity_thread(), budget=100)
    # Fixed counts are block arithmetic and enumerate nothing, so no budget applies.
    assert w32.fixed_count([group11.identity()]) == 32
    with pytest.raises(BudgetExceededError):
        check_inverse_system([w32, w288], budget=100)


def test_window_rank_consistency(d32):
    from allostery import forge, WreathGroup

    other = forge(WreathGroup(2, 1).parse_element("{(0):(1,0)};(0)"), 3, Fraction(1, 2), 2, 1)
    with pytest.raises(WindowError):
        Window([d32, other])


@pytest.mark.parametrize("state", [(0,), (0, 0, 0), (32, 0), (0, 9), (0, -1), ()])
def test_prepared_action_rejects_a_state_outside_the_window(w288, group11, state):
    """A prepared action checks its state as ``Window.images`` does."""
    t = group11.generators()[2]
    action = w288.prepare(t)
    with pytest.raises(WindowError):
        action.apply(state)
    with pytest.raises(WindowError):
        w288.images(state, [t])
    assert action.apply((31, 8)) == w288.state_at(w288.images((31, 8), [t])[0])
