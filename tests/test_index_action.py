"""The index-arithmetic action of a level against per-state application.

The oracles below act on the reference's :class:`Coset` tuples one state at
a time, with the reference's own index spelling (see ``oracle.py``), and
build orbit words eagerly, as the level did before it worked on indices.  Subsets of the generators are searched by ``_bfs`` over
their tables, as the comparison's transporter search uses it.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from allostery import (
    FiniteLevel,
    Lamp,
    Window,
    WreathElement,
    WreathGroup,
    assign_primes,
    certify_transitive,
    forge,
)
from allostery.dynamics import _bfs
from allostery.errors import ForgeError, RankMismatchError

from conftest import HALF
from oracle import act, apply_state, coset_at, fixed_states, index_of, iter_states, window_act

MAX_ORACLE_STATES = 3200


def small_levels():
    """Levels forged for the radius-1 ball at epsilon 1/2, for each (d, m)
    in {1, 2}^2, up to MAX_ORACLE_STATES states."""
    levels = []
    for d in (1, 2):
        for m in (1, 2):
            group = WreathGroup(d, m)
            gammas = group.ball(1)[1:]
            data = assign_primes(gammas, epsilons=Fraction(1, 2)).forge_all(d, m)
            levels += [FiniteLevel(dat) for dat in data if dat.index() <= MAX_ORACLE_STATES]
    return levels


LEVELS = small_levels()


def oracle_index_map(level, x):
    reduced = level.datum.reduce(x)
    return [index_of(level, apply_state(level, reduced, s)) for s in iter_states(level)]


def oracle_fixed_indices(level, x):
    reduced = level.datum.reduce(x)
    return [i for i, s in enumerate(iter_states(level)) if apply_state(level, reduced, s) == s]


def oracle_orbit(level, start, gen_indices):
    """Frontier BFS that builds every word as it discovers the state."""
    tables = {g: oracle_index_map(level, level.group.generators()[g]) for g in gen_indices}
    words = {start: ()}
    order = [start]
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for g in gen_indices:
                t = tables[g][s]
                if t not in words:
                    words[t] = (g,) + words[s]
                    order.append(t)
                    nxt.append(t)
        frontier = nxt
    return words, order


def vecs(rank):
    return st.tuples(*[st.integers(-9, 9)] * rank)


def spread_elements(d, m):
    """Elements with lamps at two to five positions spread over many
    classes, and any shift."""
    return st.builds(
        lambda items, shift: WreathElement(Lamp.of(items), shift),
        st.dictionaries(vecs(m), vecs(d), min_size=2, max_size=5),
        vecs(m),
    )


def test_levels_cover_every_rank_pair():
    assert {(level.d, level.m) for level in LEVELS} == {(1, 1), (1, 2), (2, 1), (2, 2)}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LEVELS), st.lists(st.integers(0, 7), max_size=8))
def test_index_map_matches_per_state_action(level, letters):
    n_gens = len(level.group.generators())
    x = level.group.word_element([g % n_gens for g in letters])
    assert level.index_map(x) == oracle_index_map(level, x)
    assert level.brute_fixed_indices(x) == oracle_fixed_indices(level, x)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_apply_index_matches_per_state_action(data):
    for level in LEVELS:
        x = data.draw(spread_elements(level.d, level.m))
        reduced = level.datum.reduce(x)
        for i in range(level.size):
            image = apply_state(level, reduced, coset_at(level, i))
            assert level.images(i, [x]) == [index_of(level, image)]


def fixing_elements(d, m):
    """Elements with lamps at zero to three positions and either shift 0 or
    any shift, so that a fixed count is often neither 0 nor the whole level."""
    return st.builds(
        lambda items, shift: WreathElement(Lamp.of(items), shift),
        st.dictionaries(vecs(m), vecs(d), max_size=3),
        st.one_of(st.just((0,) * m), vecs(m)),
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fixed_count_matches_brute_listing(data):
    level = data.draw(st.sampled_from(LEVELS), label="level")
    xs = data.draw(st.lists(fixing_elements(level.d, level.m), max_size=2), label="xs")
    assert level.fixed_count(xs) == len(fixed_states(Window([level.datum]), xs))
    assert level.fixed_count([]) == level.size


def image_elements(d, m):
    """Elements with an empty lamp or up to four entries at small or huge
    positions of either sign, and a zero shift or any, small or huge."""
    coords = st.one_of(st.integers(-9, 9), st.integers(-(10**12), 10**12))
    wide = st.tuples(*[coords] * m)
    return st.builds(
        lambda items, shift: WreathElement(Lamp.of(items), shift),
        st.dictionaries(wide, vecs(d), max_size=4),
        st.one_of(st.just((0,) * m), wide),
    )


def small_windows():
    """The empty window, each oracle level alone, and each pair of
    consecutive oracle levels that share their ranks."""
    windows = [Window([])]
    windows += [Window([level.datum]) for level in LEVELS]
    windows += [
        Window([a.datum, b.datum])
        for a, b in zip(LEVELS, LEVELS[1:])
        if (a.d, a.m) == (b.d, b.m)
    ]
    return windows


WINDOWS = small_windows()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_level_images_match_prepared_action(data):
    level = data.draw(st.sampled_from(LEVELS), label="level")
    i = data.draw(st.integers(0, level.size - 1), label="i")
    xs = data.draw(st.lists(image_elements(level.d, level.m), max_size=6), label="xs")
    expected = [index_of(level, act(level, x, coset_at(level, i))) for x in xs]
    assert level.images(i, xs) == expected


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_window_images_match_prepared_action(data):
    window = data.draw(st.sampled_from(WINDOWS), label="window")
    state = window.state_at(data.draw(st.integers(0, window.size - 1), label="flat"))
    xs = data.draw(st.lists(image_elements(window.d, window.m), max_size=6), label="xs")
    expected = [window.flat_index(window_act(window, x, state)) for x in xs]
    assert window.images(state, xs) == expected
    assert [window.prepare(x).apply(state) for x in xs] == [window.state_at(f) for f in expected]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_window_index_map_matches_prepared_action(data):
    window = data.draw(st.sampled_from([w for w in WINDOWS if w.size <= 3200]), label="window")
    x = data.draw(image_elements(window.d, window.m), label="x")
    states = map(window.state_at, range(window.size))
    expected = [window.flat_index(window_act(window, x, s)) for s in states]
    assert list(window.index_map(x)) == expected


def test_windows_include_products():
    assert any(len(w) == 2 for w in WINDOWS) and any(len(w) == 0 for w in WINDOWS)


def test_tables_and_lamp_fixed_points_match_oracle():
    for level in LEVELS:
        for g, x in enumerate(level.group.generators()):
            assert level.table(g) == oracle_index_map(level, x)
        for s in level.group.lamp_generators():
            assert level.brute_fixed_indices(s) == oracle_fixed_indices(level, s)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(LEVELS), st.integers(0, MAX_ORACLE_STATES), st.data())
def test_orbit_matches_word_building_bfs(level, start, data):
    start %= level.size
    n_gens = len(level.group.generators())
    gens = data.draw(
        st.one_of(st.just(list(range(n_gens))), st.lists(st.integers(0, n_gens - 1), unique=True))
    )
    words, order = oracle_orbit(level, start, gens)
    if gens == list(range(n_gens)):
        orb = level.orbit(start)
    else:
        orb = _bfs([(g, level.table(g)) for g in gens], start, level.size)
    assert orb.start == start
    assert orb.size == len(order)
    assert list(orb.order) == order
    assert orb.words == words


def test_orbit_without_generators_matches_oracle():
    level = LEVELS[0]
    words, order = oracle_orbit(level, 5, [])
    orb = _bfs([], 5, level.size)
    assert (orb.words, list(orb.order)) == (words, order) == ({5: ()}, [5])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_level_structure_agrees_with_level_bfs(data):
    d, m = data.draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]), label="d, m")
    gamma = data.draw(
        st.builds(
            lambda items, shift: WreathElement(Lamp.of(items), shift),
            st.dictionaries(vecs(m), vecs(d), max_size=2),
            vecs(m),
        ).filter(lambda x: not x.is_identity()),
        label="gamma",
    )
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    try:
        datum = forge(gamma, p, Fraction(1, 2), d, m)
    except ForgeError:
        assume(False)
    assume(datum.index() <= MAX_ORACLE_STATES)
    level = FiniteLevel(datum)
    result = certify_transitive(Window([datum]))
    assert result["method"] == "level-structure"
    assert (result["status"] == "pass") == (level.orbit(0).size == level.size)


def bench_levels():
    """The levels of W288 and of W7200 (d32, d9 and d25), one object each,
    kept across examples, so that each test meets the tables its level kept
    from an earlier call."""
    group = WreathGroup(1, 1)
    d32, d9, d25 = (
        forge(group.parse_element(gamma), p, HALF, 1, 1)
        for gamma, p in (("{(0):(1)};(0)", 2), ("{};(1)", 3), ("{};(-1)", 5))
    )
    return Window([d32, d9]).levels + Window([d32, d9, d25]).levels


KEEPING = bench_levels()
BALL = WreathGroup(1, 1).ball(3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kept_tables_answer_as_a_fresh_level(data):
    """Images asked of interleaved states, i then j then i again, equal a
    fresh level's and the per-state action's: a level's kept tables are
    those of the state it is asked about."""
    level = data.draw(st.sampled_from(KEEPING), label="level")
    states = st.integers(0, level.size - 1)
    i, j = data.draw(st.tuples(states, states), label="i, j")
    for state in (i, j, i, i, j, data.draw(states, label="k"), i):
        xs = data.draw(st.lists(st.sampled_from(BALL), max_size=12), label="xs")
        expected = [index_of(level, act(level, x, coset_at(level, state))) for x in xs]
        assert level.images(state, xs) == FiniteLevel(level.datum).images(state, xs) == expected


def test_a_shift_of_other_rank_raises_on_a_state_with_kept_tables():
    """A level keeping the tables of state 5 still rejects an element whose
    shift has another rank, before or after the shifts it has seen, and keeps
    answering for that state."""
    level = KEEPING[-1]
    xs = BALL[:6]
    expected = level.images(5, xs)
    bad = WreathElement(Lamp.of({}), (1, 0))
    for batch in ([bad], xs + [bad], [bad] + xs):
        with pytest.raises(RankMismatchError):
            level.images(5, batch)
        assert level.images(5, xs) == expected == FiniteLevel(level.datum).images(5, xs)
