"""Comparison atoms by partition refinement against the translate closure,
and transporter words against a tree built without flat indices.

The atoms' oracle is the earlier algorithm: the classes of states with
equal membership in every translate that ``translate_closure`` lists.  The
words' oracle is ``oracle.tree_words``: the comparison reads every word off
one breadth-first search tree from the identity thread, so its words are
not shortest, and the oracle builds that tree over window tuples.  Set
sizes are kept small per window so that the closure stays cheap.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from allostery import (
    Window,
    WreathGroup,
    boolean_atoms,
    comparison_certificate,
    forge,
    translate_closure,
)

from oracle import fixed_states, tree_words, window_states

GAMMA = "{(0):(1)};(0)"


def small_windows():
    """W9, W32, W81 and W288."""
    group = WreathGroup(1, 1)
    half = Fraction(1, 2)
    d32 = forge(group.parse_element(GAMMA), 2, half, 1, 1)
    d9 = forge(group.parse_element("{};(1)"), 3, half, 1, 1)
    d81 = forge(group.parse_element(GAMMA), 3, half, 1, 1)
    return Window([d9]), Window([d32]), Window([d81]), Window([d32, d9])


def tuple_atoms(window, sets):
    """boolean_atoms on the flat indices of tuple state sets, with its atoms
    turned back into tuple sets."""
    members = [{window.flat_index(s) for s in st} for st in sets]
    perms = [window.flat_table(g) for g in range(len(window.group.generators()))]
    return [frozenset(map(window.state_at, atom)) for atom in boolean_atoms(members, perms)]


def oracle_atoms(window, sets):
    closure = translate_closure(window, sets)
    blocks = {}
    for s in window_states(window):
        blocks.setdefault(tuple(s in t for t in closure), []).append(s)
    return [frozenset(b) for b in blocks.values()]


def fixed_set_atoms(window):
    """Atoms of the fixed set of the first lamp generator: 3, 8, 9 and 24
    atoms of 3, 4, 9 and 12 states on W9, W32, W81 and W288."""
    return oracle_atoms(window, [fixed_states(window, window.group.lamp_generators()[:1])])


def input_cases():
    """(window, parts, largest A, largest B): A and B are unions of parts,
    counted in parts.  Single states are drawn only where the closure of
    every such {A, B} stays cheap."""
    w9, w32, w81, w288 = small_windows()
    cases = [
        (window, [frozenset({s}) for s in window_states(window)], max_a, max_b)
        for window, max_a, max_b in ((w9, 3, 5), (w32, 2, 3), (w81, 1, 2))
    ]
    cases += [(window, fixed_set_atoms(window), 2, 3) for window in (w9, w32, w81, w288)]
    return cases


CASES = input_cases()


@st.composite
def comparison_inputs(draw):
    """A window and sets A, B of its states with 1 <= |A| < |B|."""
    window, parts, max_a, max_b = draw(st.sampled_from(CASES))
    pick = st.integers(0, len(parts) - 1)
    a = draw(st.sets(pick, min_size=1, max_size=max_a))
    b = draw(st.sets(pick, min_size=len(a) + 1, max_size=max_b))
    return (
        window,
        frozenset().union(*(parts[i] for i in a)),
        frozenset().union(*(parts[i] for i in b)),
    )


@settings(max_examples=80, deadline=None)
@given(comparison_inputs())
def test_refined_atoms_match_closure_atoms(inputs):
    window, a, b = inputs
    assert tuple_atoms(window, [a, b]) == oracle_atoms(window, [a, b])
    assert tuple_atoms(window, [a]) == oracle_atoms(window, [a])


@settings(max_examples=80, deadline=None)
@given(comparison_inputs())
def test_pieces_and_words_match_tree_words(inputs):
    window, a, b = inputs
    cert = comparison_certificate(a, b, window)
    atoms = oracle_atoms(window, [a, b])
    pieces = [p for p in atoms if p <= a]
    targets = [p for p in atoms if p <= b][: len(pieces)]
    assert [frozenset(map(window.parse_state, p)) for p in cert["pieces"]] == pieces
    assert cert["words"] == [list(w) for w in tree_words(window, pieces, targets)]


def test_flat_table_matches_tuple_tables():
    window = small_windows()[3]
    for g in range(len(window.group.generators())):
        tables = window.tables(g)
        assert list(window.flat_table(g)) == [
            window.flat_index(tuple(tab[i] for tab, i in zip(tables, s)))
            for s in window_states(window)
        ]


def test_transporter_words_on_random_states_match_tree_words():
    w9, w32, _, w288 = small_windows()
    for window in (w9, w32, w288):
        rng = random.Random(window.size)
        for _ in range(6):
            k = rng.randint(1, 4)
            states = rng.sample(window_states(window), 2 * k + 1)
            a, b = frozenset(states[:k]), frozenset(states[k:])
            cert = comparison_certificate(a, b, window)
            atoms = tuple_atoms(window, [a, b])
            pieces = [p for p in atoms if p <= a]
            targets = [p for p in atoms if p <= b][: len(pieces)]
            assert cert["words"] == [list(w) for w in tree_words(window, pieces, targets)]
