"""Reference implementations that the index arithmetic is tested against.

Each one is the earlier, more direct algorithm: the per-state action on
:class:`CosetState` objects, fixed states listed level by level, a
breadth-first search over a set of window tuples, a transporter search
that stops at its target, and a castle tiling over window tuples.
"""

from itertools import product

from allostery import CosetState


def apply_state(prepared, s):
    """A prepared level action applied to one coset state: delta is added to
    the base residue, and the class sum at (base + delta) + E[j] to sum j."""
    level = prepared.level
    modulus, p = level.modulus, level.p
    base = tuple((b + t) % modulus for b, t in zip(s.base, prepared.delta))
    new_sums = []
    for c, old in zip(level.E, s.sums):
        g = prepared.class_sums.get(tuple((b + e) % modulus for b, e in zip(base, c)))
        new_sums.append(old if g is None else tuple((o + gi) % p for o, gi in zip(old, g)))
    return CosetState(base, tuple(new_sums))


def act(level, x, s):
    return apply_state(level.prepare(x), s)


def identity_state(level):
    return CosetState((0,) * level.m, ((0,) * level.d,) * level.l)


def state_of(level, x):
    """The coset of x itself: x acting on the identity coset."""
    return act(level, x, identity_state(level))


def iter_states(level):
    """All states of a level in index order."""
    d = level.d
    for base in product(range(level.modulus), repeat=level.m):
        for flat in product(range(level.p), repeat=level.l * d):
            yield CosetState(base, tuple(flat[j * d : (j + 1) * d] for j in range(level.l)))


def fixed_states(window, xs):
    """The window states fixed by every element of xs, as a set of tuples:
    each level's listing by ``brute_fixed_indices``, intersected over xs, and
    the product of those over the levels.  The oracle for ``fixed_count``."""
    per_level = []
    for level in window.levels:
        common = set(range(level.size))
        for x in xs:
            common &= set(level.brute_fixed_indices(x))
        per_level.append(sorted(common))
    return frozenset(product(*per_level))


def tuple_orbit(window, start):
    """BFS over window states as tuples of level indices, one tuple set."""
    steps = list(enumerate(window.tables(g) for g in range(len(window.group.generators()))))
    seen = {start}
    order = [start]
    words = {start: ()}
    for s in order:
        for g, tables in steps:
            t = tuple(tab[i] for tab, i in zip(tables, s))
            if t not in seen:
                seen.add(t)
                order.append(t)
                words[t] = (g,) + words[s]
    return order, words


def frontier_word(moves, piece, target):
    """Frontier BFS over atom indices that stops once target is found;
    moves[g] is the permutation of atom indices by generator g."""
    found = {piece: ()}
    frontier = [piece]
    while target not in found and frontier:
        nxt = []
        for cur in frontier:
            for g, move in enumerate(moves):
                img = move[cur]
                if img not in found:
                    found[img] = (g,) + found[cur]
                    nxt.append(img)
        frontier = nxt
    return found[target]


def tiling_witness(castle, window):
    """The witness of the first tiling defect of a castle whose towers repeat
    no shape, or None if its translates tile.  Each translate is one window
    tuple from ``prepare(x).apply``, taken shape by shape and then base state
    by base state in sorted order; an uncovered castle names its least
    missed tuple."""
    seen = {}
    for ti, tower in enumerate(castle.towers):
        for x in tower.shapes:
            action = window.prepare(x)
            for v in sorted(tower.base):
                img = action.apply(v)
                mark = {"tower": ti, "shape": x.text()}
                if img in seen:
                    return {"state": window.state_text(img), "first": seen[img], "second": mark}
                seen[img] = mark
    missing = [s for s in window.iter_states() if s not in seen]
    return {"missing_state": window.state_text(missing[0])} if missing else None
