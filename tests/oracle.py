"""Reference implementations that the index arithmetic is tested against.

Each one is the earlier, more direct algorithm: the per-state action on
:class:`CosetState` objects, fixed states listed level by level, a
breadth-first search over a set of window tuples, a transporter search
that stops at its target, a castle tiling over window tuples, and an
element parser that scans its text part by part.
"""

import re
from itertools import product

from allostery import CosetState, Lamp, WreathElement
from allostery.errors import TextParseError


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


_VEC_RE = re.compile(r"\((-?\d+(?:,-?\d+)*)\)")


def _scan_vec(text, pos, line):
    m = _VEC_RE.match(text, pos)
    if not m:
        raise TextParseError("expected a vector like (0) or (1,-2)", line, pos + 1)
    return tuple(int(t) for t in m.group(1).split(",")), m.end()


def scan_element(text, d=None, m=None, line=None):
    """``parse_element`` as a scanner: one regular expression per vector,
    the separators checked character by character."""
    if not isinstance(text, str):
        raise TextParseError(f"element must be text, got {text!r}", line)
    s = text.strip()
    if not s.startswith("{"):
        raise TextParseError("element must start with '{'", line, 1)
    pos = 1
    entries = []
    if s[pos : pos + 1] != "}":
        while True:
            p, pos = _scan_vec(s, pos, line)
            if s[pos : pos + 1] != ":":
                raise TextParseError("expected ':' between position and value", line, pos + 1)
            v, pos = _scan_vec(s, pos + 1, line)
            entries.append((p, v))
            if s[pos : pos + 1] == ",":
                pos += 1
                continue
            break
    if s[pos : pos + 1] != "}":
        raise TextParseError("expected '}' closing the lamp part", line, pos + 1)
    pos += 1
    if s[pos : pos + 1] != ";":
        raise TextParseError("expected ';' before the shift part", line, pos + 1)
    shift, pos = _scan_vec(s, pos + 1, line)
    if pos != len(s):
        raise TextParseError("trailing characters after element", line, pos + 1)
    x = WreathElement(Lamp.of(entries), shift)
    if m is not None and len(shift) != m:
        raise TextParseError(f"shift rank {len(shift)} != m={m}", line, 1)
    if d is not None:
        for p, v in x.lamp.entries:
            if len(v) != d:
                raise TextParseError(f"lamp value rank {len(v)} != d={d}", line, 1)
    if m is not None:
        for p, _ in x.lamp.entries:
            if len(p) != m:
                raise TextParseError(f"lamp position rank {len(p)} != m={m}", line, 1)
    return x
