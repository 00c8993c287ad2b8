"""Reference implementations that the index arithmetic is tested against,
and the inverse-system checks of the acceptance gate.

Each reference is the earlier, more direct algorithm: the per-state action
on :class:`Coset` tuples, fixed states listed level by level, a
breadth-first search over a set of window tuples, transporter words read
off that search's tree, a castle tiling over window tuples, castle
defects from the products of gamma^-1 with every shape, an element parser
that scans its text part by part, the element and castle-word grammars
each as one regular expression, and a stabilizer witness that reads each
element's image of the identity thread as one flat index.  The per-state
action reads only an element's reduced shift and class sums, so it is
independent of the digit arithmetic of ``images`` and ``index_map``.  The
reference spells its own state indices and state text, from the formula in
the ``dynamics`` docstring, so it never runs through the level's digit code
(``tests/test_layout.py`` checks this).

The inverse-system checks verify that projections between nested windows
commute with the generators, are onto, push the uniform measure forward,
and compose.  A window is a product of levels and the projection drops
coordinates, so the laws hold by construction; no certificate records them.
"""

import re
from dataclasses import dataclass
from itertools import product
from typing import List, NamedTuple, Optional, Sequence, Tuple

from allostery import Lamp, Window, WreathElement
from allostery.dynamics import DEFAULT_STATE_BUDGET
from allostery.errors import BudgetExceededError, TextParseError, WindowError


class Coset(NamedTuple):
    """One coset of a level: the base residue and the E-indexed lamp sums mod p."""

    base: Tuple[int, ...]
    sums: Tuple[Tuple[int, ...], ...]


def index_of(level, s):
    """The state index of a coset, by the formula of the ``dynamics``
    docstring: base_block * p^(ld) + lamp_offset, where the base block reads
    the residue in radix M = p^k and the lamp offset reads the sums in radix
    p, each most significant first."""
    block = sum(b * level.modulus ** (level.m - 1 - j) for j, b in enumerate(s.base))
    lamp = [c for v in s.sums for c in v]
    offset = sum(c * level.p ** (len(lamp) - 1 - k) for k, c in enumerate(lamp))
    return block * level.p ** len(lamp) + offset


def coset_at(level, idx):
    """The coset whose state index is idx: the inverse of :func:`index_of`."""
    M, p, m, d = level.modulus, level.p, level.m, level.d
    ld = level.l * d
    block, offset = divmod(idx, p**ld)
    base = tuple(block // M ** (m - 1 - j) % M for j in range(m))
    lamp = [offset // p ** (ld - 1 - k) % p for k in range(ld)]
    return Coset(base, tuple(tuple(lamp[j * d : (j + 1) * d]) for j in range(level.l)))


def coset_text(s):
    """A coset written as ``(base)|((sum),...)``."""

    def vec(v):
        return "(" + ",".join(map(str, v)) + ")"

    return vec(s.base) + "|(" + ",".join(map(vec, s.sums)) + ")"


def window_text(window, state):
    """A window state written as its level cosets joined by ``*``."""
    return "*".join(coset_text(coset_at(level, i)) for level, i in zip(window.levels, state))


def apply_state(level, reduced, s):
    """An element, read by ``SubgroupDatum.reduce`` as (delta, class sums),
    applied to one coset state: delta is added to the base residue, and the
    class sum at (base + delta) + E[j] to sum j."""
    modulus, p = level.modulus, level.p
    delta, class_sums = reduced
    base = tuple((b + t) % modulus for b, t in zip(s.base, delta))
    new_sums = []
    for c, old in zip(level.E, s.sums):
        g = class_sums.get(tuple((b + e) % modulus for b, e in zip(base, c)))
        new_sums.append(old if g is None else tuple((o + gi) % p for o, gi in zip(old, g)))
    return Coset(base, tuple(new_sums))


def act(level, x, s):
    return apply_state(level, level.datum.reduce(x), s)


def identity_state(level):
    return Coset((0,) * level.m, ((0,) * level.d,) * level.l)


def state_of(level, x):
    """The coset of x itself: x acting on the identity coset."""
    return act(level, x, identity_state(level))


def iter_states(level):
    """All states of a level in index order."""
    d = level.d
    for base in product(range(level.modulus), repeat=level.m):
        for flat in product(range(level.p), repeat=level.l * d):
            yield Coset(base, tuple(flat[j * d : (j + 1) * d] for j in range(level.l)))


def window_states(window):
    """All states of a window as index tuples, in flat index order."""
    return [window.state_at(i) for i in range(window.size)]


def is_transitive(window):
    """True iff a BFS from the identity thread reaches every window state."""
    return window.orbit(window.identity_thread()).size == window.size


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


def tree_words(window, pieces, targets):
    """The transporter word of each piece to its target, read off the tree
    of :func:`tuple_orbit` from the identity thread: the word of the
    target's least state, then the inverse of the word of the piece's least
    state, each letter replaced by the generator whose element is its
    inverse."""
    gens = window.group.generators()
    inverse = [gens.index(x.inverse()) for x in gens]
    _, words = tuple_orbit(window, window.identity_thread())
    return [
        words[min(target)] + tuple(inverse[g] for g in reversed(words[min(piece)]))
        for piece, target in zip(pieces, targets)
    ]


def window_act(window, x, state):
    """x applied to one window state, level by level through :func:`act`."""
    return tuple(
        index_of(level, act(level, x, coset_at(level, i)))
        for level, i in zip(window.levels, state)
    )


def flat_stabilizer_witness(window, ball_radius=1):
    """The stabilizer witness from flat indices: an element moves the
    identity thread, flat index 0, exactly when its window image is not 0."""
    gammas = [dat.gamma for dat in window.data]
    ball = [entry.element for entry in window.group.ball(ball_radius)]
    images = window.images(window.identity_thread(), gammas + ball)
    fixers = [x.text() for x, image in zip(ball, images[len(gammas) :]) if not image]
    return {
        "window_gammas": [
            {"gamma": x.text(), "moves_identity_thread": image != 0}
            for x, image in zip(gammas, images)
        ],
        "ball_radius": ball_radius,
        "mover_count": len(ball) - len(fixers),
        "fixer_count": len(fixers),
        "fixers": fixers,
        "ok": all(images[: len(gammas)]),
    }


def tiling_witness(castle, window):
    """The witness of the first tiling defect of a castle, or None if its
    translates tile; a shape repeated in a tower covers its translates
    twice.  Each translate is one window
    tuple from :func:`window_act`, taken shape by shape and then base state
    by base state in sorted order; an uncovered castle names its least
    missed tuple."""
    seen = {}
    for ti, tower in enumerate(castle.towers):
        for x in tower.shapes:
            for v in sorted(tower.base):
                img = window_act(window, x, v)
                mark = {"tower": ti, "shape": x.text()}
                if img in seen:
                    return {"state": window_text(window, img), "first": seen[img], "second": mark}
                seen[img] = mark
    missing = [s for s in window_states(window) if s not in seen]
    return {"missing_state": window_text(window, missing[0])} if missing else None


def defect_counts(castle, gamma):
    """|KS △ S| for K = {gamma^-1} and each tower's shape set S, from the
    products gamma^-1 s themselves: the audit's count before it was read off
    the tiling."""
    inv = gamma.inverse()
    return [len({inv * s for s in t.shapes} ^ set(t.shapes)) for t in castle.towers]


_NUMS = r"-?\d+(?:,-?\d+)*"
_VEC_RE = re.compile(rf"\(({_NUMS})\)")
_V = rf"\({_NUMS}\)"
ELEMENT_RE = re.compile(rf"\{{(?:{_V}:{_V}(?:,{_V}:{_V})*)?\}};{_V}")


def grammar_element(text):
    """The element that the one-pattern element grammar reads from the
    stripped text, or None where the pattern does not match: the vectors in
    order, the last the shift and the others (position, value) pairs summed
    by ``Lamp.of``.  Ranks are not checked."""
    if not isinstance(text, str) or not ELEMENT_RE.fullmatch(text.strip()):
        return None
    vecs = [tuple(map(int, body.split(","))) for body in _VEC_RE.findall(text)]
    shift = vecs.pop()
    return WreathElement(Lamp.of(zip(vecs[0::2], vecs[1::2])), shift)


def word_pattern(group):
    """The words ``parse_word`` accepts as one pattern: ``e``, or generator
    names joined by dots, longest names first."""
    names = sorted(group.generator_names(), key=len, reverse=True)
    name = "(?:" + "|".join(map(re.escape, names)) + ")"
    return re.compile(rf"e|{name}(?:\.{name})*")


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


@dataclass(frozen=True)
class StructureMap:
    """Coordinate projection from a finer window onto a coarser one."""

    positions: Tuple[int, ...]

    def apply(self, state: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(state[p] for p in self.positions)


def structure_map(target: Window, source: Window) -> StructureMap:
    """Projection source -> target; requires target's data to sit inside source's."""
    used: set[int] = set()
    positions: list[int] = []
    for dat in target.data:
        pos = next(
            (i for i, other in enumerate(source.data) if i not in used and other == dat),
            None,
        )
        if pos is None:
            raise WindowError("windows are not nested: missing factor in the finer window")
        used.add(pos)
        positions.append(pos)
    return StructureMap(tuple(positions))


def _projection(target: Window, source: Window) -> List[int]:
    """The structure map source -> target on flat indices: each source digit
    at a position the map keeps is weighted by its place value in target."""
    positions = structure_map(target, source).positions
    weight = [0] * len(source)
    place = 1
    for pos, level in zip(reversed(positions), reversed(target.levels)):
        weight[pos] = place
        place *= level.size
    proj = [0]
    for pos, level in enumerate(source.levels):
        w = weight[pos]
        proj = [hi + w * t for hi in proj for t in range(level.size)]
    return proj


@dataclass
class PairCheck:
    target_index: int
    source_index: int
    equivariant: bool
    surjective: bool
    fibers_uniform: bool
    checked_states: int

    @property
    def ok(self) -> bool:
        return self.equivariant and self.surjective and self.fibers_uniform


@dataclass
class InverseSystemReport:
    pairs: List[PairCheck]
    identity_ok: bool
    composition_ok: Optional[bool]

    @property
    def ok(self) -> bool:
        return (
            self.identity_ok
            and all(p.ok for p in self.pairs)
            and self.composition_ok is not False
        )

    def to_dict(self) -> dict:
        return {
            "pairs": [
                {
                    "target": p.target_index,
                    "source": p.source_index,
                    "equivariant": p.equivariant,
                    "surjective": p.surjective,
                    "fibers_uniform": p.fibers_uniform,
                    "checked_states": p.checked_states,
                }
                for p in self.pairs
            ],
            "identity_ok": self.identity_ok,
            "composition_ok": self.composition_ok,
            "ok": self.ok,
        }


def check_inverse_system(
    chain: Sequence[Window], budget: int = DEFAULT_STATE_BUDGET
) -> InverseSystemReport:
    """Verify the inverse-system laws on a nested chain of windows.

    For every adjacent pair: the projection commutes with every generator on
    every state, is onto, and has fibers of one common size (so it pushes the
    uniform measure to the uniform measure).  For every triple i < j < k the
    two-step composition equals the direct projection, and the self-map of
    each window is the identity.
    """
    if not chain:
        return InverseSystemReport(pairs=[], identity_ok=True, composition_ok=None)
    pairs: List[PairCheck] = []
    gens = range(len(chain[0].group.generators()))
    for idx in range(len(chain) - 1):
        small, big = chain[idx], chain[idx + 1]
        if big.size > budget:
            raise BudgetExceededError(big.size, budget)
        proj = _projection(small, big)
        equivariant = True
        for g in gens:
            small_table = small.flat_table(g)
            equivariant &= all(proj[t] == small_table[y] for t, y in zip(big.flat_table(g), proj))
        fibers = [0] * small.size
        for y in proj:
            fibers[y] += 1
        surjective = 0 not in fibers
        pairs.append(
            PairCheck(
                target_index=idx,
                source_index=idx + 1,
                equivariant=equivariant,
                surjective=surjective,
                fibers_uniform=surjective and len(set(fibers)) == 1,
                checked_states=big.size,
            )
        )
    identity_ok = all(structure_map(w, w).positions == tuple(range(len(w))) for w in chain)
    composition_ok: Optional[bool] = None
    if len(chain) >= 3:
        composition_ok = True
        for small, mid, big in zip(chain, chain[1:], chain[2:]):
            outer = _projection(small, mid)
            composition_ok &= _projection(small, big) == [outer[y] for y in _projection(mid, big)]
    return InverseSystemReport(pairs=pairs, identity_ok=identity_ok, composition_ok=composition_ok)
