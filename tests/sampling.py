"""Seeded random generators for property suites.

Everything takes an explicit ``random.Random`` so suites are reproducible;
nothing here touches the global generator.  The castle generators produce
well-formed castles by construction (transversal points of one orbit, a
base-residue fiber moved around by a change of basepoint, or a last-level
fiber cut into small bases), so audits of their output exercise the
inequality rather than the malformedness path.
"""

from __future__ import annotations

import random
from itertools import product
from math import lcm
from typing import Dict, List, Tuple

from allostery.base import Vec, zero
from allostery.certificates import Castle, Tower
from allostery.dynamics import DEFAULT_STATE_BUDGET, Window
from allostery.errors import WindowError
from allostery.forge import SubgroupDatum
from allostery.wreath import Lamp, Word, WreathElement, WreathGroup


def random_vec(rng: random.Random, rank: int, span: int = 4) -> Vec:
    return tuple(rng.randint(-span, span) for _ in range(rank))


def random_element(
    rng: random.Random,
    group: WreathGroup,
    max_support: int = 3,
    pos_span: int = 4,
    val_span: int = 3,
) -> WreathElement:
    entries: Dict[Vec, List[int]] = {}
    for _ in range(rng.randint(0, max_support)):
        pos = random_vec(rng, group.m, pos_span)
        acc = entries.setdefault(pos, [0] * group.d)
        for i in range(group.d):
            acc[i] += rng.randint(-val_span, val_span)
    lamp = Lamp.of({pos: tuple(v) for pos, v in entries.items()})
    return WreathElement(lamp, random_vec(rng, group.m, pos_span))


def random_nontrivial(rng: random.Random, group: WreathGroup, **kwargs) -> WreathElement:
    while True:
        x = random_element(rng, group, **kwargs)
        if not x.is_identity():
            return x


def random_member(
    rng: random.Random,
    datum: SubgroupDatum,
    max_entries: int = 3,
    pos_span: int = 6,
    val_span: int = 4,
) -> WreathElement:
    """A random element of the forged subgroup: kernel shift plus a lamp
    whose tracked class sums are corrected to vanish mod p."""
    M, p = datum.modulus, datum.p
    shift = tuple(M * rng.randint(-2, 2) for _ in range(datum.m))
    entries: Dict[Vec, List[int]] = {}
    for _ in range(rng.randint(0, max_entries)):
        pos = random_vec(rng, datum.m, pos_span)
        acc = entries.setdefault(pos, [0] * datum.d)
        for i in range(datum.d):
            acc[i] += rng.randint(-val_span, val_span)
    for q in datum.E:
        total = [0] * datum.d
        for pos, val in entries.items():
            if tuple(c % M for c in pos) == q:
                for i, c in enumerate(val):
                    total[i] += c
        residual = [c % p for c in total]
        if any(residual):
            acc = entries.setdefault(q, [0] * datum.d)
            for i, c in enumerate(residual):
                acc[i] -= c
    lamp = Lamp.of({pos: tuple(v) for pos, v in entries.items()})
    return WreathElement(lamp, shift)


def check_member_closure(rng: random.Random, datum: SubgroupDatum) -> bool:
    """One randomized membership-preservation check: two random members, their
    product and inverses, and a kernel-shift translate of a lamp-only member
    must all stay inside the subgroup."""
    a = random_member(rng, datum)
    b = random_member(rng, datum)
    checks = [
        datum.contains(a),
        datum.contains(b),
        datum.contains(a * b),
        datum.contains(a.inverse()),
        datum.contains(b.inverse()),
    ]
    lamp_only = WreathElement(a.lamp, zero(datum.m))
    delta = tuple(datum.modulus * rng.randint(-2, 2) for _ in range(datum.m))
    translated = WreathElement(lamp_only.lamp.shifted(delta), zero(datum.m))
    checks.append(datum.contains(lamp_only))
    checks.append(datum.contains(translated))
    return all(checks)


def random_subset(rng: random.Random, window: Window, size: int) -> frozenset:
    flats = rng.sample(range(window.size), size)
    return frozenset(window.state_at(i) for i in flats)


def random_comparison_pair(
    rng: random.Random, window: Window, max_size: int = 16
) -> Tuple[frozenset, frozenset]:
    """A seeded (A, B) with |A| < |B|, both within max_size."""
    b_size = rng.randint(2, min(window.size, max_size))
    a_size = rng.randint(1, b_size - 1)
    return random_subset(rng, window, a_size), random_subset(rng, window, b_size)


def _split_chunks(rng: random.Random, items: list, max_chunks: int) -> List[list]:
    count = rng.randint(1, min(max_chunks, len(items)))
    if count == 1:
        return [items]
    cuts = sorted(rng.sample(range(1, len(items)), count - 1))
    edges = [0] + cuts + [len(items)]
    return [items[a:b] for a, b in zip(edges, edges[1:])]


def _points_castle(rng: random.Random, window: Window, budget: int) -> Castle:
    start = window.state_at(rng.randrange(window.size))
    orb = window.orbit(start, budget)
    if orb.size != window.size:
        raise WindowError("castle sampling needs a transitive window")
    states = list(orb.order)
    rng.shuffle(states)
    towers = tuple(
        Tower(
            base=frozenset({start}),
            shapes=tuple(window.group.word_element(orb.words[s]) for s in chunk),
        )
        for chunk in _split_chunks(rng, states, 4)
    )
    return Castle(towers=towers)


def _fiber_castle(rng: random.Random, window: Window, budget: int) -> Castle:
    fiber_sizes = [
        level.size // dat.shift_index for level, dat in zip(window.levels, window.data)
    ]
    base0 = list(product(*(range(fs) for fs in fiber_sizes)))
    modulus = lcm(*(dat.modulus for dat in window.data))
    empty = Lamp.of({})
    shifts = [
        WreathElement(empty, vec) for vec in product(range(modulus), repeat=window.m)
    ]
    mover = random_element(rng, window.group)
    prepared = window.prepare(mover)
    base = frozenset(prepared.apply(v) for v in base0)
    inv = mover.inverse()
    shapes = [s * inv for s in shifts]
    rng.shuffle(shapes)
    towers = tuple(
        Tower(base=base, shapes=tuple(chunk))
        for chunk in _split_chunks(rng, shapes, 3)
    )
    return Castle(towers=towers)


def _chunked_towers(rng: random.Random, window: Window) -> List[Tuple[frozenset, List[Word]]]:
    last = Window(window.data[-1:])
    r = rng.randrange(last.size)
    orb = last.orbit((r,))
    fiber = [s for s in map(window.state_at, range(window.size)) if s[-1] == r]
    cuts = []
    for _ in range(rng.randint(1, 3)):
        states = rng.sample(fiber, len(fiber))
        chunks = []
        while states:
            k = rng.randint(1, 3)
            chunks.append(frozenset(states[:k]))
            del states[:k]
        cuts.append(chunks)
    words = [[] for _ in cuts]
    for q in orb.order:
        words[rng.randrange(len(cuts))].append(orb.words[q])
    return [(chunk, ws) for chunks, ws in zip(cuts, words) if ws for chunk in chunks]


def random_chunked_castle(rng: random.Random, window: Window) -> Castle:
    """A random castle that tiles: the fiber F over a random state r of the
    last level is cut into chunks of one to three states, in one to three
    random ways, and each word of the last level's Schreier transversal from
    r is given one of those cuts.  A word w carries F onto the fiber over
    w r, so each chunk with the words given its cut is a tower."""
    return Castle(
        towers=tuple(
            Tower(base=chunk, shapes=tuple(map(window.group.word_element, words)))
            for chunk, words in _chunked_towers(rng, window)
        )
    )


def random_chunked_castle_file(rng: random.Random, window: Window) -> str:
    """The castle of :func:`random_chunked_castle` for the same rng state,
    as castle file text: one line per tower, its words as generator names."""
    return "".join(
        f"V= {' '.join(map(window.state_text, sorted(chunk)))} ; "
        f"S= {' '.join(map(window.group.word_name, words))}\n"
        for chunk, words in _chunked_towers(rng, window)
    )


def random_castle(
    rng: random.Random, window: Window, budget: int = DEFAULT_STATE_BUDGET
) -> Castle:
    """A well-formed random castle on a transitive window."""
    if not window.data:
        raise WindowError("cannot build castles on the empty window")
    if window.primes_distinct() and rng.random() < 0.5:
        return _fiber_castle(rng, window, budget)
    return _points_castle(rng, window, budget)
