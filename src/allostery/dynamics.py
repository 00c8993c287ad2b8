"""Finite coset actions, products over windows, orbits and exact measures.

A level realizes the left action of the wreath product on the cosets of one
forged subgroup without ever materializing lamp configurations.  A coset is
encoded by the residue of its shift part plus, for each class in E, the lamp
sum over that class translated by the shift:

    state(f, lam) = (lam mod p^k,  (sum of f over lam+q, mod p) for q in E)

Two elements lie in the same coset exactly when these data agree, and every
combination occurs, so the state count equals the subgroup index.

States are numbered in mixed radix.  The index of a state is

    base_block * p^{ld} + lamp_offset

where the base block spells the residue as m digits in radix M = p^k (first
coordinate most significant) and the lamp offset spells the l sums as l*d
digits in radix p (class E[0] most significant).

Acting by x = (g, delta) is arithmetic on these digits.  Base block b goes to
block b + delta.  If no class (b + delta) + c with c in E lies in the class
support of g, the lamp offset is unchanged; otherwise g's class sum at
(b + delta) + E[j] is added digit-wise to lamp digit group j.  A level
reads x once through :meth:`SubgroupDatum.reduce` (its shift residue and its
nonzero class sums), turns that into an index map block by block, with one
lamp-offset permutation per distinct pattern of added sums, and counts fixed
states off the same blocks.  The images of one state under many elements
come from the same arithmetic on that state's own digits, and a state's
text spells the same digits.

A window is a finite list of levels acted on diagonally; its states are
tuples of per-level state indices, and its flat index spells such a tuple in
mixed radix (first level most significant).  Orbits and images run on flat
indices.  With pairwise distinct primes a window is the finite stage of the
inverse system whose limit the certificates speak about.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from math import prod
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .base import Vec
from .errors import (
    BudgetExceededError,
    RankMismatchError,
    TextParseError,
    WindowError,
)
from .forge import SubgroupDatum
from .wreath import Word, WreathElement, WreathGroup, format_vec, _parse_vec

DEFAULT_STATE_BUDGET = 10**6

State = Tuple[int, ...]  # a window state: one state index per level
StateSet = FrozenSet[State]


class FiniteLevel:
    """The action of the wreath product on the cosets of one forged subgroup."""

    def __init__(self, datum: SubgroupDatum):
        self.datum = datum
        self.p = datum.p
        self.d = datum.d
        self.m = datum.m
        self.E = datum.E
        self.l = datum.l
        self.modulus = datum.modulus
        self.size = datum.index()
        self.group = WreathGroup(datum.d, datum.m)
        self._lamp_size = self.p ** (self.l * self.d)
        self._radices = (self.p,) * (self.l * self.d) + (self.modulus,) * self.m  # least first
        self._tables: Dict[int, List[int]] = {}
        self._kept: tuple = (None,)  # the last state's tables, see images

    def digits(self, idx: int) -> Tuple[List[int], List[int]]:
        """The m base digits and the l*d lamp digits of a state index, each
        most significant first."""
        out = []
        for radix in self._radices:
            idx, r = divmod(idx, radix)
            out.append(r)
        out.reverse()
        return out[: self.m], out[self.m :]

    def _index_of(self, base: Iterable[int], lamp: Iterable[int]) -> int:
        """The state index spelled by base and lamp digits (see :meth:`digits`)."""
        idx = 0
        for b in base:
            idx = idx * self.modulus + b
        for c in lamp:
            idx = idx * self.p + c
        return idx

    def images(self, i: int, xs: Iterable[WreathElement]) -> List[int]:
        """The image of state index i under each element of xs, in order.

        Acting by x = (g, delta) adds delta to the base digits mod M, and
        g's class sum at (base + delta) + E[j] to lamp digit group j mod p.
        Here i is split into digits once, and for each shift seen the image
        block and a map from the classes (b + delta) + E[j] to their lamp
        digit group j are kept.  An element then adds only its lamp entries
        that land in one of those l classes.  The elements must have the
        level's ranks (see :meth:`WreathGroup.validate_element`).

        The level keeps these tables for the last state it was asked about,
        with each lamp position's residue mod M: the next call on that state
        builds only the blocks of shifts it has not met, and a call on
        another state replaces them, so a level holds one state's tables at
        most.  An audit acts by each tower's shapes on its base states, and
        towers may share them: on the seeded castle of four towers over one
        state that tiles W7200, this builds 363 blocks (121 shifts on each
        of 3 levels), where tables built afresh on each call made 1,452."""
        M, p, d, L = self.modulus, self.p, self.d, self._lamp_size
        if self._kept[0] != i:
            base, lamp = self.digits(i)
            # Then each shift's image block and class map, and each lamp
            # position's residue mod M, as they are first met.
            self._kept = (i, base, lamp, i % L, {}, {})
        _, base, lamp, offset, by_shift, residue = self._kept
        out: List[int] = []
        for entries, shift in xs:
            seen = by_shift.get(shift)
            if seen is None:
                if len(shift) != self.m:
                    raise RankMismatchError("element ranks do not match the level")
                moved = [(b + t) % M for b, t in zip(base, shift)]
                classes = {
                    tuple((b + c) % M for b, c in zip(moved, e)): j * d
                    for j, e in enumerate(self.E)
                }
                seen = by_shift[shift] = (self._index_of(moved, ()), classes)
            block, classes = seen
            added = None
            for pos, val in entries:
                r = residue.get(pos)
                if r is None:
                    r = residue[pos] = tuple(c % M for c in pos)
                k = classes.get(r)
                if k is not None:
                    if added is None:
                        added = lamp.copy()
                    for c in val:
                        added[k] += c
                        k += 1
            if added is None:
                out.append(block * L + offset)
            else:
                for c in added:
                    block = block * p + c % p
                out.append(block)
        return out

    def _blocks(self, x: WreathElement) -> Tuple[List[int], Dict[int, List[int]]]:
        """x as block arithmetic: the image block of every base block, in
        index order, and the lamp-offset permutation of each block whose
        lamp offset changes.  Blocks sharing a pattern of added class sums
        share one permutation."""
        delta, class_sums = self.datum.reduce(x)
        M = self.modulus
        targets = [0]
        for t in delta:
            targets = [hi * M + (b + t) % M for hi in targets for b in range(M)]
        # Source block of each target block whose classes meet the support.
        patterns: Dict[int, list] = {}
        for q, g in class_sums.items():
            for j, c in enumerate(self.E):
                residue = ((a - t - e) % M for a, t, e in zip(q, delta, c))
                source = self._index_of(residue, ())
                patterns.setdefault(source, [None] * self.l)[j] = g
        perms: Dict[tuple, List[int]] = {}
        moved: Dict[int, List[int]] = {}
        for source, pattern in patterns.items():
            key = tuple(pattern)
            if key not in perms:
                perms[key] = self._lamp_permutation(key)
            moved[source] = perms[key]
        return targets, moved

    def _lamp_permutation(self, pattern: Sequence[Optional[Vec]]) -> List[int]:
        """Lamp offsets after adding pattern[j] (None for zero) to digit group j."""
        p = self.p
        perm = [0]
        for g in pattern:
            for c in g if g is not None else (0,) * self.d:
                perm = [hi * p + (u + c) % p for hi in perm for u in range(p)]
        return perm

    def index_map(self, x: WreathElement) -> List[int]:
        """The image of every state index under x."""
        L = self._lamp_size
        offsets = range(L)
        targets, moved = self._blocks(x)
        out = [t * L + o for t in targets for o in offsets]
        for b, perm in moved.items():
            start = targets[b] * L
            out[b * L : (b + 1) * L] = [start + o for o in perm]
        return out

    def table(self, g: int) -> List[int]:
        """Permutation of state indices induced by group generator g."""
        if g not in self._tables:
            self._tables[g] = self.index_map(self.group.generators()[g])
        return self._tables[g]

    def orbit(self, start: int = 0, budget: int = DEFAULT_STATE_BUDGET) -> "OrbitResult":
        """BFS over states; for each reached state a word carrying `start` to it."""
        if self.size > budget:
            raise BudgetExceededError(self.size, budget)
        steps = [(g, self.table(g)) for g in range(len(self.group.generators()))]
        orb = _bfs(steps, start, self.size)
        orb.order = orb.order.tolist()
        return orb

    def fixed_count(self, xs: Iterable[WreathElement]) -> int:
        """The number of states fixed by every element of xs, from the blocks.

        An element with a nonzero shift residue moves every base block.  One
        with shift residue 0 adds its class sum at b + E[j], which is nonzero
        mod p, to lamp digit group j of block b; such a block receives a
        nonzero translation of (Z/p)^(ld) and keeps no fixed state, and every
        other block is fixed whole.  So the common fixed states fill the
        blocks that no element moves."""
        M = self.modulus
        moved = set()
        for x in xs:
            delta, class_sums = self.datum.reduce(x)
            if any(delta):
                return 0
            for q in class_sums:
                moved.update(tuple((a - e) % M for a, e in zip(q, c)) for c in self.E)
        return (M**self.m - len(moved)) * self._lamp_size

    def brute_fixed_indices(self, x: WreathElement, budget: int = DEFAULT_STATE_BUDGET) -> List[int]:
        """Indices of all states fixed by x, read off its index map.  Nothing
        in the package calls this listing: the tests keep it as the oracle of
        :meth:`fixed_count`."""
        if self.size > budget:
            raise BudgetExceededError(self.size, budget)
        return [i for i, image in enumerate(self.index_map(x)) if image == i]

    def state_text(self, idx: int) -> str:
        """The text ``(base)|((sum),...)`` of a state index: its base digits,
        then its lamp digits in groups of d, one group per class of E."""
        base, lamp = self.digits(idx)
        sums = ",".join(map(format_vec, zip(*[iter(lamp)] * self.d)))  # d digits per sum
        return f"{format_vec(tuple(base))}|({sums})"

    def parse_state_index(self, text: str, line: int | None = None) -> int:
        """The index of a state text (see :meth:`state_text`).  TextParseError
        at the first column that leaves the grammar, then for a shape other
        than the level's, then for a digit out of its range."""
        s = text.strip()
        base, pos = _parse_vec(s, 0, line)
        if s[pos : pos + 2] != "|(":
            raise TextParseError("expected '|(' after the base residue", line, pos + 1)
        pos += 2
        sums: List[Vec] = []
        if s[pos : pos + 1] != ")":
            v, pos = _parse_vec(s, pos, line)
            sums.append(v)
            while s[pos : pos + 1] == ",":
                v, pos = _parse_vec(s, pos + 1, line)
                sums.append(v)
        if s[pos : pos + 1] != ")":
            raise TextParseError("expected ')' closing the sums", line, pos + 1)
        if pos + 1 != len(s):
            raise TextParseError("trailing characters after state", line, pos + 2)
        if len(base) != self.m or len(sums) != self.l:
            raise TextParseError("state shape does not match the level", line)
        for b in base:
            if not 0 <= b < self.modulus:
                raise TextParseError(f"base coordinate {b} out of range", line)
        for v in sums:
            if len(v) != self.d or any(not 0 <= c < self.p for c in v):
                raise TextParseError("sum entry out of range", line)
        return self._index_of(base, (c for v in sums for c in v))


class OrbitResult:
    """The states a BFS reached from `start`, in discovery order.

    State ``order[i + 1]`` was discovered from ``order[parents[i]]`` by
    generator ``letters[i]``; its word is that generator followed by the
    parent's word.  The words are built on first access.
    """

    def __init__(self, start, order: Sequence, parents: Sequence[int], letters: List[int]):
        self.start = start
        self.order = order
        self._parents = parents
        self._letters = letters

    @property
    def size(self) -> int:
        return len(self.order)

    def word(self, state) -> Word:
        """The word of one state, read off its chain of parents.  The first
        call places every state of the order; after that each word costs
        its length."""
        try:
            i = self._position[state]
        except (LookupError, TypeError):
            i = None
        if i is None or self.order[i] != state:
            raise ValueError(f"state {state} is not in the orbit")
        word = []
        while i:
            word.append(self._letters[i - 1])
            i = self._parents[i - 1]
        return tuple(word)

    @cached_property
    def _position(self):
        """Each state's place in the order: an array over state indices (2.8 MB
        for 352,800 states, where a dict takes 42 MB), a dict over tuples."""
        if not isinstance(self.order[0], int):
            return {s: i for i, s in enumerate(self.order)}
        position = array("l", [0]) * (max(self.order) + 1)
        for i, s in enumerate(self.order):
            position[s] = i
        return position

    @cached_property
    def words(self) -> Dict:
        words: List[Word] = [()]
        for parent, g in zip(self._parents, self._letters):
            words.append((g,) + words[parent])
        return dict(zip(self.order, words))


def _bfs(steps: Sequence[Tuple[int, Sequence[int]]], start: int, size: int) -> OrbitResult:
    """Breadth-first search over state indices 0..size-1 from start.  steps
    pairs each letter with its permutation table, tried in order at every
    state; a state's first discovery fixes its parent and letter.  The order
    comes back as an ``array``, which each caller turns into its states."""
    seen = bytearray(size)
    seen[start] = 1
    order = array("l", [start])
    parents = array("l")
    letters: List[int] = []
    # The loop also visits the states appended while it runs.
    for i, s in enumerate(order):
        for g, table in steps:
            t = table[s]
            if not seen[t]:
                seen[t] = 1
                order.append(t)
                parents.append(i)
                letters.append(g)
    return OrbitResult(start, order, parents, letters)


class _WindowAction:
    """One element, checked against the window's ranks once, applied to one
    state at a time through :meth:`Window.images`.  The package acts through
    :meth:`Window.images` itself; this class and :meth:`Window.prepare` stay
    because the benchmark's tracer (``bench/traced.py``) wraps them and
    ``tests/test_bench_contract.py`` pins that."""

    __slots__ = ("window", "x")

    def __init__(self, window: "Window", x: WreathElement):
        window.group.validate_element(x)
        self.window = window
        self.x = x

    def apply(self, state: Tuple[int, ...]) -> Tuple[int, ...]:
        return self.window.state_at(self.window.images(state, (self.x,))[0])


class Window:
    """Diagonal action on a product of levels; states are index tuples.

    The construction does not insist on pairwise distinct primes so that
    degenerate products (the negative controls) can be built and examined;
    :meth:`primes_distinct` reports the condition and the criterion
    certificate requires it.
    """

    def __init__(self, data: Sequence[SubgroupDatum]):
        data = list(data)
        if not data:
            self.d = self.m = 1
        else:
            self.d, self.m = data[0].d, data[0].m
            for dat in data:
                if (dat.d, dat.m) != (self.d, self.m):
                    raise WindowError("all window data must share the ranks d, m")
        self.data = tuple(data)
        self.levels = tuple(FiniteLevel(dat) for dat in data)
        self.group = WreathGroup(self.d, self.m)

    def __len__(self) -> int:
        return len(self.levels)

    @cached_property
    def size(self) -> int:
        """The number of window states, on first use: the criterion never needs it."""
        return prod(level.size for level in self.levels)

    def primes_distinct(self) -> bool:
        ps = [dat.p for dat in self.data]
        return len(set(ps)) == len(ps)

    def identity_thread(self) -> Tuple[int, ...]:
        return (0,) * len(self.levels)

    def prepare(self, x: WreathElement) -> _WindowAction:
        """x as a per-state action, kept for the bench (see :class:`_WindowAction`)."""
        return _WindowAction(self, x)

    def _require_state(self, state: Tuple[int, ...]) -> None:
        """Raise WindowError unless state holds one index per level, each in
        its level's range."""
        if len(state) != len(self.levels) or not all(
            0 <= i < level.size for level, i in zip(self.levels, state)
        ):
            raise WindowError(f"{state!r} is not a state of this window")

    def images(self, state: Tuple[int, ...], xs: Sequence[WreathElement]) -> List[int]:
        """The flat index of the image of state under each element of xs, in
        order: each level's :meth:`FiniteLevel.images`, spelled in mixed
        radix.  The elements must have the window's ranks."""
        self._require_state(state)
        flat = [0] * len(xs)
        for level, i in zip(self.levels, state):
            n = level.size
            flat = [f * n + t for f, t in zip(flat, level.images(i, xs))]
        return flat

    def _spell(self, tabs: Sequence[Sequence[int]]) -> array:
        """The permutation of flat indices (see :meth:`flat_index`) that acts
        on each level by its table in tabs."""
        flat = [0]
        for level, tab in zip(self.levels, tabs):
            n = level.size
            flat = [f * n + t for f in flat for t in tab]
        return array("l", flat)

    def index_map(self, x: WreathElement) -> array:
        """The image of every flat index under x."""
        return self._spell([level.index_map(x) for level in self.levels])

    def tables(self, g: int) -> List[List[int]]:
        return [level.table(g) for level in self.levels]

    def flat_table(self, g: int) -> array:
        """Generator g as a permutation of flat indices."""
        return self._spell(self.tables(g))

    def orbit(self, start: Tuple[int, ...], budget: int = DEFAULT_STATE_BUDGET) -> OrbitResult:
        """BFS on flat indices; the result's states are index tuples."""
        if self.size > budget:
            raise BudgetExceededError(self.size, budget)
        steps = [(g, self.flat_table(g)) for g in range(len(self.group.generators()))]
        orb = _bfs(steps, self.flat_index(start), self.size)
        del steps  # the tables go before the tuples are built, to bound peak memory
        orb.order = [self.state_at(i) for i in orb.order]
        orb.start = orb.order[0]
        return orb

    def fixed_count(self, xs: Sequence[WreathElement]) -> int:
        """The number of product states fixed by every element of xs.  The
        diagonal action fixes a product state exactly when it fixes every
        coordinate, so this is the product of the level counts."""
        return prod(level.fixed_count(xs) for level in self.levels)

    def flat_index(self, state: Tuple[int, ...]) -> int:
        idx = 0
        for level, i in zip(self.levels, state):
            idx = idx * level.size + i
        return idx

    def state_at(self, idx: int) -> Tuple[int, ...]:
        out = []
        for level in reversed(self.levels):
            idx, r = divmod(idx, level.size)
            out.append(r)
        out.reverse()
        return tuple(out)

    def state_text(self, state: Tuple[int, ...]) -> str:
        return "*".join(level.state_text(i) for level, i in zip(self.levels, state))

    def parse_state(self, text: str, line: int | None = None) -> Tuple[int, ...]:
        if not isinstance(text, str):
            raise TextParseError(f"state must be text, got {text!r}", line)
        parts = text.strip().split("*")
        if len(parts) != len(self.levels):
            raise TextParseError(
                f"window state needs {len(self.levels)} factors, got {len(parts)}", line
            )
        return tuple(level.parse_state_index(part, line) for level, part in zip(self.levels, parts))


def stabilizer_witness(window: Window, ball_radius: int = 1) -> dict:
    """Evidence that the identity thread of a window has the smallest
    stabilizer the finite stage can certify: every window gamma moves the
    thread (then ``ok`` holds), and every ball element is classified as a
    mover or a fixer of it.  The thread is state 0 on every level, so an
    element moves it exactly when some level's image of 0 is not 0; each
    level is asked only about the elements that every earlier level fixed."""
    gammas = [dat.gamma for dat in window.data]
    ball = [entry.element for entry in window.group.ball(ball_radius)]
    xs = gammas + ball
    todo = range(len(xs))  # positions in xs of the elements that fix the thread so far
    for level in window.levels:
        images = level.images(0, [xs[i] for i in todo])
        todo = [i for i, image in zip(todo, images) if not image]
    fixed = set(todo)
    fixers = [x.text() for i, x in enumerate(ball, len(gammas)) if i in fixed]
    return {
        "window_gammas": [
            {"gamma": x.text(), "moves_identity_thread": i not in fixed}
            for i, x in enumerate(gammas)
        ],
        "ball_radius": ball_radius,
        "mover_count": len(ball) - len(fixers),
        "fixer_count": len(fixers),
        "fixers": fixers,
        "ok": fixed.isdisjoint(range(len(gammas))),
    }
