"""The castle kind: castles, their file format, and the audit of a castle
against the fixed-set bound for a test element, with its verifier
:func:`check_castle_audit`.  The record helpers are those of
:mod:`allostery.certificates`; the check reruns the audit through its name
there, which the benchmark's trace wraps.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_right
from functools import cached_property
from fractions import Fraction
from itertools import accumulate
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import certificates
from .base import frac_str
from .certificates import (
    SCHEMA_VERSION, _malformed, _require_kind, _require_same, parse_tolerance, window_from_records,
)
from .dynamics import DEFAULT_STATE_BUDGET, State, StateSet, Window
from .errors import BudgetExceededError, TextParseError
from .wreath import WreathElement, format_element, read_canonical


class Tower(tuple):
    """The pair (base, shapes): a set of base states and the elements that
    translate it.  No __slots__: the instance dict caches the shape texts and
    holds what equality and hashing do not see: ``group``, whose ranks the
    shapes have by construction (None: unknown), and for a tower read from a
    castle file ``words``, the file's word plan and each shape's plan index."""

    def __new__(cls, base: StateSet, shapes: Tuple[WreathElement, ...], group=None, words=None):
        tower = tuple.__new__(cls, (base, shapes))
        tower.group, tower.words = group, words
        return tower

    base = property(operator.itemgetter(0))
    shapes = property(operator.itemgetter(1))

    @cached_property
    def shape_texts(self) -> Tuple[str, ...]:
        """The canonical text of each shape, in shape order."""
        return tuple(map(format_element, self.shapes))


class Castle(NamedTuple):
    towers: Tuple[Tower, ...]
    epsilon: Optional[Fraction] = None

    def to_dict(self, window: Window) -> dict:
        return {
            "towers": [
                {
                    "V": [window.state_text(s) for s in sorted(t.base)],
                    "S": list(t.shape_texts),
                }
                for t in self.towers
            ],
            "epsilon": None if self.epsilon is None else frac_str(self.epsilon),
        }

    @classmethod
    def from_dict(cls, rec: dict, window: Window) -> "Castle":
        """Read a castle record.  A tower whose shape texts :func:`read_canonical`
        all accepts keeps them as its ``shape_texts``: printing would give them
        again."""
        group = window.group
        towers = []
        for tw in rec["towers"]:
            base = frozenset(window.parse_state(t) for t in tw["V"])
            texts = tuple(tw["S"])
            read = [read_canonical(x, group.d, group.m) for x in texts]
            shapes = tuple(x or group.parse_element(t) for x, t in zip(read, texts))
            towers.append(Tower(base=base, shapes=shapes, group=group))
            if None not in read:
                towers[-1].shape_texts = texts
        eps = rec.get("epsilon")
        return cls(towers=tuple(towers), epsilon=None if eps is None else parse_tolerance(eps))


def parse_castle_file(text: str, window: Window) -> Castle:
    """Parse the one-tower-per-line castle format: ``V=<states>; S=<words>``.

    States use the canonical window state text, words the dotted generator
    names (``e`` for the empty word); tokens are whitespace-separated.
    Lines are read in file order up to the first fault of form or state.
    Then each distinct word of those lines is evaluated once, shortest
    first: a word ``g.rest`` whose tail ``rest`` is also a word of the
    castle is generator g times the tail's element, one product through
    g's :meth:`~WreathElement.left_multiplier`, so the words of a Schreier
    tree cost one step each; any other word goes
    through :meth:`WreathGroup.parse_word`.  The first word in file order
    that does not evaluate raises parse_word's error at its line; then the
    fault that ended the reading, if any.

    The towers carry the window's group.  The same loop writes a plan,
    ``(tails, heads)``: planned word i is generator ``heads[i]`` times
    planned word ``tails[i]`` (-1: ``e``), where a word is planned when it
    is one letter or its tail is planned.  A tower whose words are all
    planned or ``e`` carries the plan too, for :func:`_walk`.
    """
    group = window.group
    lines: List[Tuple[int, StateSet, List[str]]] = []
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ";" not in line:
                raise TextParseError("expected 'V=<states>; S=<words>'", lineno)
            left, right = line.split(";", 1)
            left, right = left.strip(), right.strip()
            if not left.startswith("V=") or not right.startswith("S="):
                raise TextParseError("tower line must give V= then S=", lineno)
            state_tokens = left[2:].split()
            word_tokens = right[2:].split()
            if not state_tokens or not word_tokens:
                raise TextParseError("tower needs at least one state and one word", lineno)
            base = frozenset(window.parse_state(tok, lineno) for tok in state_tokens)
            lines.append((lineno, base, word_tokens))
    except TextParseError as exc:
        fault = exc
    else:
        fault = None if lines else TextParseError("castle file holds no towers")
    lookup = group._name_index
    times = [gen.left_multiplier() for gen in group.generators()]
    identity = group.identity()
    elements: Dict[str, WreathElement] = {}
    ids = {"": -1}  # plan index of each planned word; "": no tail
    tails: List[int] = []
    heads: List[int] = []
    for tok in sorted({tok for _, _, words in lines for tok in words} - {"e"}, key=len):
        head, dot, tail = tok.partition(".")
        g = lookup.get(head)
        rest = elements.get(tail) if dot else identity
        if g is None or rest is None:
            try:
                elements[tok] = group.word_element(group.parse_word(tok))
            except TextParseError:
                pass  # raised below, at the word's line
            continue
        elements[tok] = times[g](rest)
        if tail in ids:
            ids[tok] = len(tails)
            tails.append(ids[tail])
            heads.append(g)
    elements["e"], ids["e"] = identity, -1
    for lineno, _, words in lines:
        for tok in words:
            if tok not in elements:
                group.parse_word(tok, lineno)  # raises, naming the first unknown letter
    if fault is not None:
        raise fault
    plan = (tails, heads)
    towers = []
    for _, base, words in lines:
        planned = tuple(map(ids.get, words))
        shapes = tuple(elements[tok] for tok in words)
        towers.append(Tower(base, shapes, group, None if None in planned else (plan, planned)))
    return Castle(towers=tuple(towers))


def _walk(
    tower: Tower, base: Sequence[State], window: Window, tables: List[array], memos: dict
) -> List[List[int]]:
    """For each v in base, the flat index of s v for each shape s of a tower
    read from a castle file: the shape of word g.rest carries v to
    ``tables[g][rest v]``, as (g rest) v = g (rest v).  ``memos[id(tails), v]``
    holds the translates of v found so far by plan index, and v at -1, so
    each (word, base state) pair is computed once."""
    (tails, heads), ids = tower.words
    rows = []
    for v in base:
        window._require_state(v)
        memo = memos.setdefault((id(tails), v), {-1: window.flat_index(v)})
        row = []
        for i in ids:
            chain = []
            while i not in memo:
                chain.append(i)
                i = tails[i]
            x = memo[i]
            for j in reversed(chain):
                x = memo[j] = tables[heads[j]][x]
            row.append(x)
        rows.append(row)
    return rows


class _MalformedCastle(Exception):
    """A castle is not well formed: :func:`_tile` raises it with a witness,
    and :func:`audit_castle` records both, so it never leaves the module."""

    def __init__(self, message: str, witness: dict):
        self.witness = witness
        super().__init__(message)


def audit_castle(
    castle: Castle, gamma: WreathElement, window: Window, budget: int = DEFAULT_STATE_BUDGET
) -> dict:
    """The audit record of a castle: its inputs, then the fixed-set bound
    (see :func:`_measure`) when the castle is well formed, else
    ``well_formed: false``, the error and its witness (see :func:`_tile`)."""
    if window.size > budget:
        raise BudgetExceededError(window.size, budget)
    try:
        fields = _measure(castle, gamma, window, _tile(castle, window))
    except _MalformedCastle as exc:
        fields = {"well_formed": False, "error": str(exc), "witness": exc.witness}
    return {
        "kind": "castle-audit",
        "v": SCHEMA_VERSION,
        "window": [dat.to_dict() for dat in window.data],
        "castle": castle.to_dict(window),
        "gamma": gamma.text(),
        **fields,
    }


def _tile(castle: Castle, window: Window) -> Tuple[List[int], List[int], List[List[int]]]:
    """The tiling of a well-formed castle: ``owner[i]`` numbers the shape,
    counted through the castle from ``starts[ti]`` for tower ti, whose
    translate covers flat index i; ``heads[ti]`` lists s v for tower ti's
    shapes s and v = min V.  Well formed means: every tower has base states
    and shapes, and the translates (one per tower shape, so a repeated shape
    gives two equal ones) are pairwise disjoint and cover the state space.
    Else _MalformedCastle names the tower or the doubly covered or missed
    state; translates go shape by shape, then base state by base state, so
    the overlap witness is the first collision in that order."""
    # Towers read from a castle file against this window's group are walked
    # (see _walk) unless the castle has more translates than states: it
    # cannot tile, and the chunks below find its first overlap early.
    walk = sum(len(t.base) * len(t.shapes) for t in castle.towers) <= window.size
    tables: List[array] = []
    memos: Dict[Tuple[int, State], Dict[int, int]] = {}
    owner = [-1] * window.size  # -1: no translate covers the index yet
    starts = list(accumulate((len(t.shapes) for t in castle.towers), initial=0))
    heads: List[List[int]] = []
    for ti, (tower, start) in enumerate(zip(castle.towers, starts)):
        shapes = tower.shapes
        if not shapes:
            raise _MalformedCastle("tower has no shapes", witness={"tower": ti})
        if not tower.base:
            raise _MalformedCastle("tower has no base states", witness={"tower": ti})
        ranked = tower.group == window.group  # built with the window's ranks
        if not ranked:
            for shape in shapes:
                window.group.validate_element(shape)
        heads.append([])
        base = sorted(tower.base)
        if walk and ranked and tower.words:
            if not tables:
                tables = [window.flat_table(g) for g in range(len(window.group.generators()))]
            chunks: Iterable = [(0, _walk(tower, base, window, tables, memos))]
        else:
            # Shapes go in chunks of at most window.size images, so a castle
            # with far too many translates fails without building them all.
            step = max(1, window.size // len(base))
            chunks = (
                (lo, [window.images(v, shapes[lo : lo + step]) for v in base])
                for lo in range(0, len(shapes), step)
            )
        for lo, rows in chunks:
            heads[ti] += rows[0]
            for k, imgs in enumerate(zip(*rows), start + lo):
                for img in imgs:
                    first = owner[img]
                    if first >= 0:
                        tj = bisect_right(starts, first) - 1
                        first_text = castle.towers[tj].shape_texts[first - starts[tj]]
                        raise _MalformedCastle(
                            "castle translates overlap",
                            witness={
                                "state": window.state_text(window.state_at(img)),
                                "first": {"tower": tj, "shape": first_text},
                                "second": {"tower": ti, "shape": tower.shape_texts[k - start]},
                            },
                        )
                    owner[img] = k
    if -1 in owner:
        raise _MalformedCastle(
            "castle translates do not cover the state space",
            witness={"missing_state": window.state_text(window.state_at(owner.index(-1)))},
        )
    return owner, starts, heads


def _measure(castle: Castle, gamma: WreathElement, window: Window, tiling: tuple) -> dict:
    """The fixed-set bound of a well-formed castle, from its :func:`_tile`:
    for the test set {inverse of gamma}, the measure of the set of gamma-fixed
    states is at most the sum over towers of |KS △ S| times the base measure,
    and the audit recomputes both sides exactly.  The record's ``ok`` holds
    when the inequality does and no defect reaches a given tolerance.

    The defect reads off the tiling: |KS △ S| = 2 (|S| - kept), as |KS| = |S|,
    with kept = #{s in S : gamma^-1 s in S}.  Lemma: for v in the tower's base,
    gamma^-1 s is in S iff it equals the owner s' of gamma^-1 (s v), the shape
    whose translate covers that state, and s' is in the tower.  Proof: if
    gamma^-1 s = s' is in S, the state is s' v, and translates are disjoint.
    The audit takes v = min V; for s' = s, gamma^-1 s = s iff gamma = e.
    """
    owner, starts, heads = tiling
    inv = gamma.inverse()
    pre = window.index_map(inv)  # rejects a gamma of other ranks
    times = inv.left_multiplier()  # _tile has checked the shapes' ranks
    trivial = inv.is_identity()
    towers: List[dict] = []
    defects: List[Fraction] = []
    bound = Fraction(0)
    for tower, start, head in zip(castle.towers, starts, heads):
        shapes = tower.shapes
        kept = 0
        for si, img in enumerate(head):
            sj = owner[pre[img]] - start  # the owner of gamma^-1 (s v), if in this tower
            if 0 <= sj < len(shapes) and (trivial if sj == si else times(shapes[si]) == shapes[sj]):
                kept += 1
        count = 2 * (len(shapes) - kept)
        defects.append(Fraction(count, len(shapes)))
        base_measure = Fraction(len(tower.base), window.size)
        bound += count * base_measure
        towers.append(
            {
                "base_size": len(tower.base),
                "shape_size": len(shapes),
                "defect_count": count,
                "defect": frac_str(defects[-1]),
                "base_measure": frac_str(base_measure),
            }
        )
    fix_measure = Fraction(window.fixed_count([gamma]), window.size)
    eps = castle.epsilon
    within = None if eps is None else all(defect < eps for defect in defects)
    return {
        "towers": towers,
        "fix_measure": frac_str(fix_measure),
        "bound": frac_str(bound),
        "inequality_ok": fix_measure <= bound,
        "epsilon": None if eps is None else frac_str(eps),
        "defects_within_epsilon": within,
        "ok": fix_measure <= bound and within is not False,
    }


def check_castle_audit(rec: dict, budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """Re-run a serialized audit and require the record to serialize exactly
    as the rerun; the record of a castle that is not well formed checks as
    not ok."""
    _require_kind(rec, "castle-audit", "castle audit")
    with _malformed("castle audit"):
        window = window_from_records(rec["window"])
        castle = Castle.from_dict(rec["castle"], window)
        gamma = window.group.parse_element(rec["gamma"])
    fresh = certificates.audit_castle(castle, gamma, window, budget)
    _require_same(rec, fresh)
    return fresh.get("ok", False)
