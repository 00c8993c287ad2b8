"""Certificate producers and independent verifiers.

Four certificate kinds cover the pipeline: the freeness-vs-measure criterion
for a window of forged subgroups, comparison of two state subsets via
translated atom pieces, the audit of a castle against the fixed-set bound,
and the assembled negative report that a positive-measure fixed set rules
out castles with small tolerance.

A certificate is its JSON record: every producer returns a plain dict of
JSON values only (exact rationals as ``"num/den"`` strings, group elements as
canonical text, words as generator index lists, a ``kind`` tag and
``"v": 1``), and no list or dict sits at two places in one record.  Every
kind has a verifier that works from the record alone: it recomputes the
claims and rejects a record that does not serialize exactly as the
recomputation.  No field holds a whole-window product, which has thousands
of digits at radius 4: the per-level records state each window claim once.
"""

from __future__ import annotations

import json
import operator
from array import array
from bisect import bisect_right
from contextlib import contextmanager
from copy import deepcopy
from functools import cached_property
from fractions import Fraction
from itertools import accumulate
from math import prod
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .base import frac_str, zero
from .dynamics import (
    DEFAULT_STATE_BUDGET,
    FiniteLevel,
    Window,
    _bfs,
    stabilizer_witness,
)
from .errors import (
    BudgetExceededError,
    CertificateError,
    DatumInvariantError,
    MeasureConditionError,
    TextParseError,
)
from .forge import SubgroupDatum, assign_primes, default_epsilon
from .wreath import Lamp, Word, WreathElement, format_element, read_canonical

SCHEMA_VERSION = 1

State = Tuple[int, ...]
StateSet = FrozenSet[State]


def parse_frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CertificateError(f"bad rational {text!r}: {exc}") from None


def parse_tolerance(text: str) -> Fraction:
    """A castle's defect tolerance: a positive rational."""
    eps = parse_frac(text)
    if eps <= 0:
        raise CertificateError(f"castle tolerance must be positive, got {text!r}")
    return eps


def window_from_records(records: Sequence[dict]) -> Window:
    """The window of a list of datum records; a TextParseError names a record by position."""
    if not isinstance(records, list):
        raise TextParseError("no window data found")
    return Window([SubgroupDatum.from_dict(r, f"window record {i}") for i, r in enumerate(records)])


def _require_kind(rec, kind: str, what: str) -> None:
    if not isinstance(rec, dict) or rec.get("kind") != kind or rec.get("v") != SCHEMA_VERSION:
        raise CertificateError(f"not a {what}")


@contextmanager
def _malformed(what: str):
    """Raise a malformed-record error from inside as CertificateError("malformed <what>: ...")."""
    try:
        yield
    except (KeyError, TypeError, ValueError, TextParseError, DatumInvariantError) as exc:
        raise CertificateError(f"malformed {what}: {exc}") from None


def _require_same(rec: dict, fresh: dict) -> None:
    """Raise CertificateError unless ``rec`` serializes exactly as ``fresh``.

    Key order carries no meaning; value types do (``true`` is not ``1`` and
    ``1`` is not ``1.0``), and so do extra and missing keys."""

    def canon(value) -> str:
        return json.dumps(value, sort_keys=True)

    for key in {**fresh, **rec}:
        if key not in rec or key not in fresh or canon(rec[key]) != canon(fresh[key]):
            raise CertificateError(f"recorded {key!r} disagrees with recomputation")


# --------------------------------------------------------------------------
# transitivity, by an exact per-level argument at any window size


def _level_structure_defect(level: FiniteLevel) -> Optional[str]:
    """None when the unit steps that make a level transitive hold on state 0,
    else the first step that does not.

    The digits of a state (:meth:`FiniteLevel.digits`) spell a base block b
    in m digits of radix M = p^k, then a lamp offset v in l*d digits of
    radix p.  Every element acts as (b, v) -> (b + delta, v + sigma(b +
    delta)) for its shift residue delta and a map sigma from blocks to lamp
    offsets.  So if t_j sends state 0 to block e_j, and t^E[j] s_i t^-E[j]
    (shift 0) adds the unit lamp digit (j, i) to state 0, then those lamp
    elements act on block 0 as the translations of (Z/p)^(ld), block 0 lies
    in one orbit, and products of shifts carry it bijectively onto every
    block.  That is m + l*d digit applications, the k-th of which must set
    digit k of state 0 alone, whatever the level size."""
    m, d, n = level.m, level.d, level.l * level.d
    units = [tuple(int(k == i) for k in range(d)) for i in range(d)]
    lamps = [WreathElement(Lamp.of({c: u}), zero(m)) for c in level.E for u in units]
    shifts = [level.group.shift_generator(j) for j in range(m)]
    for k, image in enumerate(level.images(0, shifts + lamps)):
        base, lamp = level.digits(image)
        if base + lamp != [int(i == k) for i in range(m + n)]:
            if k < m:
                return f"t{k + 1} does not carry state 0 to base block e_{k + 1}"
            j, i = divmod(k - m, d)
            return f"the lamp s{i + 1} at class E[{j}] does not add lamp digit ({j}, {i}) alone"
    return None


def _transitivity(ok: bool, detail: str) -> dict:
    return dict(status="pass" if ok else "fail", method="level-structure", detail=detail)


def certify_transitive(window: Window) -> dict:
    """Decide transitivity of the diagonal action, exactly, at any size.

    Each level is shown transitive by its digit arithmetic (see
    :func:`_level_structure_defect`), which costs m + l*d applications to one
    state at any level size.  The orbit of the identity thread surjects
    equivariantly onto each level, so each level size divides the orbit size;
    with pairwise distinct primes the level sizes are coprime prime powers,
    their product (the window size) divides the orbit size, and the orbit is
    everything.  Two levels that share a prime p are never transitive
    together: b -> b mod p maps each of them equivariantly onto (Z/p)^m, so
    the difference of their base blocks mod p is invariant.  The levels are
    examined in order, each for its own defect and then for an earlier prime.
    """
    first: Dict[int, int] = {}  # the first level of each prime
    for pos, level in enumerate(window.levels):
        defect = _level_structure_defect(level)
        if defect is not None:
            return _transitivity(False, f"level {pos}: {defect}")
        p, i = level.p, first.setdefault(level.p, pos)
        if i != pos:
            return _transitivity(
                False,
                f"levels {i} and {pos} share the prime {p}: b -> b mod {p} maps both "
                f"equivariantly onto (Z/{p})^m, so their base difference mod {p} is invariant",
            )
    return _transitivity(
        True,
        "on every level each element acts as (b, v) -> (b + delta, v + sigma(b + delta)); "
        "on state 0, t_j gives base e_j with zero lamp digits and t^E[j] s_i t^-E[j] gives "
        "lamp digit (j, i) alone, so the lamp elements translate block 0 through all of "
        "(Z/p)^(ld) and the shifts carry it onto every block; the pairwise-coprime level "
        "sizes all divide the thread-orbit size",
    )


# --------------------------------------------------------------------------
# criterion certificate


def record_ok(rec: dict) -> bool:
    """Whether one gamma record of a criterion certificate holds."""
    return rec["not_in_subgroup"] and rec["fraction_ok"] and rec["count_ok"]


def _gamma_record(dat: SubgroupDatum, level: FiniteLevel) -> dict:
    """The closed-form fixed fraction of one level, checked against the count
    of states that every lamp generator fixes, made from the level's blocks."""
    frac = dat.fixed_fraction()
    count = level.fixed_count(level.group.lamp_generators())
    return {
        "gamma": dat.gamma.text(),
        "prime": dat.p,
        "epsilon": frac_str(dat.epsilon),
        "index": dat.index(),
        "not_in_subgroup": not dat.contains(dat.gamma),
        "fixed_fraction": frac_str(frac),
        "fraction_ok": frac >= 1 - dat.epsilon,
        "count_ok": Fraction(count, level.size) == frac,
    }


def build_criterion(data: Sequence[SubgroupDatum], witness_radius: int = 1) -> dict:
    """Assemble the criterion certificate for pre-forged window data.  Every
    step is exact at any window size, so no state budget applies.  The
    ``verdict`` is ``valid`` or ``invalid``.  The records state the window's
    claim once: its fraction is the product of their ``fixed_fraction``s."""
    window = Window(data)
    records = [_gamma_record(dat, level) for dat, level in zip(window.data, window.levels)]
    transitivity = certify_transitive(window)
    witness = stabilizer_witness(window, ball_radius=witness_radius)
    failed = (
        not all(map(record_ok, records))
        or transitivity["status"] == "fail"
        or not witness["ok"]
    )
    return {
        "kind": "criterion",
        "v": SCHEMA_VERSION,
        "d": window.d,
        "m": window.m,
        "window": [dat.to_dict() for dat in window.data],
        "records": records,
        "primes_distinct": window.primes_distinct(),
        "transitivity": transitivity,
        "stabilizer": witness,
        "verdict": "invalid" if failed else "valid",
    }


def verify_criterion(
    gammas: Sequence[WreathElement],
    d: int,
    m: int,
    epsilon=None,
    witness_radius: int = 1,
) -> dict:
    """Forge data for the given window elements and certify the criterion.

    ``epsilon`` may be None (the summable schedule), a fixed rational applied
    to every element, or a callable on the position index.
    """
    assignment = assign_primes(gammas, default_epsilon if epsilon is None else epsilon)
    data = assignment.forge_all(d=d, m=m)
    return build_criterion(data, witness_radius=witness_radius)


def _rebuild_criterion(rec) -> dict:
    """Rebuild a serialized criterion certificate from its window and ball
    radius, and require the record to serialize exactly as the rebuild."""
    _require_kind(rec, "criterion", "criterion certificate")
    with _malformed("criterion certificate"):
        data = window_from_records(rec["window"]).data
        radius = rec["stabilizer"]["ball_radius"]
    if type(radius) is not int or radius < 0:
        raise CertificateError(f"ball radius must be a nonnegative integer, got {radius!r}")
    fresh = build_criterion(data, witness_radius=radius)
    _require_same(rec, fresh)
    return fresh


def check_criterion_certificate(rec: dict) -> bool:
    """Rebuild a serialized criterion certificate from its window.

    Returns the recomputed validity; raises CertificateError when the record
    is structurally broken or does not serialize exactly as the rebuild.
    """
    return _rebuild_criterion(rec)["verdict"] == "valid"


# --------------------------------------------------------------------------
# boolean atoms and comparison


def translate_closure(
    window: Window, sets: Sequence[StateSet], budget: int = DEFAULT_STATE_BUDGET
) -> List[StateSet]:
    """Close the given state subsets under the whole group action.

    Every group element acts through the permutation group generated by the
    generator moves, so iterating generator images to a fixed point yields
    exactly the set of translates; the level is finite, so this terminates.
    Only the benchmark's trace and the tests call it; the tests use it as
    the oracle for :func:`boolean_atoms`.
    """
    gens = range(len(window.group.generators()))
    tables = [window.tables(g) for g in gens]

    def image(s: StateSet, g: int) -> StateSet:
        return frozenset(
            tuple(tab[i] for tab, i in zip(tables[g], st)) for st in s
        )

    closure: List[StateSet] = []
    seen: set[StateSet] = set()
    queue: List[StateSet] = [frozenset(s) for s in sets]
    while queue:
        current = queue.pop(0)
        if current in seen:
            continue
        seen.add(current)
        closure.append(current)
        if len(seen) > budget:
            raise BudgetExceededError(len(seen), budget, what="translates")
        for g in gens:
            nxt = image(current, g)
            if nxt not in seen:
                queue.append(nxt)
    return closure


def boolean_atoms(
    members: Sequence[set[int]], perms: Sequence[Sequence[int]]
) -> List[set[int]]:
    """Atoms of the finite algebra generated by all translates of the inputs.

    States are flat indices 0..N-1, the inputs are sets of them, and perms
    holds each generator's permutation table.  Two states share an atom iff
    every group element sends them to states with the same membership in
    each input set.  So the atoms are the coarsest partition of the states
    that refines the membership pattern and that every generator maps block
    to block.  Hopcroft's partition refinement ("An n log n algorithm for
    minimizing states in a finite automaton", 1971) finds it in O(g N log N)
    steps, without listing any translate.  The atoms partition the state
    space, every translate is a union of atoms, and the action permutes the
    atoms.  Returned in order of each atom's least state.
    """
    blocks: List[set[int]] = []
    block_of: List[int] = []
    by_pattern: Dict[Tuple[bool, ...], int] = {}
    for x in range(len(perms[0])):
        pattern = tuple(x in m for m in members)
        if pattern not in by_pattern:
            by_pattern[pattern] = len(blocks)
            blocks.append(set())
        blocks[by_pattern[pattern]].add(x)
        block_of.append(by_pattern[pattern])
    # Each generator has finite order, so a partition is stable under it iff
    # it is stable under its inverse.  Splitting by forward images (the
    # preimages under the inverse) therefore needs no inverse tables.
    largest = max(range(len(blocks)), key=lambda b: len(blocks[b]))
    pending = [b != largest for b in range(len(blocks))]
    work = [b for b in range(len(blocks)) if pending[b]]
    while work:
        s = work.pop()
        pending[s] = False
        splitter = list(blocks[s])
        for perm in perms:
            hit: Dict[int, List[int]] = {}
            for y in splitter:
                x = perm[y]
                hit.setdefault(block_of[x], []).append(x)
            for b, moved in hit.items():
                rest = blocks[b]
                if len(moved) == len(rest):
                    continue
                rest.difference_update(moved)
                new = len(blocks)
                blocks.append(set(moved))
                for x in moved:
                    block_of[x] = new
                # Hopcroft: a block still waiting keeps both halves waiting;
                # otherwise the smaller half suffices.
                if pending[b] or len(moved) <= len(rest):
                    pending.append(True)
                    work.append(new)
                else:
                    pending.append(False)
                    pending[b] = True
                    work.append(b)
    return sorted(blocks, key=min)


def _comparison_record(
    window: Window,
    a: StateSet,
    b: StateSet,
    pieces: Sequence[StateSet],
    words: Sequence[Word],
) -> dict:
    return {
        "kind": "comparison",
        "v": SCHEMA_VERSION,
        "d": window.d,
        "m": window.m,
        "window": [dat.to_dict() for dat in window.data],
        "A": [window.state_text(s) for s in sorted(a)],
        "B": [window.state_text(s) for s in sorted(b)],
        "pieces": [[window.state_text(s) for s in sorted(piece)] for piece in pieces],
        "words": [list(w) for w in words],
    }


def comparison_certificate(
    a_set: Sequence[State] | StateSet,
    b_set: Sequence[State] | StateSet,
    window: Window,
    budget: int = DEFAULT_STATE_BUDGET,
) -> dict:
    """Decompose A into atoms and move them disjointly into B.

    Requires a transitive window and |A| < |B| (the uniform-measure
    comparison hypothesis).  One flat table per generator serves one BFS
    from index 0, which decides transitivity, and the atoms of the translate
    algebra of {A, B} (see :func:`boolean_atoms`).  The i-th atom inside A
    goes to the i-th atom inside B, both in order of least state.  The atoms
    form a block system, so a word that carries one state of piece P to one
    state of target T carries all of P onto T.  Every word is read off the
    one BFS tree: the word of min(T), then the inverse of the word of min(P)
    (generators 2i and 2i+1 are inverse to each other).  So the words are
    not shortest.  The only budget is the window size.
    """
    a = frozenset(a_set)
    b = frozenset(b_set)
    if len(a) >= len(b):
        raise MeasureConditionError(f"need |A| < |B|, got |A|={len(a)} and |B|={len(b)}")
    if window.size > budget:
        raise BudgetExceededError(window.size, budget)
    steps = list(enumerate(map(window.flat_table, range(len(window.group.generators())))))
    tree = _bfs(steps, 0, window.size)
    if tree.size != window.size:
        raise CertificateError("comparison requires a transitive window")
    a_idx = {window.flat_index(s) for s in a}
    b_idx = {window.flat_index(s) for s in b}
    atoms = boolean_atoms([a_idx, b_idx], [perm for _, perm in steps])
    pieces = [atom for atom in atoms if atom <= a_idx]
    targets = [atom for atom in atoms if atom <= b_idx]
    piece_states = [frozenset(map(window.state_at, piece)) for piece in pieces]
    if frozenset().union(*piece_states) != a:
        raise CertificateError("atoms failed to refine A")
    if len(pieces) > len(targets):
        raise CertificateError("fewer atoms inside B than inside A")
    to_root = [tuple(g ^ 1 for g in reversed(tree.word(min(piece)))) for piece in pieces]
    words = [tree.word(min(target)) + back for target, back in zip(targets, to_root)]
    cert = _comparison_record(window, a, b, piece_states, words)
    if not check_comparison_certificate(cert):
        raise CertificateError("freshly produced comparison certificate failed to verify")
    return cert


def check_comparison_certificate(rec: dict) -> bool:
    """Re-check a serialized comparison certificate from scratch: the pieces
    partition A, each transported image lies in B, and images are pairwise
    disjoint.  A record that does not re-serialize to itself (ranks other
    than the window's, state lists not strictly ascending, extra keys), an
    empty piece or a word letter that names no generator raises
    :class:`CertificateError`."""
    _require_kind(rec, "comparison", "comparison certificate")
    with _malformed("comparison certificate"):
        window = window_from_records(rec["window"])
        a = frozenset(window.parse_state(t) for t in rec["A"])
        b = frozenset(window.parse_state(t) for t in rec["B"])
        pieces = tuple(frozenset(window.parse_state(t) for t in ts) for ts in rec["pieces"])
        words = tuple(tuple(w) for w in rec["words"])
    letters = range(len(window.group.generators()))
    if any(type(g) is not int or g not in letters for w in words for g in w):
        raise CertificateError(f"word letters must be integers in 0..{len(letters) - 1}")
    if len(words) != len(pieces):
        raise CertificateError("piece and word counts differ")
    if not all(pieces):
        raise CertificateError("a piece is empty")
    _require_same(rec, _comparison_record(window, a, b, pieces, words))
    union = set().union(*pieces)
    if sum(len(p) for p in pieces) != len(union) or union != a:
        return False
    images: List[StateSet] = []
    for piece, word in zip(pieces, words):
        mover = (window.group.word_element(word),)
        images.append(frozenset(window.state_at(window.images(s, mover)[0]) for s in piece))
    covered: set[State] = set()
    for img in images:
        if not img <= b:
            return False
        if img & covered:
            return False
        covered |= img
    return True


# --------------------------------------------------------------------------
# castles and their audit


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
    fresh = audit_castle(castle, gamma, window, budget)
    _require_same(rec, fresh)
    return fresh.get("ok", False)


# --------------------------------------------------------------------------
# the assembled negative report


def non_af_report(certificate: dict) -> dict:
    """Assemble the castle-obstruction report from a valid criterion
    certificate: a lower ``bound`` on the stage fraction, on the tolerance
    schedule a lower bound on the limit, and the tolerance threshold below
    which no castle for the first lamp generator can exist.

    Each record certifies its level fraction f_i >= 1 - eps_i > 0, and the
    stage fraction is the product of the f_i.  Off the schedule the bound is
    the epsilon product prod(1 - eps_i); a continuation can push the limit
    to 0, so the report certifies the finite stage only.  On the schedule
    eps_i = 2^-(i+2) the bound is 1 - sum(eps_i) = 1/2 + 2^-(n+1) for the n
    window elements, by the Weierstrass product inequality prod(1 - eps_i)
    >= 1 - sum(eps_i); every later level keeps a fraction of at least
    1 - eps_i too, so the same inequality bounds the limit below by 1/2.

    The report embeds ``certificate`` itself under ``"criterion"`` and a copy
    of its window under ``"window"``."""
    if certificate["verdict"] != "valid":
        raise CertificateError("criterion certificate is not valid")
    window = certificate["window"]
    epsilons = [Fraction(dat["epsilon"]) for dat in window]
    on_schedule = epsilons == [default_epsilon(i) for i in range(len(epsilons))]
    if on_schedule:
        bound, limit = frac_str(1 - sum(epsilons, Fraction(0))), "1/2"
    else:
        bound, limit = frac_str(prod((1 - eps for eps in epsilons), start=Fraction(1))), None

    def pick(on, off):
        return on if on_schedule else off

    chain = [
        {
            "step": "stage-bound",
            "statement": "each record certifies a level fraction of at least 1 - eps_i, and a "
            "window state is fixed by every lamp generator exactly when each of its level "
            "states is, so the stage fraction is at least the product of the (1 - eps_i)"
            + pick(
                ", which by the Weierstrass product inequality is at least the bound "
                "1 - sum(eps_i) = 1/2 + 2^-(n+1) for the n window elements",
                ", the bound",
            ),
            "value": bound,
        },
        {
            "step": "positivity",
            "statement": "the bound is positive",
            "lhs": bound,
            "rel": ">",
            "rhs": "0/1",
        },
        {
            "step": "limit-bound",
            "statement": pick(
                "the tolerances follow the schedule 2^-(i+2), so every level i, of the "
                "window or later, keeps a fraction of at least 1 - 2^-(i+2), and by the "
                "Weierstrass product inequality the limit measure of the set fixed by every "
                "lamp generator is at least 1 - (sum over i >= 0 of 2^-(i+2)) = 1/2",
                "the tolerances do not follow the schedule 2^-(i+2), so later levels may push "
                "the limit measure to 0: no bound on the limit is certified",
            ),
            "lhs": limit,
            "rel": pick(">", None),
            "rhs": pick("0/1", None),
        },
        {
            "step": "castle-obstruction",
            "statement": pick(
                "a well-formed castle of the limit action whose shapes all have defect below "
                "the limit lower bound for the inverse of the first lamp generator would "
                "contradict the fixed-set inequality",
                "a well-formed castle of this finite stage whose shapes all have defect below "
                "the bound for the inverse of the first lamp generator would contradict the "
                "fixed-set inequality",
            ),
            "threshold": pick(limit, bound),
        },
    ]
    conclusion = pick(
        "no castle tolerance below the limit lower bound is achievable: "
        "the limit action is not almost finite",
        "this report certifies the finite stage only: no castle of the stage has every "
        "defect below the bound, and nothing is claimed about the limit action",
    )
    return {
        "kind": "non-af-report",
        "v": SCHEMA_VERSION,
        "window": deepcopy(window),
        "bound": bound,
        "limit_lower_bound": limit,
        "chain": chain,
        "conclusion": conclusion,
        "criterion": certificate,
    }


def check_non_af_report(rec: dict) -> bool:
    """Verify a serialized report: the embedded criterion certificate must
    rebuild as valid, and the whole report must serialize exactly as the
    report assembled from that rebuild."""
    _require_kind(rec, "non-af-report", "non-almost-finiteness report")
    fresh = _rebuild_criterion(rec.get("criterion"))
    if fresh["verdict"] != "valid":
        return False
    _require_same(rec, non_af_report(fresh))
    return True
