"""The comparison kind: a certificate that moves a state subset A disjointly
into a larger B by the atoms of the algebra that the translates of A and B
generate, with its verifier :func:`check_comparison_certificate`.  The
record helpers are those of :mod:`allostery.certificates`; the producer
calls the atoms and the verifier through their names there, which the
benchmark's trace wraps.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from . import certificates
from .certificates import (
    SCHEMA_VERSION, _malformed, _require_kind, _require_same, window_from_records,
)
from .dynamics import DEFAULT_STATE_BUDGET, State, StateSet, Window, _bfs
from .errors import BudgetExceededError, CertificateError, MeasureConditionError
from .wreath import Word


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
    atoms = certificates.boolean_atoms([a_idx, b_idx], [perm for _, perm in steps])
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
    if not certificates.check_comparison_certificate(cert):
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
