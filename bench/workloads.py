"""Seeded inputs and command lines for the benchmark's workloads.

Each workload turns a seed into input files under a work directory and a
list of operations.  An operation is a producing ``allostery`` command and
the ``--check`` of what it printed; the program sees only the files and
arguments made here.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

GAMMA = "{(0):(1)};(0)"
HALF = Fraction(1, 2)

# W81: one level forged for GAMMA at p=3 (81 states).
W81_LEVELS = ((GAMMA, 3),)
# W7200: levels for GAMMA at p=2, {};(1) at p=3 and {};(-1) at p=5 (32*9*25 states).
W7200_LEVELS = ((GAMMA, 2), ("{};(1)", 3), ("{};(-1)", 5))

# Random A (3 states) and B (7 states) of W81 have between 6,804 and 183,708
# translates, and compare time follows the count (0.3 s to 16 s).  The
# workload keeps only CLI seeds at the most common count, 3^10 + 3^7, so
# runs with different benchmark seeds do the same amount of work.
COMPARE_A, COMPARE_B = 3, 7
COMPARE_TRANSLATES = 61236
COMPARE_INPUTS = 3
# About one CLI seed in five has that count.
COMPARE_CANDIDATES = 100

CASTLE_TOWERS = 4


@dataclass(frozen=True)
class Op:
    """A producing command, the subcommand that checks its output, and a
    note on the input's size."""

    produce: Tuple[str, ...]
    checker: str
    note: str

    def check(self, cert_path: str) -> List[str]:
        return [self.checker, "--check", cert_path]


def write_window(path: Path, levels: Sequence[Tuple[str, int]]) -> list:
    """Forge one datum per (element, prime) at epsilon 1/2 and write the
    window file; returns the data."""
    from allostery import WreathGroup, forge

    group = WreathGroup(1, 1)
    data = [forge(group.parse_element(text), p, HALF, 1, 1) for text, p in levels]
    path.write_text(json.dumps([dat.to_dict() for dat in data]), encoding="utf-8")
    return data


def flat_permutations(window) -> List[List[int]]:
    """Each generator's action on flat window state indices."""
    perms = []
    for g in range(len(window.group.generators())):
        tables = window.tables(g)
        perms.append(
            [
                window.flat_index(tuple(tab[i] for tab, i in zip(tables, window.state_at(k))))
                for k in range(window.size)
            ]
        )
    return perms


def set_orbit_size(
    perms: Sequence[Sequence[int]], members: Sequence[int], cap: int
) -> Optional[int]:
    """Number of distinct translates of a state set under the group the
    permutations generate, or None once it exceeds cap.  Sets are sorted
    bytes, so at most 256 states."""
    tables = [bytes(p) + bytes(256 - len(p)) for p in perms]
    start = bytes(sorted(members))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for table in tables:
                img = bytes(sorted(s.translate(table)))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        if len(seen) > cap:
            return None
        frontier = nxt
    return len(seen)


def random_spec_indices(size: int, cli_seed: int) -> Tuple[List[int], List[int]]:
    """The flat indices ``compare --a random:3 --b random:7 --seed S`` picks:
    both drawn with ``random.Random(S).sample(range(size), k)``, A first."""
    rng = random.Random(cli_seed)
    return rng.sample(range(size), COMPARE_A), rng.sample(range(size), COMPARE_B)


def compare_translates(perms, size: int, cli_seed: int, cap: int) -> Optional[int]:
    """Translate count of {A, B} for one CLI seed, or None above cap.  Sets
    of different sizes are never translates of each other, so the count is
    the sum of the two orbit sizes."""
    a, b = random_spec_indices(size, cli_seed)
    n_a = set_orbit_size(perms, a, cap)
    if n_a is None:
        return None
    n_b = set_orbit_size(perms, b, cap - n_a)
    return None if n_b is None else n_a + n_b


def criterion_inputs(work: Path, seed: int) -> List[Op]:
    """The ball of radius 2 in Z wr Z is fixed, so the seed changes nothing."""
    return [Op(("report", "--radius", "2", "--epsilon", "1/2"), "report", "16 window elements")]


def compare_inputs(work: Path, seed: int) -> List[Op]:
    from allostery import Window

    w81 = work / "W81.json"
    window = Window(write_window(w81, W81_LEVELS))
    perms = flat_permutations(window)
    rng = random.Random(seed)
    ops = []
    for _ in range(COMPARE_CANDIDATES):
        cli_seed = rng.randrange(2**31)
        count = compare_translates(perms, window.size, cli_seed, COMPARE_TRANSLATES)
        if count != COMPARE_TRANSLATES:
            continue
        ops.append(
            Op(
                ("compare", "--window", w81.name, "--a", f"random:{COMPARE_A}",
                 "--b", f"random:{COMPARE_B}", "--seed", str(cli_seed)),
                "compare",
                f"CLI seed {cli_seed}: {count} translates",
            )
        )
        if len(ops) == COMPARE_INPUTS:
            return ops
    raise RuntimeError(f"no {COMPARE_INPUTS} of {COMPARE_CANDIDATES} CLI seeds hit the count")


def castle_lines(window, rng: random.Random) -> Tuple[List[str], int]:
    """A Schreier transversal from a random start state, shuffled and split
    into towers over that one base state, as dotted words; also returns
    the total number of letters."""
    start = window.state_at(rng.randrange(window.size))
    orbit = window.orbit(start)
    if orbit.size != window.size:
        raise RuntimeError("window is not transitive; no castle covers it")
    words = [orbit.words[s] for s in orbit.order]
    rng.shuffle(words)
    per_tower = -(-len(words) // CASTLE_TOWERS)
    base = window.state_text(start)
    lines = []
    for t in range(CASTLE_TOWERS):
        chunk = words[t * per_tower : (t + 1) * per_tower]
        lines.append(f"V= {base} ; S= " + " ".join(window.group.word_name(w) for w in chunk))
    return lines, sum(len(w) for w in words)


def audit_inputs(work: Path, seed: int) -> List[Op]:
    from allostery import Window

    w7200 = work / "W7200.json"
    window = Window(write_window(w7200, W7200_LEVELS))
    lines, letters = castle_lines(window, random.Random(seed))
    castle = work / "castle.txt"
    castle.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [
        Op(
            ("audit", castle.name, "--window", w7200.name, "--gamma", GAMMA),
            "audit",
            f"{window.size} shapes, {letters} letters",
        )
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: Callable[[Path, int], List[Op]]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "criterion",
            "report --radius 2 --epsilon 1/2 and its check: level generator tables and brute "
            "fixed points in dynamics do almost all the work",
            criterion_inputs,
        ),
        Workload(
            "compare",
            "compare on W81 with random A, B at 61,236 translates and its check: translate "
            "closure, atoms and transporter BFS in certificates; level tables are trivial",
            compare_inputs,
        ),
        Workload(
            "audit",
            "audit of a 7,200-shape seeded castle on W7200 and its check: wreath word "
            "arithmetic and per-element Window.prepare(x).apply, not generator tables",
            audit_inputs,
        ),
    )
}
