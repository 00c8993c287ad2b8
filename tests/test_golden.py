"""Stdout of fixed CLI commands, byte for byte, against files in tests/golden/.

The window files are forged afresh for each run; the castle files are kept
in tests/golden/ next to the outputs.  To regenerate after a deliberate and
documented change of output, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import gc
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from allostery import Window, WreathGroup, check_castle_audit, forge, parse_castle_file
from allostery.errors import CertificateError
from allostery.cli import main

from oracle import fixed_states, window_states

GOLDEN = Path(__file__).parent / "golden"
CASTLE = GOLDEN / "castle_w288.txt"
FIBERS = GOLDEN / "castle_w288_fibers.txt"
OVERLAP = GOLDEN / "castle_w288_overlap.txt"
GAMMA = "{(0):(1)};(0)"

# name -> (arguments, exit code); W81, W288, W7200, CASTLE, FIBERS and OVERLAP stand for input paths,
# FIXED48 and MOVED for the state specs of :func:`block_specs`.
CASES = {
    "verify": (("verify",), 0),
    "report_radius2": (("report", "--radius", "2", "--epsilon", "1/2"), 0),
    "report_schedule": (("report",), 0),
    "verify_d2m2": (("verify", "--d", "2", "--m", "2", "--epsilon", "1/2"), 0),
    "compare_w81": (
        ("compare", "--window", "W81", "--a", "random:2", "--b", "random:5", "--seed", "3"),
        0,
    ),
    "compare_w288_blocks": (
        ("compare", "--window", "W288", "--a", "FIXED48", "--b", "MOVED"),
        0,
    ),
    "compare_w7200": (
        ("compare", "--window", "W7200", "--a", "random:5", "--b", "random:11", "--seed", "7"),
        0,
    ),
    "audit_w288": (("audit", "CASTLE", "--window", "W288", "--gamma", GAMMA), 0),
    "audit_w288_fibers": (("audit", "FIBERS", "--window", "W288", "--gamma", GAMMA), 0),
    "audit_w288_overlap": (("audit", "OVERLAP", "--window", "W288", "--gamma", GAMMA), 1),
}


def forge_windows():
    group = WreathGroup(1, 1)
    half = Fraction(1, 2)
    d81 = forge(group.parse_element(GAMMA), 3, half, 1, 1)
    d32 = forge(group.parse_element(GAMMA), 2, half, 1, 1)
    d9 = forge(group.parse_element("{};(1)"), 3, half, 1, 1)
    d25 = forge(group.parse_element("{};(-1)"), 5, half, 1, 1)
    return {"W81": Window([d81]), "W288": Window([d32, d9]), "W7200": Window([d32, d9, d25])}


def transversal_castle_text(window):
    """One tower over the identity thread whose shapes are the Schreier
    transversal words, in BFS order: the castle of conftest's
    ``make_transversal_castle`` as a castle file."""
    orb = window.orbit(window.identity_thread())
    names = " ".join(window.group.word_name(orb.words[s]) for s in orb.order)
    return f"V= {window.state_text(orb.start)} ; S= {names}\n"


def fiber_castle_text(window):
    """Three towers whose bases are halves of the fiber over state 0 of the
    last level: the even lamp-level states carry every word of that level's
    Schreier transversal, and the odd ones carry its first five words in one
    tower and the other four in the next.  Every element acts bijectively on
    the first level, so a word carrying the last level's state 0 to q carries
    the fiber over 0 onto the fiber over q, and the translates tile."""
    last = Window(window.data[-1:])
    orb = last.orbit(last.identity_thread())
    words = [window.group.word_name(orb.words[s]) for s in orb.order]
    fiber = [s for s in window_states(window) if s[-1] == 0]
    even = " ".join(window.state_text(s) for s in fiber[0::2])
    odd = " ".join(window.state_text(s) for s in fiber[1::2])
    return "".join(
        f"V= {base} ; S= {' '.join(shapes)}\n"
        for base, shapes in ((even, words), (odd, words[:5]), (odd, words[5:]))
    )


def overlap_castle_text(window):
    """Two towers whose one shape ``e`` covers the identity thread: the
    second translate collides with the first, so the castle is malformed."""
    return f"V= {window.state_text(window.identity_thread())} ; S= e\n" * 2


def block_specs(window):
    """``idx:`` specs for the first 48 states GAMMA fixes and the states it
    moves; on W288 their atoms have 12 states each, so the comparison has
    multi-state pieces and multi-letter transporter words."""
    fixed = fixed_states(window, [window.group.parse_element(GAMMA)])
    fixed_idx = sorted(window.flat_index(s) for s in fixed)
    moved_idx = sorted(set(range(window.size)) - set(fixed_idx))
    return {
        "FIXED48": "idx:" + ",".join(map(str, fixed_idx[:48])),
        "MOVED": "idx:" + ",".join(map(str, moved_idx)),
    }


def write_inputs(directory):
    windows = forge_windows()
    paths = {"CASTLE": str(CASTLE), "FIBERS": str(FIBERS), "OVERLAP": str(OVERLAP)}
    paths.update(block_specs(windows["W288"]))
    for name, window in windows.items():
        path = Path(directory) / f"{name}.json"
        path.write_text(json.dumps([dat.to_dict() for dat in window.data]))
        paths[name] = str(path)
    return paths


def run_case(name, paths):
    args, _ = CASES[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([paths.get(a, a) for a in args])
    return code, out.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, paths):
    code, out = run_case(name, paths)
    assert code == CASES[name][1]
    assert out == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_passes_its_own_check(name):
    """Each golden is a certificate, not only the bytes of a past run: its
    command's ``--check`` reruns it and gives the verdict, and so the exit
    code, of the command that printed it (1 for the malformed castle)."""
    command = CASES[name][0][0]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([command, "--check", str(GOLDEN / f"{name}.out")]) == CASES[name][1]


def test_comparison_searches_once(paths, monkeypatch):
    """The four-piece block comparison runs one BFS, over the whole window,
    and reads every transporter word off its tree."""
    from allostery import certificates

    bfs, calls = certificates._bfs, []

    def counting(*args):
        calls.append(args[1:])
        return bfs(*args)

    monkeypatch.setattr(certificates, "_bfs", counting)
    code, out = run_case("compare_w288_blocks", paths)
    assert code == 0
    assert len(json.loads(out)["pieces"]) == 4
    assert calls == [(0, 288)]


def test_checking_an_audit_prints_only_gamma(monkeypatch):
    """The check takes the golden audit's shape texts as recorded, since
    each is canonical: of the elements it reads, only gamma is printed."""
    from allostery import certificates, wreath

    fmt, printed = wreath.format_element, []

    def counting(x):
        printed.append(fmt(x))
        return printed[-1]

    monkeypatch.setattr(wreath, "format_element", counting)
    monkeypatch.setattr(certificates, "format_element", counting)
    rec = json.loads((GOLDEN / "audit_w288.out").read_text())
    assert check_castle_audit(rec)
    assert printed == [rec["gamma"]]


# (canonical shape of the golden castle, the same element spelled otherwise)
RESPELLED_SHAPES = [
    ("{(0):(1)};(0)", "{(0):(01)};(0)"),
    ("{(0):(1)};(0)", "{(-0):(1)};(0)"),
    ("{(0):(1)};(0)", " {(0):(1)};(0) "),
    ("{(0):(2)};(0)", "{(0):(1),(0):(1)};(0)"),
    ("{(0):(1)};(0)", "{(0):(1),(1):(0)};(0)"),
    ("{(-4):(1),(-3):(1),(-1):(-1)};(-4)", "{(-3):(1),(-4):(1),(-1):(-1)};(-4)"),
]


@pytest.mark.parametrize("canonical, respelled", RESPELLED_SHAPES)
def test_a_respelled_shape_fails_the_audit_check(canonical, respelled):
    """A shape text that is not canonical is read by the grammar and its
    tower's texts are printed afresh, so the record no longer serializes as
    the rerun."""
    rec = json.loads((GOLDEN / "audit_w288.out").read_text())
    shapes = rec["castle"]["towers"][0]["S"]
    shapes[shapes.index(canonical)] = respelled
    with pytest.raises(CertificateError, match="^recorded 'castle' disagrees with recomputation$"):
        check_castle_audit(rec)


# command -> its arguments at a small and a large input; W7200C stands for
# the W7200 transversal castle (7,200 shapes).
CYCLE_CASES = {
    "audit": (CASES["audit_w288"][0], ("audit", "W7200C", "--window", "W7200", "--gamma", GAMMA)),
    "compare": (CASES["compare_w81"][0], CASES["compare_w7200"][0]),
    "report": (("report", "--radius", "1", "--epsilon", "1/2"), CASES["report_radius2"][0]),
    "verify": (("verify", "--radius", "1"), ("verify", "--radius", "3")),
}


@pytest.mark.parametrize("command", sorted(CYCLE_CASES))
def test_a_command_leaves_the_same_few_cycles_whatever_its_input(command, paths, tmp_path):
    """What a command leaves for the cyclic collector does not grow with its
    input: a small and a large input leave the same small count, so pausing
    the collector while a command runs cannot make memory grow with input
    size."""
    big = tmp_path / "castle_w7200.txt"
    big.write_text(transversal_castle_text(forge_windows()["W7200"]))
    inputs = {**paths, "W7200C": str(big)}
    counts = []
    for args in CYCLE_CASES[command]:
        gc.collect()
        gc.disable()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert main([inputs.get(a, a) for a in args]) == 0
            counts.append(gc.collect())
        finally:
            gc.enable()
    assert counts[0] == counts[1] <= 1000


def test_castle_file_is_the_transversal_castle(w288):
    from conftest import make_transversal_castle

    text = CASTLE.read_text()
    assert transversal_castle_text(w288) == text
    assert parse_castle_file(text, w288) == make_transversal_castle(w288)


def test_fiber_castle_file_has_several_base_states_per_tower(w288):
    text = FIBERS.read_text()
    assert fiber_castle_text(w288) == text
    castle = parse_castle_file(text, w288)
    assert [(len(t.base), len(t.shapes)) for t in castle.towers] == [(16, 9), (16, 5), (16, 4)]


def test_overlap_castle_file_covers_the_identity_thread_twice(w288):
    text = OVERLAP.read_text()
    assert overlap_castle_text(w288) == text
    castle = parse_castle_file(text, w288)
    assert [t.base for t in castle.towers] == [frozenset({w288.identity_thread()})] * 2


def test_castle_with_no_castle_tails_parses_and_audits_the_same(w288, paths, tmp_path):
    """Every word of the transversal castle prefixed by ``t1.T1.``: the
    elements stay the same, but no word's tail is a castle word, so each is
    evaluated letter by letter.  The castle and the audit's stdout match the
    golden ones."""
    left, right = CASTLE.read_text().split("S=")
    words = ["t1.T1" + ("" if w == "e" else "." + w) for w in right.split()]
    prefixed = tmp_path / "prefixed.txt"
    prefixed.write_text(f"{left}S= {' '.join(words)}\n")
    golden = parse_castle_file(CASTLE.read_text(), w288)
    assert parse_castle_file(prefixed.read_text(), w288) == golden
    code, out = run_case("audit_w288", {**paths, "CASTLE": str(prefixed)})
    assert code == 0
    assert out == (GOLDEN / "audit_w288.out").read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    CASTLE.write_text(transversal_castle_text(forge_windows()["W288"]))
    FIBERS.write_text(fiber_castle_text(forge_windows()["W288"]))
    OVERLAP.write_text(overlap_castle_text(forge_windows()["W288"]))
    with tempfile.TemporaryDirectory() as tmp:
        inputs = write_inputs(tmp)
        for case in CASES:
            code, out = run_case(case, inputs)
            if code != CASES[case][1]:
                sys.exit(f"{case}: exit code {code}")
            (GOLDEN / f"{case}.out").write_bytes(out)
            print(case, len(out), "bytes")
