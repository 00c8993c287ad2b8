import copy
import gc
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from allostery import (
    Castle,
    audit_castle,
    build_criterion,
    non_af_report,
    parse_element,
    window_from_records,
)
from allostery import wreath
from allostery.cli import _build_parser, _check, _parse_args, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def w9_file(tmp_path, d9):
    path = tmp_path / "w9.json"
    path.write_text(json.dumps([d9.to_dict()]))
    return str(path)


@pytest.fixture()
def w288_file(tmp_path, d32, d9):
    path = tmp_path / "w288.json"
    path.write_text(json.dumps([d32.to_dict(), d9.to_dict()]))
    return str(path)


FULL_TOWER = "V= (0)|((0)) ; S= e s1 s1.s1 t1 t1.s1 t1.s1.s1 t1.t1 t1.t1.s1 t1.t1.s1.s1\n"


def test_forge_emits_datum(capsys, d32):
    code, out, err = run(
        capsys, "forge", "{(0):(1)};(0)", "--p", "2", "--epsilon", "1/2"
    )
    assert code == 0
    assert json.loads(out) == d32.to_dict()
    assert "index=32" in err


def test_forge_default_epsilon(capsys):
    code, out, _ = run(capsys, "forge", "{(0):(1)};(0)", "--p", "2")
    assert code == 0
    assert json.loads(out)["epsilon"] == "1/4"


def test_forge_malformed_inputs(capsys):
    assert run(capsys, "forge", "oops", "--p", "2")[0] == 2
    assert run(capsys, "forge", "{(0):(1)};(0)", "--p", "4")[0] == 2
    assert run(capsys, "forge", "{(0):(2)};(0)", "--p", "2")[0] == 2
    assert run(capsys, "forge", "{(0):(1)};(0)", "--p", "2", "--epsilon", "2")[0] == 2
    assert run(capsys, "forge", "{};(0)", "--p", "2")[0] == 2


def test_verify_ball_window(capsys):
    code, out, err = run(capsys, "verify", "--epsilon", "1/2")
    assert code == 0
    rec = json.loads(out)
    assert rec["verdict"] == "valid"
    assert [r["prime"] for r in rec["records"]] == [2, 3, 5, 7]
    assert [r["index"] for r in rec["records"]] == [32, 81, 25, 49]
    assert prod(Fraction(r["fixed_fraction"]) for r in rec["records"]) == Fraction(2, 5)
    assert rec["transitivity"]["method"] == "level-structure"
    assert "verdict valid" in err


def test_verify_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--epsilon", "1/2")
    _, second, _ = run(capsys, "verify", "--epsilon", "1/2")
    assert first == second


def test_verify_check_round_trip(capsys, tmp_path):
    _, out, _ = run(capsys, "verify", "--epsilon", "1/2")
    path = tmp_path / "criterion.json"
    path.write_text(out)
    assert run(capsys, "verify", "--check", str(path))[0] == 0
    rec = json.loads(out)
    rec["records"][0]["index"] = 64
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(rec))
    assert run(capsys, "verify", "--check", str(tampered))[0] == 2


def test_verify_check_invalid_certificate(capsys, tmp_path, d32):
    lowered = d32._replace(epsilon=Fraction(1, 8))
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(build_criterion([lowered])))
    code, _, err = run(capsys, "verify", "--check", str(path))
    assert code == 1
    assert "invalid" in err


def compare_288(capsys, w288_file, *flags):
    """The exit code of a comparison on W288.  It runs a BFS over all 288
    states, so it exits 2 exactly when the state budget is below 288."""
    argv = ("compare", "--window", w288_file, "--a", "idx:0", "--b", "idx:1,2") + flags
    return run(capsys, *argv)[0]


def test_verify_budget_env(capsys, monkeypatch, w288_file):
    monkeypatch.setenv("ALLOSTERY_BUDGET_STATES", "287")
    assert compare_288(capsys, w288_file) == 2
    monkeypatch.setenv("ALLOSTERY_BUDGET_STATES", "288")
    assert compare_288(capsys, w288_file) == 0
    monkeypatch.setenv("ALLOSTERY_BUDGET_STATES", "ten")
    assert compare_288(capsys, w288_file) == 2
    monkeypatch.setenv("ALLOSTERY_BUDGET_STATES", "-5")
    assert compare_288(capsys, w288_file) == 2


def test_env_wins_over_flag(capsys, monkeypatch, w288_file):
    monkeypatch.setenv("ALLOSTERY_BUDGET_STATES", "10")
    assert compare_288(capsys, w288_file, "--budget-states", "1000000") == 2
    monkeypatch.setenv("ALLOSTERY_BUDGET_STATES", "1000000")
    assert compare_288(capsys, w288_file, "--budget-states", "10") == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--epsilon", "1/2"),
        ("verify", "--radius", "2"),
        ("report", "--radius", "2"),
    ],
)
def test_criterion_output_ignores_the_budget(capsys, monkeypatch, tmp_path, argv):
    """A record made under a tiny budget is byte for byte the default one,
    and checks at the default budget."""
    monkeypatch.setenv("ALLOSTERY_BUDGET_STATES", "10")
    code, low, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.delenv("ALLOSTERY_BUDGET_STATES")
    assert run(capsys, *argv)[:2] == (0, low)
    path = tmp_path / "record.json"
    path.write_text(low)
    assert run(capsys, argv[0], "--check", str(path))[0] == 0


def test_verify_radius_past_the_ball_limit(capsys):
    code, _, err = run(capsys, "verify", "--radius", "9")
    assert (code, err) == (2, "error: ball radius budget exceeded: need 9, budget 8\n")


def test_simulate_csv(capsys, w288_file):
    code, out, _ = run(
        capsys, "simulate", "t1", "--window", w288_file, "--steps", "3"
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "step,state"
    assert rows[1] == "0,(0)|((0),(0))*(0)|((0))"
    assert rows[2] == "1,(1)|((0),(0))*(1)|((0))"
    assert len(rows) == 5


def test_simulate_element_text_and_datum(capsys, tmp_path, d9, w288_file):
    """A window file may hold one datum record, as forge prints it."""
    datum_path = tmp_path / "datum.json"
    datum_path.write_text(json.dumps(d9.to_dict()))
    code, out, _ = run(
        capsys, "simulate", "{};(1)", "--window", str(datum_path), "--steps", "3"
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "3,(0)|((0))"
    word_code, word_out, _ = run(
        capsys, "simulate", "t1", "--window", str(datum_path), "--steps", "3"
    )
    assert word_code == 0 and word_out == out


def test_compare_on_a_single_datum_file(capsys, tmp_path, d9, w9_file):
    datum_path = tmp_path / "datum.json"
    datum_path.write_text(json.dumps(d9.to_dict()))
    argv = ("--a", "idx:0", "--b", "idx:3,6")
    code, out, _ = run(capsys, "compare", "--window", str(datum_path), *argv)
    assert code == 0
    assert out == run(capsys, "compare", "--window", w9_file, *argv)[1]


def test_simulate_window_from_certificate(capsys, tmp_path):
    _, out, _ = run(capsys, "verify", "--epsilon", "1/2")
    path = tmp_path / "criterion.json"
    path.write_text(out)
    code, csv_out, _ = run(
        capsys, "simulate", "s1", "--window", str(path), "--steps", "1"
    )
    assert code == 0
    assert csv_out.splitlines()[0] == "step,state"
    assert csv_out.count("*") == 2 * 3  # two rows, four factors each


def test_simulate_malformed(capsys, w288_file):
    assert run(capsys, "simulate", "t1")[0] == 2
    assert run(capsys, "simulate", "zap", "--window", w288_file)[0] == 2
    assert run(capsys, "simulate", "t1", "--window", w288_file, "--steps", "-1")[0] == 2
    assert run(capsys, "simulate", "t1", "--window", "/no/such/file")[0] == 2


def test_compare_by_indices(capsys, w9_file):
    code, out, err = run(
        capsys, "compare", "--window", w9_file, "--a", "idx:0", "--b", "idx:3,6"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["kind"] == "comparison"
    assert rec["words"] == [[2]]
    assert "1 pieces" in err


def test_compare_random_deterministic(capsys, w9_file):
    args = ("compare", "--window", w9_file, "--a", "random:2", "--b", "random:4", "--seed", "5")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert json.loads(first)["kind"] == "comparison"


def test_compare_check_round_trip(capsys, tmp_path, w9_file):
    _, out, _ = run(
        capsys, "compare", "--window", w9_file, "--a", "idx:0,1", "--b", "idx:3,4,6"
    )
    path = tmp_path / "comparison.json"
    path.write_text(out)
    assert run(capsys, "compare", "--check", str(path))[0] == 0
    rec = json.loads(out)
    rec["B"] = rec["B"][:1]
    path.write_text(json.dumps(rec))
    assert run(capsys, "compare", "--check", str(path))[0] == 1


def test_compare_check_bad_word_letter(capsys, tmp_path, w9_file):
    _, out, _ = run(
        capsys, "compare", "--window", w9_file, "--a", "idx:0,1", "--b", "idx:3,4,6"
    )
    path = tmp_path / "comparison.json"
    for letter in (99, -1):
        rec = json.loads(out)
        rec["words"][0] = [letter]
        path.write_text(json.dumps(rec))
        code, _, err = run(capsys, "compare", "--check", str(path))
        assert code == 2
        assert "error:" in err


def test_compare_malformed(capsys, w9_file):
    assert run(capsys, "compare", "--window", w9_file)[0] == 2
    assert (
        run(capsys, "compare", "--window", w9_file, "--a", "idx:0,1", "--b", "idx:2,3")[0]
        == 2
    )
    assert (
        run(capsys, "compare", "--window", w9_file, "--a", "zap:1", "--b", "idx:2")[0] == 2
    )
    assert (
        run(capsys, "compare", "--window", w9_file, "--a", "idx:99", "--b", "idx:2")[0]
        == 2
    )
    assert (
        run(capsys, "compare", "--window", w9_file, "--a", "random:0", "--b", "idx:2")[0]
        == 2
    )


def test_compare_refuses_a_non_transitive_window(capsys, tmp_path, d32):
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps([d32.to_dict(), d32.to_dict()]))
    code, out, err = run(
        capsys, "compare", "--window", str(path), "--a", "idx:0", "--b", "idx:1,2"
    )
    assert code == 2
    assert out == ""
    assert "comparison requires a transitive window" in err


def test_audit_full_tower(capsys, tmp_path, w9_file):
    castle_path = tmp_path / "castle.txt"
    castle_path.write_text(FULL_TOWER)
    code, out, err = run(
        capsys,
        "audit",
        str(castle_path),
        "--window",
        w9_file,
        "--gamma",
        "{(0):(1)};(0)",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["kind"] == "castle-audit"
    assert rec["fix_measure"] == "2/3"
    assert rec["inequality_ok"] is True
    assert "fix measure 2/3" in err


def test_audit_tolerance(capsys, tmp_path, w9_file):
    castle_path = tmp_path / "castle.txt"
    castle_path.write_text(FULL_TOWER)
    code, out, _ = run(
        capsys,
        "audit",
        str(castle_path),
        "--window",
        w9_file,
        "--gamma",
        "{(0):(1)};(0)",
        "--tolerance",
        "2",
    )
    assert code == 0
    assert json.loads(out)["defects_within_epsilon"] is True
    tight_code, tight_out, _ = run(
        capsys,
        "audit",
        str(castle_path),
        "--window",
        w9_file,
        "--gamma",
        "{(0):(1)};(0)",
        "--tolerance",
        "1/2",
    )
    assert tight_code == 1
    assert json.loads(tight_out)["defects_within_epsilon"] is False


def _audit_with_tolerance(capsys, tmp_path, w9_file, tolerance):
    castle_path = tmp_path / "castle.txt"
    castle_path.write_text(FULL_TOWER)
    return run(
        capsys, "audit", str(castle_path), "--window", w9_file,
        "--gamma", "{(0):(1)};(0)", f"--tolerance={tolerance}",
    )


@pytest.mark.parametrize("tolerance", ["0", "-1", "0/3", "-1/2"])
def test_audit_rejects_a_tolerance_that_is_not_positive(capsys, tmp_path, w9_file, tolerance):
    code, out, err = _audit_with_tolerance(capsys, tmp_path, w9_file, tolerance)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "tolerance must be positive" in err


@pytest.mark.parametrize("tolerance", ["0", "-1"])
def test_audit_check_rejects_a_recorded_tolerance_that_is_not_positive(
    capsys, tmp_path, w9_file, tolerance
):
    _, out, _ = _audit_with_tolerance(capsys, tmp_path, w9_file, "2")
    rec = json.loads(out)
    rec["castle"]["epsilon"] = rec["epsilon"] = tolerance
    path = tmp_path / "record.json"
    path.write_text(json.dumps(rec))
    code, out, err = run(capsys, "audit", "--check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "tolerance must be positive" in err


def test_audit_says_the_tolerance_verdict(capsys, tmp_path, w9_file):
    """With a tolerance the stderr line states its verdict, so that exit 1
    never follows a bare "ok"."""
    code, _, err = _audit_with_tolerance(capsys, tmp_path, w9_file, "2")
    assert code == 0
    assert err == "audit: fix measure 2/3 <= bound 14/9: ok; defects below tolerance 2/1: ok\n"
    code, _, err = _audit_with_tolerance(capsys, tmp_path, w9_file, "1/2")
    assert code == 1
    assert err.endswith("; defects below tolerance 1/2: EXCEEDED\n")


def test_audit_overlap_reports_witness(capsys, tmp_path, w9_file):
    castle_path = tmp_path / "overlap.txt"
    castle_path.write_text("V= (0)|((0)) ; S= e\nV= (0)|((0)) ; S= e\n")
    code, out, err = run(
        capsys,
        "audit",
        str(castle_path),
        "--window",
        w9_file,
        "--gamma",
        "{};(1)",
    )
    assert code == 1
    rec = json.loads(out)
    assert rec["well_formed"] is False
    assert rec["witness"]["state"] == "(0)|((0))"
    assert "malformed" in err


def test_audit_check_round_trip(capsys, tmp_path, w9_file):
    castle_path = tmp_path / "castle.txt"
    castle_path.write_text(FULL_TOWER)
    _, out, _ = run(
        capsys,
        "audit",
        str(castle_path),
        "--window",
        w9_file,
        "--gamma",
        "{(0):(1)};(0)",
    )
    audit_path = tmp_path / "audit.json"
    audit_path.write_text(out)
    assert run(capsys, "audit", "--check", str(audit_path))[0] == 0


def test_audit_malformed(capsys, tmp_path, w9_file):
    castle_path = tmp_path / "castle.txt"
    castle_path.write_text(FULL_TOWER)
    assert run(capsys, "audit", str(castle_path), "--window", w9_file)[0] == 2
    assert (
        run(
            capsys,
            "audit",
            str(castle_path),
            "--window",
            w9_file,
            "--gamma",
            "{};(0)",
        )[0]
        == 2
    )
    broken = tmp_path / "broken.txt"
    broken.write_text("V= (0)|((0))\n")
    assert (
        run(capsys, "audit", str(broken), "--window", w9_file, "--gamma", "{};(1)")[0]
        == 2
    )


def test_report_json_and_check(capsys, tmp_path):
    code, out, err = run(capsys, "report", "--epsilon", "1/2")
    assert code == 0
    rec = json.loads(out)
    assert rec["kind"] == "non-af-report"
    assert rec["bound"] == "1/16"
    assert "bound 1/16" in err
    path = tmp_path / "report.json"
    path.write_text(out)
    assert run(capsys, "report", "--check", str(path))[0] == 0


@pytest.mark.parametrize("command", ["verify", "report"])
def test_default_schedule_at_radius_4_is_plain_json(tmp_path, command):
    """No field holds a whole-window product, so at radius 4 the output of
    an interpreter with the default digit limit holds no integer of more
    than 1,000 digits, a stock json.loads reads it, and --check accepts it."""
    done = _cli_process(command, "--radius", "4")
    assert done.returncode == 0, done.stderr
    assert max(map(len, re.findall(r"\d+", done.stdout))) <= 1000
    rec = json.loads(done.stdout)
    assert "orbit_size" not in rec.get("criterion", rec)["transitivity"]
    path = tmp_path / f"{command}.json"
    path.write_text(done.stdout)
    checked = _cli_process(command, "--check", str(path))
    assert (checked.returncode, checked.stdout) == (0, "")
    assert checked.stderr.endswith(": valid\n")


@pytest.mark.parametrize("flags", [("--radius", "2"), ("--d", "2", "--m", "2"), ("--radius", "3")])
def test_default_schedule_is_valid_past_the_budget(capsys, flags):
    code, out, _ = run(capsys, "verify", *flags)
    assert code == 0
    rec = json.loads(out)
    assert rec["verdict"] == "valid"
    assert rec["transitivity"]["method"] == "level-structure"
    assert any(r["index"] > 10**6 for r in rec["records"])
    assert all(r["count_ok"] for r in rec["records"])


def test_scheduled_report_claims_the_limit(capsys, tmp_path):
    code, out, err = run(capsys, "report", "--radius", "2")
    assert code == 0
    rec = json.loads(out)
    assert Fraction(rec["bound"]) == Fraction(1, 2) + Fraction(1, 2**17)
    assert rec["limit_lower_bound"] == "1/2"
    assert rec["chain"][3]["threshold"] == rec["limit_lower_bound"]
    assert "the limit action is not almost finite" in err
    path = tmp_path / "report.json"
    path.write_text(out)
    assert run(capsys, "report", "--check", str(path))[0] == 0


def test_report_markdown(capsys):
    code, out, _ = run(capsys, "report", "--epsilon", "1/2", "--format", "md")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "| gamma | prime | index | fixed fraction | lower bound |"
    assert any("| 2 | 32 |" in line for line in lines)
    assert "Window bound: **1/16**; limit lower bound: **none**" in out


def test_report_out_directory(capsys, tmp_path):
    out_dir = tmp_path / "results"
    code, out, _ = run(capsys, "report", "--epsilon", "1/2", "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "report.json").exists()
    assert (out_dir / "report.md").exists()
    assert str(out_dir / "report.json") in out
    rec = json.loads((out_dir / "report.json").read_text())
    assert rec["bound"] == "1/16"


def test_config_file(capsys, tmp_path, w288_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sample configuration\n"
        "d = 1\n"
        "m = 1\n"
        "radius = 1\n"
        "epsilon = 1/2\n"
        "budget_states = 500000\n"
    )
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["verdict"] == "valid"
    assert compare_288(capsys, w288_file, "--config", str(cfg)) == 0
    assert compare_288(capsys, w288_file, "--config", str(cfg), "--budget-states", "10") == 2
    small = tmp_path / "small.cfg"
    small.write_text("budget_states = 100\n")
    assert compare_288(capsys, w288_file, "--config", str(small)) == 2
    assert compare_288(capsys, w288_file, "--config", str(small), "--budget-states", "288") == 0


def test_config_file_errors(capsys, tmp_path):
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("zap = 1\n")
    assert run(capsys, "verify", "--config", str(unknown))[0] == 2
    bad_int = tmp_path / "badint.cfg"
    bad_int.write_text("radius = much\n")
    assert run(capsys, "verify", "--config", str(bad_int))[0] == 2
    bad_eps = tmp_path / "badeps.cfg"
    bad_eps.write_text("epsilon = sometimes\n")
    assert run(capsys, "verify", "--config", str(bad_eps))[0] == 2
    assert run(capsys, "verify", "--config", str(tmp_path / "missing.cfg"))[0] == 2


def test_missing_check_file(capsys):
    assert run(capsys, "verify", "--check", "/no/such/file.json")[0] == 2


def test_unknown_format_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["report", "--format", "xml"])
    assert info.value.code == 2
    capsys.readouterr()


def _window_with(tmp_path, datum, **changes):
    rec = datum.to_dict()
    for key, value in changes.items():
        if value is None:
            del rec[key]
        else:
            rec[key] = value
    path = tmp_path / "window.json"
    path.write_text(json.dumps([rec]))
    return str(path)


def test_compare_rejects_datum_violating_invariants(capsys, tmp_path, d81):
    # l must exceed the support size of gamma = {(0):(1)};(0), which is 1.
    window = _window_with(tmp_path, d81, l=1)
    code, out, err = run(capsys, "compare", "--window", window, "--a", "idx:0", "--b", "idx:1,2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_window_file_missing_key(capsys, tmp_path, d81):
    window = _window_with(tmp_path, d81, l=None)
    code, out, err = run(capsys, "compare", "--window", window, "--a", "idx:0", "--b", "idx:1,2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"E": [[0], [0]]}, "E must hold exactly l distinct residues"),
        ({"p": 3.0}, "p, k, l, d, m and the entries of E must be integers"),
    ],
    ids=["repeated-residue", "float-p"],
)
def test_a_broken_datum_names_the_file_and_the_record(capsys, tmp_path, d81, changes, message):
    window = _window_with(tmp_path, d81, **changes)
    code, out, err = run(capsys, "compare", "--window", window, "--a", "idx:0", "--b", "idx:1,2")
    assert (code, out) == (2, "")
    assert err == f"error: {window}: window record 0: {message}\n"


def test_check_of_a_directory(capsys, tmp_path):
    code, out, err = run(capsys, "report", "--check", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def _malformed_check(capsys, tmp_path, command, rec):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(rec))
    code, out, err = run(capsys, command, "--check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["verify", "compare", "audit", "report"])
def test_check_of_a_list(capsys, tmp_path, command):
    _malformed_check(capsys, tmp_path, command, [])


def test_report_check_with_a_number_for_criterion(capsys, tmp_path, d32, d9):
    rec = json.loads(json.dumps(non_af_report(build_criterion([d32, d9]))))
    rec["criterion"] = 5
    _malformed_check(capsys, tmp_path, "report", rec)


def test_verify_check_with_a_number_for_gamma(capsys, tmp_path, d32, d9):
    rec = copy.deepcopy(build_criterion([d32, d9]))
    rec["window"][1]["gamma"] = 7
    _malformed_check(capsys, tmp_path, "verify", rec)


def _audit_record(capsys, tmp_path, w9_file):
    castle_path = tmp_path / "castle.txt"
    castle_path.write_text(FULL_TOWER)
    _, out, _ = run(
        capsys, "audit", str(castle_path), "--window", w9_file, "--gamma", "{(0):(1)};(0)"
    )
    return json.loads(out)


# A castle on W9 whose first shape has two lamp entries; each pair below is
# a canonical shape text of it and another spelling of the same element.
TWO_ENTRY_TOWER = FULL_TOWER.replace("S= e ", "S= s1.t1.t1.t1.S1.T1.T1.T1 ")
RESPELLINGS = [
    ("{(1):(1)};(1)", "{(01):(1)};(1)"),
    ("{(1):(1)};(1)", "{(1):(01)};(1)"),
    ("{(0):(1)};(0)", "{(-0):(1)};(0)"),
    ("{};(1)", "{(0):(-0)};(1)"),
    ("{(0):(1)};(0)", " {(0):(1)};(0)"),
    ("{(0):(1),(3):(-1)};(0)", "{(3):(-1),(0):(1)};(0)"),
    ("{(0):(1)};(0)", "{(0):(2),(0):(-1)};(0)"),
    ("{(0):(1)};(0)", "{(0):(1),(1):(0)};(0)"),
]


@pytest.mark.parametrize("canonical, respelled", RESPELLINGS)
def test_audit_check_rejects_a_shape_in_another_spelling(
    capsys, tmp_path, w9_file, canonical, respelled
):
    """The rebuilt castle prints every shape canonically, so a record that
    spells a shape another way is rejected, though it names the same
    element."""
    castle_path = tmp_path / "castle.txt"
    castle_path.write_text(TWO_ENTRY_TOWER)
    code, out, _ = run(
        capsys, "audit", str(castle_path), "--window", w9_file, "--gamma", "{(0):(1)};(0)"
    )
    assert code == 0
    rec = json.loads(out)
    shapes = rec["castle"]["towers"][0]["S"]
    assert parse_element(respelled) == parse_element(canonical)
    shapes[shapes.index(canonical)] = respelled
    wreath.format_vec.cache_clear()  # the check starts cold, as in a fresh process
    wreath._canonical_vec.cache_clear()
    _malformed_check(capsys, tmp_path, "audit", rec)


@pytest.mark.parametrize("where", ["shape", "gamma"])
def test_audit_check_of_a_number_past_the_digit_limit(
    capsys, tmp_path, w9_file, where, default_digit_limit
):
    """A 5,000-digit number in a recorded element is a malformed record,
    reported as such, not the interpreter's integer-to-text limit."""
    rec = _audit_record(capsys, tmp_path, w9_file)
    big = "{(0):(1)};(" + "1" * 5000 + ")"
    if where == "gamma":
        rec["gamma"] = big
    else:
        rec["castle"]["towers"][0]["S"][1] = big
    path = tmp_path / "big.json"
    path.write_text(json.dumps(rec))
    code, out, err = run(capsys, "audit", "--check", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: malformed castle audit: number longer than 4300 digits\n"


@pytest.mark.parametrize("where", ["window", "check"])
def test_a_json_number_past_the_digit_limit_names_the_file(
    capsys, tmp_path, d9, w9_file, where, default_digit_limit
):
    """A 5,000-digit integer in a window file given to audit, or in a record
    given to audit --check, is a parse error that names the file, not the
    interpreter's bare integer-to-text message."""
    path = tmp_path / "big.json"
    if where == "window":
        rec = window = [d9.to_dict()]
        castle_path = tmp_path / "castle.txt"
        castle_path.write_text(FULL_TOWER)
        argv = (str(castle_path), "--window", str(path), "--gamma", "{(0):(1)};(0)")
    else:
        rec = _audit_record(capsys, tmp_path, w9_file)
        window = rec["window"]
        argv = ("--check", str(path))
    window[0]["k"] = "BIG"
    text = json.dumps(rec).replace('"BIG"', "9" * 5000)
    path.write_text(text)
    with pytest.raises(ValueError) as interpreter:
        json.loads(text)
    code, out, err = run(capsys, "audit", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: {interpreter.value}\n"
    assert "Exceeds the limit (4300 digits)" in err


@pytest.mark.parametrize(
    "command, kind",
    [
        ("verify", "criterion certificate"),
        ("report", "criterion certificate"),
        ("compare", "comparison certificate"),
        ("audit", "castle audit"),
    ],
)
def test_a_broken_datum_in_a_checked_record(capsys, tmp_path, w9_file, command, kind):
    """A window record that breaks a datum invariant makes every checker
    say that its record is malformed, naming the file, the record and the
    invariant, and exit 2."""
    argv = {
        "verify": ("verify",),
        "report": ("report", "--epsilon", "1/2"),
        "compare": ("compare", "--window", w9_file, "--a", "idx:0,1", "--b", "idx:3,4,6"),
    }
    if command == "audit":
        rec = _audit_record(capsys, tmp_path, w9_file)
    else:
        rec = json.loads(run(capsys, *argv[command])[1])
    window = rec["criterion"]["window"] if command == "report" else rec["window"]
    window[0]["E"] = window[0]["E"] * 2
    path = tmp_path / "record.json"
    path.write_text(json.dumps(rec))
    code, out, err = run(capsys, command, "--check", str(path))
    assert (code, out) == (2, "")
    invariant = "E must hold exactly l distinct residues"
    assert err == f"error: {path}: malformed {kind}: window record 0: {invariant}\n"


def test_a_checked_record_without_a_key_names_the_file(capsys, tmp_path):
    rec = json.loads(run(capsys, "verify")[1])
    del rec["stabilizer"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(rec))
    code, out, err = run(capsys, "verify", "--check", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: malformed criterion certificate: 'stabilizer'\n"


def test_a_castle_file_error_names_the_file(capsys, tmp_path, w9_file):
    castle_path = tmp_path / "castle.txt"
    castle_path.write_text("V= (0)|((0)) ; S= e x9\n")
    code, out, err = run(
        capsys, "audit", str(castle_path), "--window", w9_file, "--gamma", "{(0):(1)};(0)"
    )
    assert (code, out) == (2, "")
    assert err == f"error: {castle_path}: unknown generator 'x9' at line 1\n"


def test_audit_check_with_a_float_in_e(capsys, tmp_path, w9_file):
    rec = _audit_record(capsys, tmp_path, w9_file)
    rec["window"][0]["E"] = [[0.0]]
    _malformed_check(capsys, tmp_path, "audit", rec)


def test_audit_check_with_a_shapeless_tower(capsys, tmp_path, w9_file):
    rec = _audit_record(capsys, tmp_path, w9_file)
    rec["castle"]["towers"].append({"V": [], "S": []})
    _malformed_check(capsys, tmp_path, "audit", rec)


def test_audit_check_of_a_malformed_castle(capsys, tmp_path, w9_file):
    """The record of a castle that is not well formed names the audit's
    inputs, so its check reruns the audit: the record checks as failed (exit
    1), and a tampered witness or a malformed claim for a well-formed castle
    is rejected (exit 2)."""
    castle_path = tmp_path / "overlap.txt"
    castle_path.write_text("V= (0)|((0)) ; S= e\nV= (0)|((0)) ; S= e\n")
    args = ("audit", str(castle_path), "--window", w9_file, "--gamma", "{};(1)")
    code, out, _ = run(capsys, *args)
    assert code == 1
    rec = json.loads(out)
    inputs = ["kind", "v", "window", "castle", "gamma"]
    assert list(rec) == inputs + ["well_formed", "error", "witness"]
    audit_path = tmp_path / "audit.json"
    audit_path.write_text(out)
    assert run(capsys, "audit", "--check", str(audit_path)) == (1, "", "castle audit: failed\n")
    tampered = copy.deepcopy(rec)
    tampered["witness"]["second"]["tower"] = 0
    _malformed_check(capsys, tmp_path, "audit", tampered)
    well_formed = _audit_record(capsys, tmp_path, w9_file)
    claim = {key: well_formed[key] for key in inputs}
    claim.update({key: rec[key] for key in ("well_formed", "error", "witness")})
    _malformed_check(capsys, tmp_path, "audit", claim)


def test_audit_check_of_a_castle_with_a_baseless_tower(capsys, tmp_path, w9_file):
    """A castle whose extra tower has a shape but no base states is
    malformed; its record reruns as such and checks as failed (exit 1)."""
    rec = _audit_record(capsys, tmp_path, w9_file)
    rec["castle"]["towers"].append({"V": [], "S": ["{};(0)"]})
    window = window_from_records(rec["window"])
    castle = Castle.from_dict(rec["castle"], window)
    gamma = window.group.parse_element(rec["gamma"])
    malformed = audit_castle(castle, gamma, window)
    assert (malformed["error"], malformed["witness"]) == ("tower has no base states", {"tower": 1})
    path = tmp_path / "baseless.json"
    path.write_text(json.dumps(malformed))
    assert run(capsys, "audit", "--check", str(path)) == (1, "", "castle audit: failed\n")


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_main_pauses_the_collector_and_restores_it(capsys, tmp_path, w9_file, monkeypatch, enabled):
    """The cyclic collector is off while a command runs, and main leaves it
    as the caller had it on every exit: 0, 1 (malformed castle) and 2 (an
    identity gamma)."""
    castle = tmp_path / "castle.txt"
    castle.write_text(FULL_TOWER)
    overlap = tmp_path / "overlap.txt"
    overlap.write_text("V= (0)|((0)) ; S= e\nV= (0)|((0)) ; S= e\n")
    during = []

    def audit(*args):
        during.append(gc.isenabled())
        return audit_castle(*args)

    monkeypatch.setattr("allostery.cli.audit_castle", audit)
    cases = [
        (0, castle, "{(0):(1)};(0)"),
        (1, overlap, "{};(1)"),
        (2, castle, "{};(0)"),
    ]
    was_enabled = gc.isenabled()
    try:
        for code, path, gamma in cases:
            gc.enable() if enabled else gc.disable()
            assert run(capsys, "audit", str(path), "--window", w9_file, "--gamma", gamma)[0] == code
            assert gc.isenabled() is enabled
    finally:
        if was_enabled:
            gc.enable()
    assert during == [False, False]


def test_check_with_a_huge_exponent(capsys, tmp_path, w9_file, d32, d9):
    """A recorded k far past the forge's exponent is rejected before any
    power of p is taken, which for k = 10**30 would never finish."""
    records = {
        "audit": _audit_record(capsys, tmp_path, w9_file),
        "verify": copy.deepcopy(build_criterion([d32, d9])),
    }
    for command, rec in records.items():
        rec["window"][0]["k"] = 10**30
        _malformed_check(capsys, tmp_path, command, rec)


def test_check_with_a_huge_prime(tmp_path, d32, d9):
    """A recorded p = 2**61 - 1 is decided prime at once, so the loader
    goes on to its other bounds; trial division up to its square root would
    not finish.  A child process with a timeout makes a hang a failure."""
    rec = copy.deepcopy(build_criterion([d32, d9]))
    rec["window"][0]["p"] = 2**61 - 1
    path = tmp_path / "record.json"
    path.write_text(json.dumps(rec))
    done = _cli_process("verify", "--check", str(path), timeout=10)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error:")


def _cli_process(*argv, stdout=subprocess.PIPE, unbuffered=False, timeout=60):
    """``python -m allostery.cli`` run in a child process on ``src`` with
    80 columns and the interpreter's default digit limit, its stdout
    buffered unless ``unbuffered``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env["COLUMNS"] = "80"
    env.pop("PYTHONUNBUFFERED", None)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "allostery.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=timeout,
    )


FORGE = ("forge", "{(0):(1)};(0)", "--p", "3")
BROKEN_PIPE = re.escape("[Errno 32] Broken pipe\n")


@pytest.mark.parametrize(
    "argv, unbuffered, code, out, err",
    [
        (("--help",), False, 0, "usage: allostery .*", ""),
        (("verify", "--format", "csv"), False, 2, "", "usage: .*"),
        (
            ("report", "--radius", "2", "--epsilon", "1/2"),
            False,
            0,
            re.escape((Path(__file__).parent / "golden" / "report_radius2.out").read_text()),
            "bound 1/65536; .*\n",
        ),
        (("audit", "--check", "MALFORMED"), False, 1, "", "castle audit: failed\n"),
        (
            ("report", "--radius", "1", "--out", "OUT"),
            False,
            0,
            "OUT/report\\.json\nOUT/report\\.md\n",
            "bound 17/32; .*\n",
        ),
        (FORGE, True, 2, None, "error: " + BROKEN_PIPE),
        (FORGE, False, 2, None, "forged: .*\nerror: " + BROKEN_PIPE),
    ],
    ids=["help", "usage-error", "report", "failed-check", "report-out", "closed-pipe", "closed-pipe-buffered"],
)
def test_the_process_exit(capsys, tmp_path, w9_file, argv, unbuffered, code, out, err):
    """The entry point run as a process gives main's exit code and its whole
    output, argparse's exits included, and a file written under --out is
    complete.  A stdout pipe whose read end is closed is an error, exit 2:
    with PYTHONUNBUFFERED the write raises in the command, and with a
    buffered stdout the flush after the command raises."""
    out_dir = tmp_path / "out"
    names = {"OUT": str(out_dir), "MALFORMED": str(tmp_path / "audit.json")}
    if "MALFORMED" in argv:
        castle_path = tmp_path / "overlap.txt"
        castle_path.write_text("V= (0)|((0)) ; S= e\nV= (0)|((0)) ; S= e\n")
        audit = run(capsys, "audit", str(castle_path), "--window", w9_file, "--gamma", "{};(1)")
        (tmp_path / "audit.json").write_text(audit[1])
    argv = [names.get(arg, arg) for arg in argv]
    if out is None:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = _cli_process(*argv, stdout=write_end, unbuffered=unbuffered)
        finally:
            os.close(write_end)
    else:
        done = _cli_process(*argv, unbuffered=unbuffered)
        assert re.fullmatch(out.replace("OUT", re.escape(str(out_dir))), done.stdout, re.DOTALL)
    assert done.returncode == code
    assert re.fullmatch(err, done.stderr, re.DOTALL)
    if "--out" in argv:
        to_stdout = _cli_process(*argv[: argv.index("--out")])
        assert (out_dir / "report.json").read_text() == to_stdout.stdout


@pytest.mark.parametrize(
    "flags",
    [
        ["verify", "--format", "csv"],
        ["verify", "--prime-strategy", "smallest-admissible"],
        ["simulate", "t1", "--datum", "d.json"],
    ],
)
def test_removed_flags(capsys, flags):
    with pytest.raises(SystemExit) as info:
        main(flags)
    assert info.value.code == 2
    capsys.readouterr()


def test_audit_tolerance_with_a_zero_denominator(capsys, tmp_path, w9_file):
    castle_path = tmp_path / "castle.txt"
    castle_path.write_text(FULL_TOWER)
    code, out, err = run(
        capsys, "audit", str(castle_path), "--window", w9_file,
        "--gamma", "{(0):(1)};(0)", "--tolerance", "1/0",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "command, flag, records, message",
    [
        ("compare", "--window", [1, 2], "window record 0 is not a JSON object"),
        ("audit", "--window", ["d9", 2], "window record 1 is not a JSON object"),
        ("simulate", "--window", {"window": ["d9", "d9", [1]]}, "window record 2 is not a JSON object"),
        ("simulate", "--window", [1], "window record 0 is not a JSON object"),
        ("compare", "--window", [{}], "window record 0 has no 'gamma'"),
        (
            "simulate",
            "--window",
            [{"gamma": "{};(1)", "p": 3, "k": 1, "l": 1, "E": 5, "epsilon": "1/2", "d": 1, "m": 1}],
            "window record 0: E must be a list of residues",
        ),
        (
            "verify",
            "--check",
            {"kind": "criterion", "v": 1, "window": [1], "stabilizer": {"ball_radius": 1}},
            "malformed criterion certificate: window record 0 is not a JSON object",
        ),
        (
            "compare",
            "--window",
            ["d9", {"gamma": "{bad", "p": 3, "k": 1, "l": 1, "E": [[0]], "epsilon": "1/2", "d": 1, "m": 1}],
            "window record 1: gamma: expected a vector like (0) or (1,-2)",
        ),
        (
            "compare",
            "--window",
            ["d9", {"gamma": "{};(1)", "p": 3, "k": 1, "l": 1, "E": [[0]], "epsilon": "1/0", "d": 1, "m": 1}],
            "window record 1: bad rational epsilon '1/0'",
        ),
    ],
)
def test_a_record_that_is_not_an_object_names_the_file(
    capsys, tmp_path, d9, command, flag, records, message
):
    """A window file whose record is not a JSON object, lacks a
    field, holds an E that is not a list of lists or a gamma or epsilon that
    does not parse is a parse error naming the file and the record, not the
    interpreter's message on indexing a number or a list.  A checker names
    the certificate kind after the file."""
    path = tmp_path / "data.json"
    text = json.dumps(records).replace('"d9"', json.dumps(d9.to_dict()))
    path.write_text(text)
    castle_path = tmp_path / "castle.txt"
    castle_path.write_text(FULL_TOWER)
    argv = {
        "compare": ("--a", "idx:0", "--b", "idx:3,6"),
        "audit": (str(castle_path), "--gamma", "{(0):(1)};(0)"),
        "simulate": ("t1",),
        "verify": (),
    }[command]
    code, out, err = run(capsys, command, *argv, flag, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: {message}\n"


# Each subcommand's settings flags: exactly those its command reads.
SETTINGS = {
    "config": "run.cfg", "d": "2", "m": "2", "radius": "2", "epsilon": "1/2",
    "budget-states": "5", "seed": "3", "out": "results", "format": "md",
}
READS = {
    "forge": ("gamma", "config d m epsilon out"),
    "verify": ((), "config d m radius epsilon out"),
    "simulate": ("t1", "config out"),
    "compare": ((), "config budget-states seed out"),
    "audit": ((), "config budget-states out"),
    "report": ((), "config d m radius epsilon out format"),
}


@pytest.mark.parametrize("flag", SETTINGS)
@pytest.mark.parametrize("command", READS)
def test_a_subcommand_takes_only_the_settings_it_reads(capsys, command, flag):
    """A settings flag that the command reads parses to its value; any other
    is a usage error, so no flag is accepted and then ignored.  Neither is
    one taken as an abbreviation: ``compare --win`` is not ``--window``.  The
    subcommand's own parser reports the flag with its value, under its own
    usage line, and audit's optional castle positional does not take the
    value instead."""
    positional, reads = READS[command]
    argv = [command, *([positional] if positional else []), f"--{flag}", SETTINGS[flag]]
    if command == "forge":
        argv += ["--p", "2"]
    if flag in reads.split():
        args = _build_parser().parse_args(argv)
        assert str(getattr(args, flag.replace("-", "_"))) == SETTINGS[flag]
    else:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: allostery {command} ")
        assert err.endswith(
            f"\nallostery {command}: error: unrecognized arguments: --{flag} {SETTINGS[flag]}\n"
        )


def help_usage(capsys, command):
    """The usage line that ``allostery <command> --help`` prints."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    return capsys.readouterr().out.split("\n\n")[0] + "\n"


@pytest.mark.parametrize("flag", ["--bogus", "--unread"])
@pytest.mark.parametrize("command", READS)
def test_an_unknown_flag_is_named_with_its_word_under_the_help_usage(capsys, command, flag):
    """A flag the subcommand does not take, whether no subcommand takes it or
    it is a settings flag of another, is named with the word after it, which
    no positional takes instead, under the usage line of the subcommand's
    --help, which lists no flag it does not take."""
    positional, reads = READS[command]
    if flag == "--unread":
        flag = "--" + next(f for f in SETTINGS if f not in reads.split())
    argv = [command, flag, "md", *([positional] if positional else [])]
    if command == "forge":
        argv += ["--p", "2"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, _, error = err.rpartition(f"allostery {command}: error: ")
    assert error == f"unrecognized arguments: {flag} md\n"
    assert usage == help_usage(capsys, command)


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["report", "x", "--bogus", "md"], "x --bogus md"),
        (["report", "x", "--seed", "3"], "x --seed 3"),
        (["report", "--bogus=md", "x", "--seed"], "--bogus md x --seed"),
        (["report", "x", "--epsilon", "1/2", "--bogus", "x"], "x --bogus x"),
        (["audit", "y", "--window", "w.json", "--bogus", "md", "z"], "--bogus md z"),
    ],
)
def test_unread_arguments_are_named_in_the_order_given(capsys, argv, unread):
    """The error names each word the subcommand does not read, an unknown
    flag with the word it takes, in the order of the command line."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, _, error = err.rpartition(f"allostery {argv[0]}: error: ")
    assert error == f"unrecognized arguments: {unread}\n"
    assert usage == help_usage(capsys, argv[0])


def test_an_abbreviated_flag_is_the_subcommands_usage_error(capsys, w9_file):
    with pytest.raises(SystemExit) as info:
        main(["compare", "--win", w9_file, "--a", "idx:0", "--b", "idx:3,6"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: allostery compare ")
    assert captured.err.endswith(
        f"allostery compare: error: unrecognized arguments: --win {w9_file}\n"
    )


@pytest.mark.parametrize("command", READS)
def test_subcommand_help_lists_only_its_settings(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    flags = set(re.findall(r"--([a-z-]+)", capsys.readouterr().out))
    assert flags & set(SETTINGS) == set(READS[command][1].split())


# Beside --check, the arguments each check does not read: its command's own
# and the settings flags it takes but the check does not.
PRODUCE_ONLY = {
    "verify": [],
    "compare": [["--window", "w.json"], ["--a", "idx:0"], ["--b", "idx:3"]],
    "audit": [["castle.txt"], ["--window", "w.json"], ["--gamma", "t1"], ["--tolerance", "1/2"]],
    "report": [],
}
CHECK_READS = {
    "verify": "config", "compare": "config", "audit": "config budget-states", "report": "config"
}


def _refused_beside_check():
    for command, own in PRODUCE_ONLY.items():
        settings = set(READS[command][1].split()) - set(CHECK_READS[command].split())
        for argv in [[f"--{flag}", SETTINGS[flag]] for flag in sorted(settings)] + own:
            yield pytest.param(command, argv, id=f"{command}-{argv[0].lstrip('-')}")


@pytest.mark.parametrize("command, argv", _refused_beside_check())
def test_a_check_refuses_an_argument_it_does_not_read(capsys, command, argv):
    """The check reads its record, --config and, for audit, --budget-states;
    any other argument beside --check is a usage error of the subcommand."""
    name = argv[0] if argv[0].startswith("--") else "castle"
    check = ["--check", "cert.json"]
    for order in ([command, *check, *argv], [command, *argv, *check]):
        with pytest.raises(SystemExit) as info:
            main(order)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: allostery {command} ")
        assert captured.err.endswith(
            f"allostery {command}: error: argument --check: not allowed with {name}\n"
        )


def _checked_records(capsys, tmp_path, w9_file):
    """A valid record of each checking subcommand, by subcommand."""
    castle_path = tmp_path / "castle.txt"
    castle_path.write_text(FULL_TOWER)
    produce = {
        "verify": ("--epsilon", "1/2"),
        "compare": ("--window", w9_file, "--a", "idx:0", "--b", "idx:3,6"),
        "audit": (str(castle_path), "--window", w9_file, "--gamma", "{(0):(1)};(0)"),
        "report": ("--epsilon", "1/2"),
    }
    paths = {}
    for command, argv in produce.items():
        code, out, _ = run(capsys, command, *argv)
        assert code == 0, command
        paths[command] = tmp_path / f"{command}.json"
        paths[command].write_text(out)
    return paths


@pytest.mark.parametrize(
    "argv, refused",
    [
        (
            ["compare", "--check", "RECORD", "--window", "nosuch.json", "--a", "idx:999",
             "--seed", "5", "--budget-states", "1"],
            "--budget-states, --seed, --window, --a",
        ),
        (["verify", "--check", "RECORD", "--radius", "9", "--d", "7"], "--d, --radius"),
    ],
    ids=["compare", "verify"],
)
def test_a_valid_record_with_unread_arguments_is_a_usage_error(
    capsys, tmp_path, w9_file, argv, refused
):
    """A check once printed its verdict and ignored these arguments."""
    path = _checked_records(capsys, tmp_path, w9_file)[argv[0]]
    with pytest.raises(SystemExit) as info:
        main([str(path) if arg == "RECORD" else arg for arg in argv])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: allostery {argv[0]} ")
    assert captured.err.endswith(f"error: argument --check: not allowed with {refused}\n")


def test_a_check_reads_its_config_and_audit_its_budget(capsys, tmp_path, w9_file):
    """--config (every key of it) is read by every check and --budget-states
    by audit's, which re-runs the audit and so still stops past the budget."""
    paths = _checked_records(capsys, tmp_path, w9_file)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "d = 2\nm = 2\nradius = 9\nepsilon = 1/3\nbudget_states = 100000\n"
        f"seed = 3\nout = {tmp_path / 'results'}\nformat = md\n"
    )
    verdicts = {
        "verify": "criterion certificate: valid\n",
        "compare": "comparison certificate: valid\n",
        "audit": "castle audit: ok\n",
        "report": "report: valid\n",
    }
    for command, path in paths.items():
        assert run(capsys, command, "--check", str(path), "--config", str(cfg)) == (
            0, "", verdicts[command]
        )
    audit = str(paths["audit"])
    assert run(capsys, "audit", "--check", audit, "--budget-states", "100000") == (
        0, "", "castle audit: ok\n"
    )
    code, out, err = run(capsys, "audit", "--check", audit, "--budget-states", "8")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "budget" in err
    cfg.write_text("budget_states = 8\n")
    assert run(capsys, "audit", "--check", audit, "--config", str(cfg))[0] == 2
    assert not (tmp_path / "results").exists()


def test_a_config_file_with_every_key_runs_each_command(capsys, tmp_path, w9_file):
    """The --config file takes every key for every command, whichever flags
    the command has."""
    out_dir = tmp_path / "results"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "d = 1\nm = 1\nradius = 1\nepsilon = 1/2\nbudget_states = 1000000\n"
        f"seed = 3\nout = {out_dir}\nformat = json\n"
    )
    castle_path = tmp_path / "castle.txt"
    castle_path.write_text(FULL_TOWER)
    commands = [
        ("forge", "{(0):(1)};(0)", "--p", "2"),
        ("verify",),
        ("simulate", "t1", "--window", w9_file),
        ("compare", "--window", w9_file, "--a", "random:1", "--b", "random:2"),
        ("audit", str(castle_path), "--window", w9_file, "--gamma", "{(0):(1)};(0)"),
        ("report",),
    ]
    for argv in commands:
        code, out, _ = run(capsys, *argv, "--config", str(cfg))
        assert code == 0, argv
        assert out.startswith(str(out_dir)), argv
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "audit.json", "comparison.json", "criterion.json", "datum.json",
        "report.json", "report.md", "trajectory.csv",
    ]


def test_every_bench_command_line_parses(capsys, tmp_path, monkeypatch):
    """The benchmark's producing commands, their checks and ``--help`` keep
    parsing as the bench writes them, each check under the rule that refuses
    an argument the check does not read.  Each operation of each workload at
    seed 0 also runs once as the bench runs it, in its work directory: the
    producing command exits 0, and its check exits 0 with the verdict
    ``valid`` or ``ok``."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    parser = _build_parser()
    monkeypatch.chdir(tmp_path)
    for workload in workloads.WORKLOADS.values():
        for op in workload.inputs(tmp_path, 0):
            assert _parse_args(op.produce).command == op.produce[0]
            args = _parse_args(op.check("cert.json"))
            assert (args.check, args.func) == ("cert.json", _check)
            code, out, _ = run(capsys, *op.produce)
            assert code == 0, op.produce
            (tmp_path / "cert.json").write_text(out, encoding="utf-8")
            code, _, err = run(capsys, *op.check("cert.json"))
            assert code == 0 and err.endswith((": valid\n", ": ok\n")), (op.produce, err)
    with pytest.raises(SystemExit) as info:
        parser.parse_args(["--help"])
    assert info.value.code == 0


def test_a_castle_file_that_is_not_utf8_names_the_file(capsys, tmp_path, monkeypatch, w9_file):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_bytes(b"\xff" + FULL_TOWER.encode())
    code, out, err = run(capsys, "audit", "bad.txt", "--window", w9_file, "--gamma", "{(0):(1)};(0)")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad.txt: 'utf-8' codec")


@pytest.mark.parametrize(
    "text, message",
    [
        ("{(0,0):(1)};(0)", "lamp position rank 2 != m=1"),
        ("{(0):(1)};(0", "expected a vector like (0) or (1,-2)"),
        ("t1.x9", "unknown generator 'x9'"),
    ],
)
def test_simulate_says_the_element_or_word_error(capsys, w9_file, text, message):
    """A text that starts with ``{`` is an element and any other a word, and
    each reports its own parse error."""
    assert run(capsys, "simulate", text, "--window", w9_file) == (2, "", f"error: {message}\n")
