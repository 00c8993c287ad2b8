"""Traced runs of real workload inputs: exact counts repeat, spans close,
and tracing leaves the command's stdout unchanged."""

import json
import random
from pathlib import Path

import pytest

import traced
from allostery import Window, translate_closure
from allostery.cli import _parse_states, main
from tracer import Tracer
from workloads import (
    W81_LEVELS,
    WORKLOADS,
    compare_translates,
    flat_permutations,
    random_spec_indices,
    write_window,
)

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def traced_op(op, capsys):
    """Produce and check one operation under fresh tracers; returns the
    produced stdout and the per-layer metrics."""
    records = []

    def traced_command(argv):
        tracer = Tracer()
        assert traced.run(argv, tracer) == 0
        assert not tracer.unclosed()
        records.append({"spans": [s.to_dict() for s in tracer.spans], "counts": tracer.counts})
        return capsys.readouterr().out

    out = traced_command(op.produce)
    Path("cert.json").write_text(out, encoding="utf-8")
    traced_command(op.check("cert.json"))
    return out, traced.layer_metrics(records)


@pytest.mark.parametrize("workload", ["audit", "compare"])
def test_counts_repeat_exactly_for_one_seed(workload, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    op = WORKLOADS[workload].inputs(tmp_path, 0)[0]
    first_out, first = traced_op(op, capsys)
    second_out, second = traced_op(op, capsys)
    assert first_out == second_out
    for name in traced.LAYER_COUNTS:
        assert first[name] == second[name], name
    if workload == "audit":
        assert first["wreath.word_letters"] > 0
        assert first["dynamics.window_apply_calls"] > 0
        assert main(list(op.produce)) == 0
        assert capsys.readouterr().out == first_out
    else:
        assert first["certificates.translates"] == 61236


def test_translate_count_matches_the_program(tmp_path):
    window = Window(write_window(tmp_path / "w81.json", W81_LEVELS))
    perms = flat_permutations(window)
    for cli_seed in (0, 3):
        a_idx, b_idx = random_spec_indices(window.size, cli_seed)
        rng = random.Random(cli_seed)
        a = _parse_states(window, "random:3", rng)
        b = _parse_states(window, "random:7", rng)
        assert a == {window.state_at(i) for i in a_idx}
        assert b == {window.state_at(i) for i in b_idx}
        expected = len(translate_closure(window, [a, b]))
        assert compare_translates(perms, window.size, cli_seed, 10**6) == expected
        assert compare_translates(perms, window.size, cli_seed, expected - 1) is None


def test_benchmark_json_names_what_run_prints():
    import run

    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
