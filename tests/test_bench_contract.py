"""The names the benchmark traces and calls stay where it looks them up.

``bench/traced.py`` wraps each traced function through ``vars(owner)[attr]``,
so moving one to another class or module breaks every traced bench run.
These checks only read ``bench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import traced  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from allostery import cli, dynamics  # noqa: E402


def test_tracer_installs_and_restores(w288, group11):
    x = group11.generators()[2]
    expected = w288.prepare(x).apply((3, 5))
    action_type = type(w288.prepare(x))
    original_apply = vars(action_type)["apply"]
    tracer = Tracer()
    traced.install(tracer)
    try:
        action = w288.prepare(x)
        assert "apply" in vars(type(action))
        assert action.apply((3, 5)) == expected
        assert tracer.counts["dynamics.window_apply_calls"] == 1
    finally:
        tracer.restore()
    assert vars(action_type)["apply"] is original_apply
    assert not hasattr(vars(dynamics.Window)["prepare"], "__wrapped__")


def test_names_the_bench_calls(w288):
    for attr in ("tables", "flat_index", "state_at", "state_text"):
        assert callable(vars(dynamics.Window)[attr])
    assert callable(vars(cli)["_parse_states"])
    assert w288.state_at(17) == (1, 8)
    orb = w288.orbit(w288.identity_thread())
    assert orb.start == (0, 0) and orb.size == len(orb.order) == len(orb.words)
    assert all(type(s) is tuple for s in orb.order)


def test_tracer_installs_right_after_the_cli_import():
    """The CLI imports its certificate functions on first call, but binds
    each traced name at import; so the tracer installs and restores in a
    process that has imported nothing of the package but ``allostery.cli``,
    and a command run under it records its certificate span."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, str(BENCH), os.environ.get("PYTHONPATH", "")])
    code = (
        "import contextlib, io, json, sys\n"
        "import allostery.cli as cli\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('allostery'))\n"
        "before = dict(vars(cli))\n"
        "import traced\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "traced.install(tracer)\n"
        "patches = list(tracer._patches)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', '--epsilon', '1/2'])\n"
        "tracer.restore()\n"
        "print(json.dumps({\n"
        "    'loaded': loaded,\n"
        "    'code': code,\n"
        "    'spans': sorted({s.name for s in tracer.spans}),\n"
        "    'restored': all(vars(o)[a] is f for o, a, f in patches),\n"
        "    'cli': vars(cli) == before,\n"
        "}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["loaded"] == ["allostery", "allostery.cli", "allostery.errors"]
    assert out["code"] == 0
    assert {"certificates.criterion", "certificates.transitivity", "cli.emit"} <= set(out["spans"])
    assert out["restored"] and out["cli"]


# Spans each workload's producing command and its check must record.  Those
# of certificate functions that the package calls from another module (the
# atoms and the check inside ``compare``, the audit inside its check) hold
# only while the call goes through the traced name in ``certificates``.
WORKLOAD_SPANS = {
    "criterion": (
        {"certificates.criterion", "certificates.transitivity", "dynamics.witness",
         "certificates.non_af"},
        {"certificates.check_report", "certificates.criterion", "certificates.transitivity",
         "dynamics.witness"},
    ),
    "compare": (
        {"certificates.atoms", "certificates.transporter", "certificates.check_comparison"},
        {"certificates.check_comparison"},
    ),
    "audit": (
        {"certificates.castle_parse", "certificates.audit"},
        {"certificates.check_audit", "certificates.audit"},
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_records_its_certificate_spans(name, tmp_path, monkeypatch, capsys):
    """The first operation of the workload at seed 0, produced and then
    checked under the tracer."""
    monkeypatch.chdir(tmp_path)
    op = WORKLOADS[name].inputs(tmp_path, 0)[0]
    recorded = []
    for argv in (op.produce, op.check("cert.json")):
        tracer = Tracer()
        assert traced.run(argv, tracer) == 0
        if not recorded:
            Path("cert.json").write_text(capsys.readouterr().out, encoding="utf-8")
        recorded.append(({s.name for s in tracer.spans}, tracer.counts))
    (produced, counts), (checked, _) = recorded
    produce_spans, check_spans = WORKLOAD_SPANS[name]
    assert sorted(produce_spans - produced) == []
    assert sorted(check_spans - checked) == []
    if name == "compare":
        assert counts["certificates.atoms"] > 0
