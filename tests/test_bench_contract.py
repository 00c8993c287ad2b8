"""The names the benchmark traces and calls stay where it looks them up.

``bench/traced.py`` wraps each traced function through ``vars(owner)[attr]``,
so moving one to another class or module breaks every traced bench run.
These checks only read ``bench/``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import traced  # noqa: E402
from tracer import Tracer  # noqa: E402

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
