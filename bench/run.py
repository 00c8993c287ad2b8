"""End-to-end benchmark of the ``allostery`` CLI.

Usage, from the repository root:

    python3 bench/run.py --workload {criterion,compare,audit} --seed N \
        --seconds S --trace {0,1}

The benchmark drives the CLI as a user does: one child process at a time
from this one process (a closed loop with one client).  An operation is a
producing command followed by ``--check`` on its stdout.  Operations run
back to back until the next one would end after ``--seconds``; at least one
always runs.  Every child runs the package from ``src/`` of the directory
the benchmark is started in.

With ``--trace 0`` it reports the end-to-end metrics: median wall time of
the producing command and of its check, median peak RSS per child, the wall
time of ``allostery --help`` (interpreter start, package import and parser
build) and the share of operations that succeeded.  Each timing is scaled
by the host's speed at that moment (see ``CAL_REFERENCE_S``).

With ``--trace 1`` each operation also re-runs both commands under
``traced.py``, which wraps the package's layers from outside, and reports
per-layer self times and exact counts; counts must repeat exactly across
the operations of one run.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it give each timing's median, tail
percentile and sample count, and the inputs used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from stats import describe
from traced import LAYER_COUNTS, LAYER_SPANS, layer_metrics
from workloads import WORKLOADS, Op

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 7

# The CPU speed of a shared host can drift by 1.7x within half an hour, and
# it moves every timing together.  So every measured command is bracketed
# by runs of calibrate.py, and its wall time is reported in reference
# seconds: wall * CAL_REFERENCE_S / (mean of the two calibration times).
# On a host where calibrate.py takes CAL_REFERENCE_S the two agree.
CAL_REFERENCE_S = 0.2
# Children still running this long after the start are killed, so that a
# hung command still lets the benchmark exit within 180 seconds.
DEADLINE_S = 170

E2E_UNITS = {
    "produce_s": "s",
    "check_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_rate": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    units = {f"{name}_s": "s" for name in LAYER_SPANS}
    units.update({name: "count" for name in LAYER_COUNTS})
    units["dynamics.table_reuse_ratio"] = "ratio"
    units["certificates.atom_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


@dataclass
class Child:
    """One finished child process."""

    code: int
    wall_s: float
    rss_mb: float
    stdout_sha256: str


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout()


def run_child(
    argv: Sequence[str], cwd: Path, env: dict, stdout_path: Path, deadline: float
) -> Child:
    """Run argv to completion with stdout in a file; wall time from just
    before the spawn to the reap, peak RSS of this child alone (wait4).
    The child is killed at the deadline (a ``perf_counter`` reading)."""
    err_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), cwd=cwd, env=env, stdout=out, stderr=err)
        signal.alarm(max(1, math.ceil(deadline - start)))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    if code != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"command {list(argv)[1:]} exited {code}:\n{tail}", file=sys.stderr)
    digest = hashlib.sha256(stdout_path.read_bytes()).hexdigest()
    return Child(code, wall, usage.ru_maxrss / 1024.0, digest)


class Runner:
    def __init__(self, root: Path, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), self.env.get("PYTHONPATH")) if p
        )
        self.cli = [sys.executable, "-m", "allostery.cli"]
        self.traced = [sys.executable, str(BENCH_DIR / "traced.py")]
        self.calibration = [sys.executable, str(BENCH_DIR / "calibrate.py")]
        self.cal_walls: List[float] = []

    def _run(self, argv: List[str], out: str) -> Child:
        return run_child(argv, self.work, self.env, self.work / out, self.deadline)

    def cli_run(self, args: Sequence[str], out: str) -> Child:
        return self._run(self.cli + list(args), out)

    def traced_run(self, args: Sequence[str], out: str, spans: str) -> Child:
        return self._run(self.traced + [str(self.work / spans), "--", *args], out)

    def calibrate(self) -> float:
        """Wall time of one run of calibrate.py."""
        child = self._run(self.calibration, "calibrate.out")
        if child.code != 0:
            raise RuntimeError("calibrate.py failed")
        self.cal_walls.append(child.wall_s)
        return child.wall_s

    def setup_s(self) -> Tuple[List[float], List[float]]:
        """Raw and reference wall times of ``allostery --help``; the first
        call, which also compiles bytecode, is not kept."""
        raw, scaled = [], []
        self.cli_run(["--help"], "help.out")
        before = self.calibrate()
        for _ in range(SETUP_SAMPLES):
            child = self.cli_run(["--help"], "help.out")
            if child.code != 0:
                raise RuntimeError("allostery --help failed")
            after = self.calibrate()
            raw.append(child.wall_s)
            scaled.append(reference_s(child.wall_s, before, after))
            before = after
        return raw, scaled


def reference_s(wall: float, cal_before: float, cal_after: float) -> float:
    """A wall time in reference seconds, from the calibration times around it."""
    return wall * CAL_REFERENCE_S / ((cal_before + cal_after) / 2)


def keep_going(started: float, seconds: float, op_walls: List[float]) -> bool:
    """Start another operation only if it is projected to end in time."""
    projected = time.perf_counter() - started + statistics.median(op_walls)
    return projected <= seconds


def measure_e2e(runner: Runner, ops: List[Op], seconds: float):
    """Operations back to back; returns raw and reference times per command."""
    raw: Dict[str, List[float]] = {"produce_s": [], "check_s": []}
    scaled: Dict[str, List[float]] = {"produce_s": [], "check_s": []}
    rss, op_walls = [], []
    digests: Dict[int, set] = {}
    attempted = failed = 0
    started = time.perf_counter()
    cal_before = runner.calibrate()
    while True:
        k = attempted % len(ops)
        op = ops[k]
        attempted += 1
        op_start = time.perf_counter()
        made = runner.cli_run(op.produce, "cert.json")
        cal_mid = runner.calibrate()
        checked = runner.cli_run(op.check("cert.json"), "check.out")
        cal_after = runner.calibrate()
        for name, child, before, after in (
            ("produce_s", made, cal_before, cal_mid),
            ("check_s", checked, cal_mid, cal_after),
        ):
            raw[name].append(child.wall_s)
            scaled[name].append(reference_s(child.wall_s, before, after))
        cal_before = cal_after
        rss.append(max(made.rss_mb, checked.rss_mb))
        op_walls.append(time.perf_counter() - op_start)
        digests.setdefault(k, set()).add((made.stdout_sha256, checked.stdout_sha256))
        if made.code != 0 or checked.code != 0:
            failed += 1
        if not keep_going(started, seconds, op_walls):
            break
    for k, seen in sorted(digests.items()):
        for made_sha, check_sha in sorted(seen):
            print(f"stdout sha256 of input {k}: produce {made_sha}, check {check_sha}")
    deterministic = all(len(d) == 1 for d in digests.values())
    if not deterministic:
        print("a command printed different bytes for the same input", file=sys.stderr)
    return raw, scaled, rss, attempted, failed, deterministic


def measure_traced(runner: Runner, op: Op, seconds: float):
    """Repeat the first input: an untraced produce, then produce and check
    under the tracer.  Returns per-layer medians, op counts and whether
    everything matched."""
    samples: List[Dict[str, float]] = []
    attempted = failed = 0
    ok = True
    started = time.perf_counter()
    op_walls: List[float] = []
    while True:
        attempted += 1
        plain = runner.cli_run(op.produce, "cert.json")
        made = runner.traced_run(op.produce, "traced_cert.json", "spans_produce.json")
        checked = runner.traced_run(op.check("traced_cert.json"), "check.out", "spans_check.json")
        op_walls.append(plain.wall_s + made.wall_s + checked.wall_s)
        records = []
        if plain.code or made.code or checked.code:
            failed += 1
            ok = False
        else:
            records = [
                json.loads((runner.work / name).read_text(encoding="utf-8"))
                for name in ("spans_produce.json", "spans_check.json")
            ]
        if made.stdout_sha256 != plain.stdout_sha256:
            print("traced stdout differs from untraced stdout", file=sys.stderr)
            ok = False
        if any(rec["unclosed"] for rec in records):
            print("a span was opened and never closed", file=sys.stderr)
            ok = False
        metrics = layer_metrics(records)
        metrics["trace.overhead_s"] = made.wall_s - plain.wall_s
        samples.append(metrics)
        if not keep_going(started, seconds, op_walls):
            break
    for name in LAYER_COUNTS:
        if len({s[name] for s in samples}) != 1:
            print(f"count {name} differs between traced runs of one input", file=sys.stderr)
            ok = False
    values = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    values.update((name, samples[0][name]) for name in LAYER_COUNTS)
    return values, attempted, failed, ok


def result_line(
    correct: bool, attempted: int, failed: int, values: Dict[str, float], units: Dict[str, str]
) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        }
    )


def bench(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> int:
    deadline = time.perf_counter() + DEADLINE_S
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=root / ".bench_work"))
    try:
        sys.path.insert(0, str(root / "src"))
        ops = WORKLOADS[workload].inputs(work, seed)
        for op in ops:
            print(f"input: {op.note}")
        runner = Runner(root, work, deadline)
        if trace:
            values, attempted, failed, correct = measure_traced(runner, ops[0], seconds)
            print(f"traced operations: {attempted}")
            print(result_line(correct and not failed, attempted, failed, values, per_layer_units()))
            return 0
        raw_setup, setup = runner.setup_s()
        raw, scaled, rss, attempted, failed, deterministic = measure_e2e(runner, ops, seconds)
        raw["setup_s"], scaled["setup_s"] = raw_setup, setup
        print(f"calibrate.py wall s: {describe(runner.cal_walls)}")
        for name in ("produce_s", "check_s", "setup_s"):
            print(f"{name} wall s: {describe(raw[name])}")
            print(f"{name} reference s: {describe(scaled[name])}")
        values = {name: statistics.median(scaled[name]) for name in scaled}
        values["peak_rss_mb"] = statistics.median(rss)
        values["ok_rate"] = (attempted - failed) / attempted
        print(result_line(deterministic and not failed, attempted, failed, values, E2E_UNITS))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "allostery" / "cli.py").is_file():
        print(f"no allostery sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    (root / ".bench_work").mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    # On SIGTERM, unwind so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return bench(root, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
