import signal
import subprocess
import sys
import time
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parents[1]


def test_child_is_killed_at_the_deadline(tmp_path):
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        start = time.perf_counter()
        child = run.run_child(
            [sys.executable, "-c", "import time; time.sleep(30)"],
            tmp_path, {}, tmp_path / "out", deadline=start + 1,
        )
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert child.code != 0
    assert child.wall_s < 10


def test_no_result_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "audit", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
