"""The benchmark's set-up probe runs in a fresh interpreter.

``bench/run.py`` raises when ``bench/probe.py`` exits non-zero, so a change
that breaks one of the calls the probe makes fails every benchmark run of
that workload.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from driftless.cli import OUT_DIR_ENV

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["oracle-battery", "spin-switch", "closed-form-cli"])
def test_probe_exits_cleanly(workload, tmp_path):
    env = dict(os.environ, **{OUT_DIR_ENV: str(tmp_path)})
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "probe.py"), workload],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert float(done.stdout.strip().splitlines()[-1]) > 0.0
    assert list(tmp_path.iterdir()) == []  # the probe removes its export
