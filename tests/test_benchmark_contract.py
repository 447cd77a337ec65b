"""The benchmark's view of the package, exercised the way it runs.

``perfbench/child.py`` imports ``lefschetz.cli`` and reads
``kernels.BACKEND``; with tracing on, ``perfbench/layertrace.py`` wraps
``kernels.rref_int`` and ``kernels.det_bareiss`` among other names.  A rename
on the package side breaks the benchmark without breaking any unit test, so
one tiny traced run checks that contract.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ITEMS = [
    ["hilbert", "--ideal", "x^2, y^2 - x*z, z^2"],
    ["wlp", "-a", "3", "-b", "3", "-c", "2", "--beta", "1", "--gamma", "1"],
    ["lemma", "--n", "4", "--trials", "2", "--seed", "0"],
]


def test_traced_child_run_reaches_the_kernels():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", "1", json.dumps(ITEMS)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    ready, result = proc.stdout.splitlines()
    assert ready == "READY"
    out = json.loads(result)
    assert out["codes"] == [0, 0, 0], out["errs"]
    assert out["backend"] == "python"
    calls = out["trace"]["calls"]
    assert calls["kernels.rref_int"] > 0
    assert calls["kernels.det_bareiss"] > 0
