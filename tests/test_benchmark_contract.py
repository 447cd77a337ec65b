"""The benchmark's view of the package, exercised the way it runs.

``perfbench/child.py`` imports ``lefschetz.cli`` and reads
``kernels.BACKEND``; with tracing on, ``perfbench/layertrace.py`` wraps the
public layer functions, and a traced run fails when a function that
``perfbench/workloads.py`` expects a workload to call records no calls.  A
rename on the package side breaks the benchmark without breaking any unit
test, so one tiny traced run checks that contract.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ITEMS = [
    ["hilbert", "--ideal", "x^2, y^2 - x*z, z^2"],
    ["wlp", "-a", "3", "-b", "3", "-c", "2", "--beta", "1", "--gamma", "1"],
    ["slp", "-a", "3", "-b", "3", "-c", "2", "--beta", "1", "--gamma", "1"],
    ["lemma", "--n", "4", "--trials", "2", "--seed", "0"],
]


def _expected_calls() -> set:
    """Every traced name some workload expects to be called, read from
    ``perfbench/workloads.py`` without importing ``perfbench``."""
    name = "perfbench_workloads_contract"
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # @dataclass looks its module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return {n for w in module.WORKLOADS.values() for n in w.expected_calls}


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
    assert out["codes"] == [0, 0, 0, 0], out["errs"]
    assert out["backend"] == "python"
    calls = out["trace"]["calls"]
    assert calls["kernels.rref_int"] > 0
    assert calls["kernels.det_bareiss"] > 0
    expected = _expected_calls()
    assert "quotient.certify_powers" in expected
    assert sorted(n for n in expected if not calls.get(n)) == []
