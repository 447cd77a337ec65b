"""Smoke check of the benchmark at tiny input sizes.

    python3 perfbench/smoke.py

For every workload, in both modes, runs ``run.py --scale tiny --seed 0`` and
checks that the result line has exactly its four keys, that every
metric named in ``BENCHMARK.json`` is emitted with its unit and nothing
else, and that no result failed its check (the default seed also compares
against the stored verdict digests).  Exits non-zero if any check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "0", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            meta = json.loads(lines[-2])["meta"]
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if units != expected[trace]:
                problems.append(f"{tag}: metrics {units} differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or meta["error_frac"] != 0:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} failed")
            print(f"{tag}: {len(units)} metrics, {result['attempted']} results checked")
    for problem in problems:
        print("FAIL", problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
