"""Record ``reference.json``: per-result digests of the verdict fields that
each workload produces at full scale on the default seed.

    python3 perfbench/make_reference.py

The stored digests pin the verdicts of the commit that introduced the
benchmark.  Re-record them only when a verdict is meant to change, and say
so; re-recording to silence a mismatch hides a regression.  Every output is
checked against the oracles first, and nothing is written if one fails.
"""

import json
import sys
from time import perf_counter

import run
import workloads


def main() -> int:
    digests = {}
    for name, workload in workloads.WORKLOADS.items():
        items = workload.items(workloads.DEFAULT_SEED, "full")
        report = run.spawn(False, [list(it.argv) for it in items], perf_counter() + 600)
        attempted, failed = run.check_run(workload, items, report, None)
        if failed:
            print(f"{name}: {failed} of {attempted} results fail their check", file=sys.stderr)
            return 1
        digests[name] = [d for out in report["outs"] for d in workload.digests(out)]
        print(f"{name}: {len(digests[name])} results")
    payload = {"seed": workloads.DEFAULT_SEED, "git_sha": run.git_sha(), "digests": digests}
    (run.HERE / "reference.json").write_text(json.dumps(payload, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
