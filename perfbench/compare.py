"""Compare benchmark results of two commits.

    python3 perfbench/compare.py --base base_*.txt --new new_*.txt

Each file is the saved standard output of one ``run.py`` invocation (its
last line is the result).  Files are grouped by workload and trace mode.
For every metric the script prints the median of each side, the base
side's spread (distance between quartiles over its median), the change of
the median, and, for end-to-end metrics, whether the change stays within
the bound in ``BENCHMARK.json``.  Pass ten or more runs per side: on a
small shared machine single runs differ by more than most bounds.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths) -> dict:
    """(workload, trace) -> metric -> list of values."""
    groups = {}
    for path in paths:
        lines = Path(path).read_text().splitlines()
        meta = json.loads(lines[-2])["meta"]
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"warning: {path} reports {result['failed']} failed results", file=sys.stderr)
        group = groups.setdefault((meta["workload"], meta["trace"]), {})
        for name, m in result["metrics"].items():
            group.setdefault(name, []).append(m["value"])
    return groups


def spread(values) -> float:
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)
    worse = 0
    for key in sorted(base.keys() & new.keys()):
        print(f"== {key[0]} ({'traced' if key[1] else 'end to end'}), "
              f"{len(next(iter(base[key].values())))} base / {len(next(iter(new[key].values())))} new runs")
        for name in base[key]:
            if name not in new[key] or name not in metrics:
                continue
            b = statistics.median(base[key][name])
            n = statistics.median(new[key][name])
            change = (n - b) / abs(b) if b else 0.0
            line = (f"  {name:38s} {b:12.6g} -> {n:12.6g} {metrics[name]['unit']:6s}"
                    f" {change:+8.2%}  base spread {spread(base[key][name]):6.2%}")
            bound = metrics[name].get("bound")
            if bound is not None:
                loss = -change if metrics[name]["better"] == "higher" else change
                if spread(base[key][name]) > bound:
                    verdict = "unresolved"
                elif loss > bound:
                    verdict = "WORSE"
                    worse += 1
                else:
                    verdict = "within bound"
                line += f"  bound {bound:.0%}: {verdict}"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
