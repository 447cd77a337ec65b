"""Benchmark for the ``lefschetz`` command line, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload wlp_sweep --seed 1 --seconds 20 --trace 0

Each timed run is a fresh interpreter (``python3 perfbench/child.py`` with
``PYTHONPATH=src``) that feeds the workload's items one after another to
``lefschetz.cli.main``: a closed loop with one client and no parallel jobs.
Runs repeat while another fits in ``--seconds`` (at least ``MIN_RUNS``).
``--trace 0`` reports the end-to-end metrics: set-up time is the 90th
percentile of about 60 samples and run time the second-slowest run, both
to track the host's steady slow state (see ``slow_wall``).  ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics of
the fastest traced one.  Every result of every run is
checked.  The last line of standard output is the JSON result; the line
before it holds the run metadata.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_RUNS = 3
SETUP_SPAWNS = 1  # set-up-only interpreters per timed run, on top of its own
DEADLINE_S = 170.0  # the whole invocation must end well inside 180 s

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}

_CALLS = ("kernels.rref_int", "kernels.det_bareiss", "exactla.rref", "exactla.rank",
          "exactla.reduce_mod_echelon", "exactla.determinant",
          "polyring.ideal_degree_slice", "quotient.slice", "quotient.multiplication_matrix")
_SELF = ("kernels.rref_int", "kernels.det_bareiss", "exactla.rref",
         "exactla.reduce_mod_echelon", "exactla.determinant", "polyring.ideal_degree_slice",
         "polyring.parse_ideal", "quotient.multiplication_matrix", "cli.main")
_LAYERS = ("kernels", "exactla", "polyring", "quotient", "family")

PER_LAYER = {  # name -> unit
    **{f"{f}.calls": "count" for f in _CALLS},
    **{f"{f}.self_s": "s" for f in _SELF},
    **{f"{layer}.self_s": "s" for layer in _LAYERS},
    "kernels.rref_int.nnz_in": "count",
    "polyring.ideal_degree_slice.rows": "count",
    "quotient.slice.hit_ratio": "ratio",
    "quotient.forms_per_verdict": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


class RunError(Exception):
    """A run could not be completed; no result is printed."""


def child_env() -> dict:
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("PYTHON", "LEFSCHETZ_"))  # no sweep cache, no backend switch
    }
    env["PYTHONPATH"] = "src"
    return env


def spawn(trace: bool, argvs: list, deadline: float) -> dict:
    """Run one child to completion; returns its report plus set-up time and
    peak resident memory, measured from this side."""
    cmd = [sys.executable, str(HERE / "child.py"), "1" if trace else "0", json.dumps(argvs)]
    start = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE
    )
    watchdog = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    watchdog.daemon = True
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest = proc.stdout.read()
        watchdog.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready != b"READY\n" or proc.returncode != 0:
        raise RunError(f"child failed with exit code {proc.returncode}")
    report = json.loads(rest)
    report["setup_s"] = setup_s
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    return report


def check_run(workload, items: list, report: dict, reference) -> tuple:
    """(results checked, results failed) for one run."""
    oks = []
    digests = []
    for item, code, out in zip(items, report["codes"], report["outs"]):
        oks += workload.check(item, code, out)
        if reference is not None:
            digests += workload.digests(out)
    if reference is not None:
        # the default seed also matches the verdict fields recorded at the
        # commit that introduced the benchmark, result by result
        oks = [
            ok and i < min(len(digests), len(reference)) and digests[i] == reference[i]
            for i, ok in enumerate(oks)
        ]
    return len(oks), oks.count(False)


def git_sha():
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def layer_metrics(traced: list, untraced_wall: float) -> dict:
    """Per-layer metrics from the fastest traced run (see ``best``)."""
    fastest = best(traced)
    trace = fastest["trace"]
    calls = trace["calls"]
    amounts = trace["amounts"]
    edges = {(p, c): n for p, c, n in trace["edges"]}
    self_s = trace["self_s"]
    trace_wall = fastest["wall_s"]
    out = {}
    for name in _CALLS:
        out[f"{name}.calls"] = calls[name]
    for name in _SELF:
        out[f"{name}.self_s"] = self_s[name]
    for layer in _LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    out["kernels.rref_int.nnz_in"] = amounts["kernels.rref_int.nnz_in"]
    out["polyring.ideal_degree_slice.rows"] = amounts["polyring.ideal_degree_slice.rows"]
    slices = calls["quotient.slice"]
    misses = edges.get(("quotient.slice", "polyring.ideal_degree_slice"), 0)
    out["quotient.slice.hit_ratio"] = (slices - misses) / slices if slices else 0.0
    checks = calls["quotient.check_wlp"] + calls["quotient.check_slp"]
    scans = calls["quotient.certify"] + calls["quotient.certify_powers"]
    out["quotient.forms_per_verdict"] = scans / checks if checks else 0.0
    out["trace.wall_s"] = trace_wall
    out["trace.overhead_frac"] = trace_wall / untraced_wall - 1.0
    return out


def best(reports: list) -> dict:
    """The fastest run: the least disturbed split of a traced run."""
    return min(reports, key=lambda r: r["wall_s"])


def slow_wall(reports: list) -> float:
    """Wall time of the second-slowest run.

    On a shared host the same run switches between a fast and a slow speed
    state, about 1.65x apart, for seconds to minutes at a time.  The slow
    state is steady and shows up in nearly every invocation, so the time of
    the slowest runs repeats across invocations far better than the median
    or the minimum, which jump with the mix of states.  The second-slowest
    rather than the slowest run keeps a single stray hiccup out.  The median
    is kept in the metadata.
    """
    return sorted(r["wall_s"] for r in reports)[-2]


def check_trace(workload, traced: list) -> None:
    for report in traced:
        trace = report["trace"]
        if trace["calls"] != traced[0]["trace"]["calls"]:
            raise RunError("call counts differ between traced runs of the same inputs")
        silent = [n for n in workload.expected_calls if trace["calls"][n] == 0]
        if silent:
            raise RunError(f"traced run recorded no calls to {', '.join(silent)}")
        total = sum(trace["self_s"].values())
        if total > report["wall_s"]:
            raise RunError(f"summed self time {total} exceeds traced wall {report['wall_s']}")


def run(name: str, seed: int, seconds: int, trace: bool, scale: str) -> tuple:
    """Returns (result line, metadata)."""
    began = perf_counter()
    deadline = began + DEADLINE_S
    workload = workloads.WORKLOADS[name]
    items = workload.items(seed, scale)
    argvs = [list(it.argv) for it in items]
    reference = None
    if seed == workloads.DEFAULT_SEED:
        reference = json.loads((HERE / "reference.json").read_text())["digests"][name]

    spawn(False, [], deadline)  # warm-up: byte-compiles the package once
    start = perf_counter()
    setups, plain, traced = [], [], []
    while True:
        began_round = perf_counter()
        if trace:
            plain.append(spawn(False, argvs, deadline))
            traced.append(spawn(True, argvs, deadline))
        else:
            # set-up samples spread over the whole run, like the timed runs
            setups += [spawn(False, [], deadline)["setup_s"] for _ in range(SETUP_SPAWNS)]
            plain.append(spawn(False, argvs, deadline))
        now = perf_counter()
        enough = len(plain) >= (1 if trace else MIN_RUNS)
        if enough and now + (now - began_round) - start > seconds:
            break  # another round would overrun the measuring time

    attempted = failed = 0
    for report in plain + traced:
        a, f = check_run(workload, items, report, reference)
        attempted += a
        failed += f
    results = sum(it.results for it in items)
    if trace:
        check_trace(workload, traced)
        metrics = layer_metrics(traced, best(plain)["wall_s"])
        units = PER_LAYER
    else:
        setups += [r["setup_s"] for r in plain]
        wall = slow_wall(plain)
        metrics = {
            "setup_s": statistics.quantiles(setups, n=10, method="inclusive")[-1],
            "wall_s": wall,
            "items_per_s": results / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END
    meta = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "trace": int(trace),
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "backend": plain[0]["backend"],
        "items_per_run": len(items),
        "results_per_run": results,
        "runs": len(plain),
        "traced_runs": len(traced),
        "setup_samples": len(setups),
        "setup_s_median": statistics.median(setups) if setups else None,
        "error_frac": failed / attempted,
        "wall_s_per_run": [r["wall_s"] for r in plain],
        "wall_s_median": statistics.median(r["wall_s"] for r in plain),
        "fresh_interpreter_per_run": True,
        "child_pythonpath": "src",
        "elapsed_s": perf_counter() - began,
    }
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return line, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=sorted(workloads.SCALES), default="full",
        help="input size; 'tiny' is for the smoke check only",
    )
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that ``spawn`` kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for needed in ("src/lefschetz/cli.py", "tests/value_oracles.py"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found under {ROOT}", file=sys.stderr)
            return 2
    try:
        line, meta = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except RunError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for k, m in line["metrics"].items():
        print(f"# {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
