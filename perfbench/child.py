"""One timed run of a workload, in a fresh interpreter.

Started by ``run.py`` as ``python3 perfbench/child.py TRACE ITEMS_JSON``
with ``PYTHONPATH=src``.  It imports ``lefschetz.cli`` and runs
``main(["--version"])``, which builds the argument parser as every CLI call
does, optionally wraps the layer functions, and prints ``READY``; the
parent's clock from spawn to that line is the set-up time.  Then it runs every item through ``lefschetz.cli.main`` in
order, one after another, capturing each item's output, and prints one JSON
line with the wall time, exit codes, outputs and any trace.
"""

import contextlib
import io
import json
import sys
from time import perf_counter

import lefschetz.cli as cli
from lefschetz import kernels

with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["--version"])  # builds the parser, as every call does

tracer = None
if sys.argv[1] == "1":
    import layertrace

    tracer = layertrace.Tracer()
    layertrace.install(tracer)

real_stdout = sys.stdout
real_stdout.write("READY\n")
real_stdout.flush()

items = json.loads(sys.argv[2])
codes = []
outs = []
errs = []
start = perf_counter()
for argv in items:
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        codes.append(cli.main(argv))
    outs.append(out.getvalue())
    errs.append(err.getvalue())
wall_s = perf_counter() - start

real_stdout.write(
    json.dumps(
        {
            "wall_s": wall_s,
            "codes": codes,
            "outs": outs,
            "errs": errs,
            "backend": kernels.BACKEND,
            "trace": tracer.report() if tracer else None,
        }
    )
    + "\n"
)
real_stdout.flush()
