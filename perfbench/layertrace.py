"""Per-layer spans recorded from outside the program.

``install()`` replaces every binding of each traced public function in the
loaded ``lefschetz`` modules with a timing wrapper.  A function imported by
name into another module (``quotient.ideal_degree_slice``) is the same object
as the original, so it is found and wrapped too.  Private helpers are left
alone: their cost is part of the self time of the public function that
calls them.

Self time is a span's duration minus the full duration (bookkeeping
included) of the wrapped calls inside it, so the self times of all spans
add up to at most the wall time around the outermost call.
"""

from __future__ import annotations

import sys
from math import comb
from time import perf_counter

# span name -> (module, attribute path)
TARGETS = {
    "cli.main": ("lefschetz.cli", "main"),
    "family.validate": ("lefschetz.family", "validate"),
    "family.build_ideal": ("lefschetz.family", "build_ideal"),
    "family.classify": ("lefschetz.family", "classify"),
    "family.random_sn": ("lefschetz.family", "random_sn"),
    "family.sn_det_identity": ("lefschetz.family", "sn_det_identity"),
    "quotient.slice": ("lefschetz.quotient", "GradedQuotient.slice"),
    "quotient.hilbert_data": ("lefschetz.quotient", "GradedQuotient.hilbert_data"),
    "quotient.multiplication_matrix": (
        "lefschetz.quotient",
        "GradedQuotient.multiplication_matrix",
    ),
    "quotient.certify": ("lefschetz.quotient", "GradedQuotient.certify"),
    "quotient.certify_powers": ("lefschetz.quotient", "GradedQuotient.certify_powers"),
    "quotient.check_wlp": ("lefschetz.quotient", "GradedQuotient.check_wlp"),
    "quotient.check_slp": ("lefschetz.quotient", "GradedQuotient.check_slp"),
    "polyring.parse_ideal": ("lefschetz.polyring", "parse_ideal"),
    "polyring.ideal_degree_slice": ("lefschetz.polyring", "ideal_degree_slice"),
    "exactla.rref": ("lefschetz.exactla", "rref"),
    "exactla.rank": ("lefschetz.exactla", "rank"),
    "exactla.reduce_mod_echelon": ("lefschetz.exactla", "reduce_mod_echelon"),
    "exactla.determinant": ("lefschetz.exactla", "determinant"),
    "kernels.rref_int": ("lefschetz.kernels", "rref_int"),
    "kernels.det_bareiss": ("lefschetz.kernels", "det_bareiss"),
}


def _nnz(args) -> int:
    return sum(len(r) for r in args[0])


def _slice_rows(args) -> int:
    ideal, degree = args
    return sum(
        comb(degree - g.degree + ideal.nvars - 1, ideal.nvars - 1)
        for g in ideal.generators
        if degree >= g.degree
    )


# extra per-call counts, computed outside the timed span
_AMOUNTS = {"kernels.rref_int": ("nnz_in", _nnz), "polyring.ideal_degree_slice": ("rows", _slice_rows)}


class Tracer:
    """Call counts, self times, per-call amounts and parent->child edges."""

    def __init__(self):
        self.calls = {name: 0 for name in TARGETS}
        self.self_s = {name: 0.0 for name in TARGETS}
        self.amounts = {f"{n}.{key}": 0 for n, (key, _) in _AMOUNTS.items()}
        self.edges = {}
        self._stack = []  # [name, time covered by wrapped children]

    def wrap(self, name, fn):
        calls, self_s, amounts, edges, stack = (
            self.calls, self.self_s, self.amounts, self.edges, self._stack,
        )
        amount_key, amount_of = _AMOUNTS.get(name, (None, None))
        if amount_key is not None:
            amount_key = f"{name}.{amount_key}"

        def traced(*args, **kwargs):
            enter = perf_counter()
            if amount_of is not None:
                amounts[amount_key] += amount_of(args)
            if stack:
                edge = (stack[-1][0], name)
                edges[edge] = edges.get(edge, 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                calls[name] += 1
                self_s[name] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += perf_counter() - enter

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def report(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "amounts": self.amounts,
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
        }


def install(tracer: Tracer) -> None:
    """Wrap every binding of every target; raise if a target is missing."""
    modules = {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "lefschetz" or name.startswith("lefschetz."))
    }
    for span, (modname, path) in TARGETS.items():
        if modname not in modules:
            raise LookupError(f"trace target module {modname} is not loaded")
        owner = modules[modname]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__.get(attr)
        if not callable(original):
            raise LookupError(f"trace target {modname}.{path} not found")
        wrapped = tracer.wrap(span, original)
        if outer:  # a method: its only binding is the class attribute
            setattr(owner, attr, wrapped)
            continue
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
