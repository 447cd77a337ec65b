"""Workload definitions: seeded inputs, output checks and trace predictions.

Every workload is a list of items.  An item is one ``lefschetz.cli.main``
argv plus the number of results it yields (a sweep yields one record per
family tuple).  Inputs depend only on the workload seed; the program under
test sees nothing but the generated argv.  Checks never call the program:
they use closed-form properties, ``tests/value_oracles.py`` (loaded
read-only) and, for the default seed, digests recorded at the commit that
introduced the benchmark.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent

DEFAULT_SEED = 0
HOLDS = "HOLDS"

# Result fields that carry a verdict; timings (``ms``) and any key a later
# change adds are ignored by the digest.
SWEEP_FIELDS = ("h", "D", "verdict", "certificate", "slp_verdict", "covered", "flags")
HILBERT_FIELDS = ("h", "socle_degree")
LEMMA_FIELDS = ("checked", "max_size", "max_entry", "all_positive", "counterexamples")

# Per scale: sweep a-range and batch sizes.  "tiny" inputs are prefixes of
# the "full" ones (sweeps enumerate a in increasing order, batches draw
# items in sequence), so the default-seed digests cover both.
SCALES = {
    "full": {"wlp_a_max": 5, "slp_a_max": 4, "hilbert_items": 100, "lemma_items": 40},
    "tiny": {"wlp_a_max": 3, "slp_a_max": 3, "hilbert_items": 6, "lemma_items": 3},
}

LEMMA_TRIALS = 16


@dataclass(frozen=True)
class Item:
    argv: tuple
    results: int  # records the item must produce
    oracle: object = None  # reference computed before any timed run


def _oracles():
    """Load ``tests/value_oracles.py`` by path, without importing ``tests``."""
    path = ROOT / "tests" / "value_oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_value_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------- sweeps


def family_tuples(a_max: int) -> list:
    """Valid (a, b, c, beta, gamma) in lexicographic order, straight from the
    parameter constraints: a >= c >= 2, 1 <= beta <= b-1,
    max(1, b-a+1) <= gamma <= min(b-1, c-1)."""
    out = []
    for a in range(2, a_max + 1):
        for b in range(2, 2 * a + 1):
            for c in range(2, a + 1):
                for beta in range(1, b):
                    for gamma in range(max(1, b - a + 1), min(b - 1, c - 1) + 1):
                        out.append((a, b, c, beta, gamma))
    return out


def wlp_items(seed: int, sizes: dict) -> list:
    a_max = sizes["wlp_a_max"]
    tuples = family_tuples(a_max)
    return [Item(("sweep", "--a-max", str(a_max), "--seed", str(seed)), len(tuples), tuples)]


def slp_items(seed: int, sizes: dict) -> list:
    a_max = sizes["slp_a_max"]
    tuples = family_tuples(a_max)
    argv = ("sweep", "--a-max", str(a_max), "--seed", str(seed), "--slp")
    return [Item(argv, len(tuples), tuples)]


def check_sweep(item: Item, rc: int, out: str) -> list:
    """Per-record pass/fail for one sweep output."""
    slp = "--slp" in item.argv
    lines = out.splitlines()
    tuples = item.oracle
    if len(lines) != len(tuples):
        return [False] * item.results
    oks = []
    any_fail = False
    for line, params in zip(lines, tuples):
        try:
            rec = json.loads(line)
        except ValueError:
            oks.append(False)
            continue
        a, b, c, beta, _ = params
        h = rec.get("h")
        socle = a + b + c - beta - 3
        verdicts = [rec.get("verdict")] + ([rec.get("slp_verdict")] if slp else [])
        any_fail = any_fail or any(v != HOLDS for v in verdicts)
        oks.append(
            tuple(rec.get(k) for k in ("a", "b", "c", "beta", "gamma")) == params
            and isinstance(h, list)
            and len(h) == socle + 1
            and rec.get("D") == socle
            and h == h[::-1]
            and h[-1] == 1
            and all(isinstance(v, int) and v > 0 for v in h)
            and all(v in (HOLDS, "FAILS_PROBABLY") for v in verdicts)
            and (rec.get("verdict") == HOLDS or not rec.get("covered"))
        )
    if rc != (2 if any_fail else 0):
        return [False] * item.results
    return oks


def sweep_records(out: str) -> list:
    return [json.loads(line) for line in out.splitlines()]


# ---------------------------------------------------------------- hilbert


_VARS = "xyz"


def _mono_text(e) -> str:
    parts = [
        v if k == 1 else f"{v}^{k}" for v, k in zip(_VARS, e) if k
    ]
    return "*".join(parts)


def _random_mono(rng: random.Random, degree: int) -> tuple:
    i = rng.randint(0, degree)
    j = rng.randint(0, degree - i)
    e = [i, j, degree - i - j]
    rng.shuffle(e)
    return tuple(e)


# Every (p, q, r) with entries 4..9; item i takes entry 97*i mod 216, so the
# sizes of a batch do not depend on the seed and one seed's batch costs
# about as much as another's.
_POWERS = [(p, q, r) for p in range(4, 10) for q in range(4, 10) for r in range(4, 10)]


def _ideal(rng: random.Random, i: int) -> tuple:
    """Item ``i``: pure powers x^p, y^q, z^r (so the quotient is Artinian
    below the default cap) plus one or two extra generators.  The sizes,
    the number of extras and their degrees follow a fixed schedule; the
    seed picks the variable order, monomials and coefficients.  Even items
    add monomials, odd items binomials.  A binomial always has two distinct
    monomials and nonzero coefficients, so it never cancels to zero."""
    binomial = i % 2 == 1
    powers = list(_POWERS[97 * i % len(_POWERS)])
    rng.shuffle(powers)
    gens = [((powers[0], 0, 0), 1), ((0, powers[1], 0), 1), ((0, 0, powers[2]), 1)]
    text = [_mono_text(g[0]) for g in gens]
    extras = []
    for k in range(1 + i // 2 % 2):
        degree = 2 + (3 * i + 5 * k) % (max(powers) - 1)
        m1 = _random_mono(rng, degree)
        if not binomial:
            extras.append(((m1, 1),))
            text.append(_mono_text(m1))
            continue
        m2 = m1
        while m2 == m1:
            m2 = _random_mono(rng, degree)
        c1 = rng.choice((1, 2, 3))
        c2 = rng.choice((-3, -2, -1, 1, 2, 3))
        extras.append(((m1, c1), (m2, c2)))
        sign = "-" if c2 < 0 else "+"
        t1 = _mono_text(m1) if c1 == 1 else f"{c1}*{_mono_text(m1)}"
        t2 = _mono_text(m2) if abs(c2) == 1 else f"{abs(c2)}*{_mono_text(m2)}"
        text.append(f"{t1} {sign} {t2}")
    monos = [g[0] for g in gens] + [t[0][0] for t in extras if len(t) == 1]
    binos = [t for t in extras if len(t) == 2]
    return ", ".join(text), monos, binos


def hilbert_items(seed: int, sizes: dict) -> list:
    rng = random.Random(f"hilbert_adhoc|{seed}")
    oracles = _oracles()
    items = []
    for i in range(sizes["hilbert_items"]):
        text, monos, binos = _ideal(rng, i)
        h = hilbert_reference(oracles, monos, binos)
        items.append(Item(("hilbert", "--ideal", text), 1, h))
    return items


def _divides(m, e) -> bool:
    return all(a <= b for a, b in zip(m, e))


def _degree_monos(degree: int) -> list:
    return [
        (i, j, degree - i - j)
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
    ]


def hilbert_reference(oracles, monos: list, binos: list) -> list:
    """h(0..socle) of R/I by the value oracles.

    Monomial-only ideals are counted by ``monomial_quotient_dims``.  With
    binomials, every multiple of a monomial generator is a unit row of the
    degree-d slice, so rank(slice) = #dead + rank(binomial rows restricted
    to the live monomials); ``naive_rank`` computes the second term.
    """
    dmax = sum(max(m) for m in monos[:3])
    if not binos:
        dims = oracles.monomial_quotient_dims(monos, 3, dmax)
    else:
        dims = []
        for d in range(dmax + 1):
            live = [e for e in _degree_monos(d) if not any(_divides(m, e) for m in monos)]
            col = {e: i for i, e in enumerate(live)}
            rows = set()  # primitive, leading entry positive: drops repeated multiples
            for bino in binos:
                shift = d - sum(bino[0][0])
                if shift < 0:
                    continue
                for s in _degree_monos(shift):
                    row = [0] * len(live)
                    for m, c in bino:
                        e = tuple(a + b for a, b in zip(m, s))
                        if e in col:
                            row[col[e]] += c
                    nonzero = [v for v in row if v]
                    if nonzero:
                        g = gcd(*nonzero) * (1 if nonzero[0] > 0 else -1)
                        rows.add(tuple(v // g for v in row))
            rank = oracles.naive_rank(sorted(rows)) if rows else 0
            dims.append(len(live) - rank)
    h = []
    for v in dims:
        if v == 0:
            break
        h.append(v)
    return h


def check_hilbert(item: Item, rc: int, out: str) -> list:
    try:
        rec = json.loads(out)
    except ValueError:
        return [False]
    h = item.oracle
    return [rc == 0 and rec.get("h") == h and rec.get("socle_degree") == len(h) - 1]


# ---------------------------------------------------------------- lemma


def lemma_items(seed: int, sizes: dict) -> list:
    rng = random.Random(f"lemma_det|{seed}")
    items = []
    for i in range(sizes["lemma_items"]):
        # sizes on a fixed schedule, matrices from the seed
        n = 30 + i % 11
        entry = 50 + 13 * i % 50
        item_seed = rng.randrange(2**31)
        argv = ("lemma", "--n", str(n), "--trials", str(LEMMA_TRIALS),
                "--max-entry", str(entry), "--seed", str(item_seed))
        items.append(Item(argv, 1, (n, entry)))
    return items


def check_lemma(item: Item, rc: int, out: str) -> list:
    try:
        rec = json.loads(out)
    except ValueError:
        return [False]
    n, entry = item.oracle
    return [
        rc == 0
        and rec.get("checked") == LEMMA_TRIALS
        and rec.get("counterexamples") == []
        and rec.get("all_positive") is True
        and rec.get("max_size") == n
        and rec.get("max_entry") == entry
    ]


# ---------------------------------------------------------------- registry


# Wrapped functions each workload must call at least once; a zero count in
# a traced run means a binding was renamed or moved and the trace is broken.
_SWEEP_CALLS = (
    "cli.main", "family.validate", "family.build_ideal", "family.classify",
    "quotient.slice", "quotient.multiplication_matrix", "quotient.certify",
    "quotient.check_wlp", "polyring.ideal_degree_slice", "exactla.rref",
    "exactla.rank", "exactla.reduce_mod_echelon", "kernels.rref_int",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fields: tuple  # verdict fields covered by the reference digests
    expected_calls: tuple
    make_items: Callable  # (seed, sizes) -> [Item]
    check: Callable  # (item, exit code, stdout) -> one bool per result

    def items(self, seed: int, scale: str) -> list:
        return self.make_items(seed, SCALES[scale])

    def digests(self, out: str) -> list:
        """Short digests of the verdict fields of each result."""
        try:
            recs = sweep_records(out) if self.name.endswith("_sweep") else [json.loads(out)]
        except ValueError:
            return ["unparsable"]
        return [
            hashlib.sha256(
                json.dumps([r.get(k) for k in self.fields], sort_keys=True).encode()
            ).hexdigest()[:16]
            for r in recs
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wlp_sweep",
            "sweep, WLP only, a <= 5: slice building and rref dominate; "
            "uses monomial short-circuits, integer rows and middle-degree criteria",
            SWEEP_FIELDS,
            _SWEEP_CALLS,
            wlp_items,
            check_sweep,
        ),
        Workload(
            "slp_sweep",
            "sweep --slp, a <= 4: power scan over cached slices, residue "
            "reduction and multiplication matrices dominate",
            SWEEP_FIELDS,
            _SWEEP_CALLS + ("quotient.certify_powers", "quotient.check_slp"),
            slp_items,
            check_sweep,
        ),
        Workload(
            "hilbert_adhoc",
            "hilbert --ideal on seeded monomial/binomial ideals: slice and "
            "kernel path without quotient multiplication or family code",
            HILBERT_FIELDS,
            ("cli.main", "polyring.parse_ideal", "quotient.slice",
             "polyring.ideal_degree_slice", "exactla.rref", "kernels.rref_int"),
            hilbert_items,
            check_hilbert,
        ),
        Workload(
            "lemma_det",
            "seeded lemma batches, n 30-40, entries up to 99: the only path "
            "through exactla.determinant and kernels.det_bareiss",
            LEMMA_FIELDS,
            ("cli.main", "family.random_sn", "family.sn_det_identity",
             "exactla.determinant", "kernels.det_bareiss"),
            lemma_items,
            check_lemma,
        ),
    )
}
