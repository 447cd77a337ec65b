"""Command line interface.

Subcommands: ``wlp`` and ``slp`` (single-tuple verdicts), ``classify``
(coverage flags only), ``sweep`` (exhaustive parameter sweeps with a
resumable JSON-lines cache and optional process parallelism), ``apery``
(numerical semigroup report), ``lemma`` (randomized determinant-identity
batches), and ``hilbert`` (Hilbert function tables for family, complete
intersection, or ad-hoc ideals).

Exit codes: 0 success / verdict HOLDS, 2 a FAILS_PROBABLY verdict, 3 usage
or validation problems, 4 an internal invariant violation.  The sweep cache
directory can be set once via the LEFSCHETZ_CACHE_DIR environment variable.

Every call pays for what importing this module loads, so ``csv`` and
``concurrent.futures`` (which pulls in ``multiprocessing``) are imported
inside the one branch that uses each: ``--format csv`` and ``sweep --jobs``
above 1, and ``pathlib`` only by a sweep with a cache.  The package's record
classes are slotted classes on :class:`lefschetz.record.Record`, not
dataclasses, whose import loads ``inspect``, ``ast`` and ``dis``.  For the
same reason a parser holds only the subparser of the subcommand it is for,
and each is built once per process and reused by every later call that
names that subcommand (see :func:`_parser_for`).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import lru_cache
from itertools import repeat
from time import perf_counter

from . import __version__, family, quotient, semigroup
from .polyring import PolyParseError, parse_ideal
from .quotient import FAILS_PROBABLY, HOLDS, GradedQuotient, SearchStrategy
from .record import Record

EXIT_OK = 0
EXIT_FAILS = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

CACHE_ENV = "LEFSCHETZ_CACHE_DIR"

# Last field of every sweep cache key.  Bump it in any change to what a
# verdict path computes or records, so older lines are recomputed instead
# of replayed.  Keys written before versioning have no such field.
# Version 2: family SLP verdicts are ranked through the socle pairing.
# Version 3: its functional is read off family.socle_monomials, and each
# Gram matrix is tested by its determinant before any rank.
# Version 4: the Hilbert vector is counted by family.hilbert_vector.
CACHE_VERSION = 4

CSV_COLUMNS = (
    "a",
    "b",
    "c",
    "beta",
    "gamma",
    "D",
    "h",
    "covered",
    "flags",
    "verdict",
    "certificate",
    "ms",
)

# every field _verdict_record writes; a cached record lacking one is malformed
_RECORD_FIELDS = frozenset(CSV_COLUMNS + ("slp_verdict",))
_VERDICTS = (HOLDS, FAILS_PROBABLY)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class SweepConfig(Record):
    """Sweep configuration; the cache key is (parameters, strategy, cache
    version)."""

    __slots__ = ("a_max", "a_min", "filter", "trials", "bound", "seed", "slp", "jobs")

    def __init__(
        self,
        a_max: int,
        a_min: int = 2,
        filter: str = "all",
        trials: int = 8,
        bound: int = 10_000,
        seed: int = 0,
        slp: bool = False,
        jobs: int = 1,
    ):
        if a_max < a_min or a_min < 2:
            raise ValueError("need 2 <= a_min <= a_max")
        SearchStrategy(trials, bound, seed)  # checks trials and bound
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if filter not in ("all", "covered", "uncovered"):
            raise ValueError(f"unknown filter {filter!r}")
        Record.__init__(
            self, a_max, a_min, filter, trials, bound, seed, slp, jobs
        )


def _tuple_seed(seed, params: family.GorensteinParams) -> str:
    # per-tuple seeds keep records independent of sweep order and job count
    p = params
    return f"{seed}|{p.a},{p.b},{p.c},{p.beta},{p.gamma}"


def _verdict_record(
    params: family.GorensteinParams, trials, bound, seed, with_slp: bool
) -> dict:
    """The record of one tuple, shared by single verdicts and sweeps, with
    the verdict paths of :class:`family.FamilyQuotient`."""
    start = perf_counter()
    q = family.FamilyQuotient(params)
    data = q.hilbert_data()
    coverage = family.classify(params)
    strategy = SearchStrategy(
        trials=trials, bound=bound, seed=_tuple_seed(seed, params)
    )
    report = q.check_wlp(strategy)
    slp_verdict = q.check_slp(strategy).verdict if with_slp else None
    ms = round((perf_counter() - start) * 1000.0, 1)
    return {
        "a": params.a,
        "b": params.b,
        "c": params.c,
        "beta": params.beta,
        "gamma": params.gamma,
        "D": data.socle_degree,
        "h": list(data.h),
        "covered": coverage.covered,
        "flags": list(coverage.true_flags()),
        "verdict": report.verdict,
        "certificate": (
            report.certificate_form.as_text()
            if report.certificate_form is not None
            else None
        ),
        "slp_verdict": slp_verdict,
        "ms": ms,
    }


def _compute_record(params: tuple, cfg: SweepConfig) -> dict:
    return _verdict_record(
        family.validate(*params), cfg.trials, cfg.bound, cfg.seed, cfg.slp
    )


def _record_csv_row(record: dict, with_slp: bool) -> list:
    row = [
        record["a"],
        record["b"],
        record["c"],
        record["beta"],
        record["gamma"],
        record["D"],
        " ".join(str(v) for v in record["h"]),
        "true" if record["covered"] else "false",
        ";".join(record["flags"]),
        record["verdict"],
        record["certificate"] or "",
        f"{record['ms']:.1f}",
    ]
    if with_slp:
        row.append(record["slp_verdict"] or "")
    return row


def _write_records(records, fmt: str, with_slp: bool, stream):
    if fmt == "csv":
        import csv

        writer = csv.writer(stream, lineterminator="\n")
        header = list(CSV_COLUMNS)
        if with_slp:
            header.append("slp_verdict")
        writer.writerow(header)
        for record in records:
            writer.writerow(_record_csv_row(record, with_slp))
    else:
        for record in records:
            stream.write(json.dumps(record, sort_keys=True) + "\n")


def _cache_key(params: tuple, cfg: SweepConfig) -> tuple:
    """Parameters, strategy and :data:`CACHE_VERSION`."""
    return params + (cfg.trials, cfg.bound, cfg.seed, cfg.slp, CACHE_VERSION)


def _resolve_cache_path(explicit, cfg: SweepConfig):
    if not explicit:
        env_dir = os.environ.get(CACHE_ENV)
        if not env_dir:
            return None
        explicit = os.path.join(
            env_dir,
            f"sweep-a{cfg.a_min}-{cfg.a_max}-{cfg.filter}"
            f"-t{cfg.trials}-b{cfg.bound}-s{cfg.seed}"
            f"{'-slp' if cfg.slp else ''}.jsonl",
        )
    from pathlib import Path  # only a sweep with a cache loads it

    return Path(explicit)


def _well_formed(key: tuple, r) -> bool:
    """Whether the cached record ``r`` has every field of
    :func:`_verdict_record`, of the type it writes, for the parameters
    ``key[:5]``."""
    if not isinstance(r, dict) or not _RECORD_FIELDS <= r.keys():
        return False
    params = (r["a"], r["b"], r["c"], r["beta"], r["gamma"])
    return (
        params == key[:5]
        and all(type(v) is int for v in params)
        and isinstance(r["h"], list)
        and all(type(v) is int for v in r["h"])
        and isinstance(r["flags"], list)
        and all(isinstance(f, str) for f in r["flags"])
        and type(r["D"]) is int
        and type(r["covered"]) is bool
        and r["verdict"] in _VERDICTS
        and r["slp_verdict"] in _VERDICTS + (None,)
        and (r["certificate"] is None or isinstance(r["certificate"], str))
        and type(r["ms"]) in (int, float)
    )


def _load_cache(path, cfg: SweepConfig) -> dict:
    """Records of this strategy and cache version from the cache file, by
    parameter tuple.

    Lines that are not a JSON object with a ``key`` list and a
    :func:`_well_formed` ``record`` are skipped and counted as malformed,
    and so are lines holding a byte that is not UTF-8: the cache is written
    by ``json.dumps``, which escapes everything outside ASCII, so a decoded
    U+FFFD marks such a byte even inside a JSON string.
    Well-formed lines of this strategy keyed by another
    :data:`CACHE_VERSION`, or by a key from before versioning, are skipped
    and counted as stale while no current line holds the same parameters.
    Nonzero counts are reported on stderr.
    """
    cached = {}
    if path is None or not path.exists():
        return cached
    malformed = 0
    other_version = []
    with path.open("r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if "\ufffd" in line:
                malformed += 1
                continue
            try:
                entry = json.loads(line)
                key = tuple(entry["key"])
                record = entry["record"]
            except (ValueError, KeyError, TypeError):
                malformed += 1
                continue
            if not _well_formed(key, record):
                malformed += 1
                continue
            current = _cache_key(key[:5], cfg)
            if key == current:
                cached[key[:5]] = record
            elif key[:9] == current[:9]:  # this strategy, another version
                other_version.append(key[:5])
    stale = sum(params not in cached for params in other_version)
    if malformed:
        print(
            f"warning: skipped {malformed} malformed line(s) in cache {path}",
            file=sys.stderr,
        )
    if stale:
        print(
            f"warning: skipped {stale} line(s) from another cache version "
            f"in cache {path}",
            file=sys.stderr,
        )
    return cached


def _run_sweep(cfg: SweepConfig, cache_path) -> tuple:
    """Compute or recall one record per tuple; returns (records, violations).

    Completed tuples are read back verbatim from the cache, so resuming a
    finished sweep performs no rank computations at all.
    """
    if cfg.filter == "covered":
        selected = [
            p
            for p in family.enumerate_params(cfg.a_max, cfg.a_min)
            if family.classify(p).covered
        ]
    elif cfg.filter == "uncovered":
        selected = list(family.uncovered_params(cfg.a_max, cfg.a_min))
    else:
        selected = list(family.enumerate_params(cfg.a_max, cfg.a_min))
    cached = _load_cache(cache_path, cfg)
    jobs = [p.as_tuple() for p in selected if p.as_tuple() not in cached]
    cache_fh = None
    if cache_path is not None and jobs:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        cache_fh = cache_path.open("a", encoding="utf-8")
        if cache_fh.tell():
            with cache_path.open("rb") as fh:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    # a sweep killed while writing cut its last line off;
                    # end that line so the next record starts one of its own
                    cache_fh.write("\n")
    try:
        if jobs:
            if cfg.jobs > 1:
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
                    results = pool.map(
                        _compute_record, jobs, repeat(cfg), chunksize=4
                    )
                    computed = list(_drain(results, jobs, cfg, cache_fh))
            else:
                results = map(_compute_record, jobs, repeat(cfg))
                computed = list(_drain(results, jobs, cfg, cache_fh))
            for params, record in zip(jobs, computed):
                cached[params] = record
    finally:
        if cache_fh is not None:
            cache_fh.close()
    records = [cached[p.as_tuple()] for p in selected]
    violations = [
        r for r in records if r["covered"] and r["verdict"] != HOLDS
    ]
    return records, violations


def _drain(results, jobs, cfg: SweepConfig, cache_fh):
    for params, record in zip(jobs, results):
        if cache_fh is not None:
            key = _cache_key(params, cfg)
            cache_fh.write(
                json.dumps({"key": key, "record": record}, sort_keys=True)
                + "\n"
            )
            cache_fh.flush()
        yield record


def _add_param_args(parser):
    parser.add_argument("-a", "--a", dest="a", type=int, required=True)
    parser.add_argument("-b", "--b", dest="b", type=int, required=True)
    parser.add_argument("-c", "--c", dest="c", type=int, required=True)
    parser.add_argument("--beta", dest="beta", type=int, required=True)
    parser.add_argument("--gamma", dest="gamma", type=int, required=True)


def _add_strategy_args(parser):
    parser.add_argument("--trials", type=int, default=8)
    parser.add_argument("--bound", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)


def _add_verdict_args(parser):
    _add_param_args(parser)
    _add_strategy_args(parser)


def _add_sweep_args(parser):
    parser.add_argument("--a-max", type=int, required=True)
    parser.add_argument("--a-min", type=int, default=2)
    parser.add_argument(
        "--filter", choices=("all", "covered", "uncovered"), default="all"
    )
    _add_strategy_args(parser)
    parser.add_argument("--slp", action="store_true")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cache", metavar="PATH")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", metavar="PATH")


def _add_apery_args(parser):
    parser.add_argument(
        "generators", help="comma-separated generators, e.g. 5,6,7,8"
    )


def _add_lemma_args(parser):
    parser.add_argument("--n", type=int, default=8, help="largest matrix size")
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--max-entry", type=int, default=9)
    parser.add_argument("--seed", type=int, default=0)


def _add_hilbert_args(parser):
    parser.add_argument("-a", "--a", dest="a", type=int)
    parser.add_argument("-b", "--b", dest="b", type=int)
    parser.add_argument("-c", "--c", dest="c", type=int)
    parser.add_argument("--beta", type=int)
    parser.add_argument("--gamma", type=int)
    parser.add_argument(
        "--ideal", metavar="TEXT", help="comma-separated generators in x, y, z"
    )
    parser.add_argument(
        "--cap",
        type=int,
        help="degree cap, at least --dmax; default: the sum of generator "
        "degrees, or --dmax if larger",
    )
    parser.add_argument(
        "--dmax", type=int, help="print h(0..dmax) instead of stopping at zero"
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def _build_parser(argv) -> _Parser:
    """The parser for ``argv``: that of the subcommand ``argv`` starts with,
    or else the full parser (see :func:`_parser_for`)."""
    return _parser_for(argv[0] if argv and argv[0] in _COMMANDS else None)


@lru_cache(maxsize=None)
def _parser_for(name) -> _Parser:
    """The parser of subcommand ``name``, or the full one for ``None``,
    built once per process.

    For a subcommand name, argparse hands the rest of ``argv`` to that one
    subparser, so it is the only one built: the other six subparsers and
    their options are most of the cost of the full parser and would never
    be read.  The full parser (``--help``, ``--version``, an unknown or
    missing subcommand) gets every subcommand, so that help and errors list
    them all.

    Reuse is sound because ``parse_args`` keeps no state on a parser
    between calls: each call fills a fresh ``Namespace`` with the defaults
    and parses into it, a subparser parses into a fresh namespace of its
    own that is then copied over, and help and usage text is formatted
    anew on each request.  Every default is an int, a string, ``False`` or
    ``None``, so no call can change one.  So a call parses as it would on
    a new parser.
    """
    parser = _Parser(
        prog="lefschetz",
        description="Exact Lefschetz-property verdicts and related reports.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _COMMANDS if name is None else (name,):
        help_line, add_args, _ = _COMMANDS[cmd]
        add_args(sub.add_parser(cmd, help=help_line))
    return parser


def _single_verdict(args) -> int:
    want_slp = args.command == "slp"
    params = family.validate(args.a, args.b, args.c, args.beta, args.gamma)
    record = _verdict_record(
        params, args.trials, args.bound, args.seed, want_slp
    )
    print(json.dumps(record, indent=2, sort_keys=True))
    if record["covered"] and record["verdict"] != HOLDS:
        print(
            "INTERNAL ERROR: tuple "
            f"{params.as_tuple()} is covered by {tuple(record['flags'])} "
            f"but the verdict is {record['verdict']}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    decisive = record["slp_verdict"] if want_slp else record["verdict"]
    return EXIT_OK if decisive == HOLDS else EXIT_FAILS


def _cmd_classify(args) -> int:
    params = family.validate(args.a, args.b, args.c, args.beta, args.gamma)
    coverage = family.classify(params)
    print(
        json.dumps(
            {
                "a": params.a,
                "b": params.b,
                "c": params.c,
                "beta": params.beta,
                "gamma": params.gamma,
                "D": params.socle_degree,
                "flags": coverage.flags(),
                "covered": coverage.covered,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = SweepConfig(
        a_max=args.a_max,
        a_min=args.a_min,
        filter=args.filter,
        trials=args.trials,
        bound=args.bound,
        seed=args.seed,
        slp=args.slp,
        jobs=args.jobs,
    )
    cache_path = _resolve_cache_path(args.cache, cfg)
    records, violations = _run_sweep(cfg, cache_path)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write_records(records, args.format, cfg.slp, fh)
    else:
        _write_records(records, args.format, cfg.slp, sys.stdout)
    if violations:
        for record in violations:
            print(
                "INTERNAL ERROR: covered tuple "
                f"({record['a']}, {record['b']}, {record['c']}, "
                f"{record['beta']}, {record['gamma']}) with flags "
                f"{record['flags']} got verdict {record['verdict']}",
                file=sys.stderr,
            )
        return EXIT_INTERNAL
    if any(r["verdict"] == FAILS_PROBABLY for r in records) or (
        cfg.slp and any(r["slp_verdict"] == FAILS_PROBABLY for r in records)
    ):
        return EXIT_FAILS
    return EXIT_OK


def _cmd_apery(args) -> int:
    try:
        gens = [int(chunk) for chunk in args.generators.split(",") if chunk.strip()]
    except ValueError:
        raise _UsageError(
            f"generators must be comma-separated integers, got "
            f"{args.generators!r}"
        ) from None
    sgp = semigroup.NumericalSemigroup(gens)
    ap = sgp.apery()
    ok, failures = sgp.is_m_pure_symmetric()
    print(
        json.dumps(
            {
                "generators": list(sgp.generators),
                "multiplicity": sgp.multiplicity,
                "apery": list(ap.elements),
                "orders": list(ap.orders),
                "m_pure_symmetric": ok,
                "failures": [list(f) for f in failures],
                "order_histogram": list(sgp.order_histogram()),
            },
            indent=2,
            sort_keys=True,
        )
    )
    return EXIT_OK


def _cmd_lemma(args) -> int:
    if args.n < 2:
        raise _UsageError("--n must be at least 2")
    if args.trials < 0:
        raise _UsageError("--trials must be nonnegative")
    rng = random.Random(args.seed)
    counterexamples = []
    all_equal = all_positive = True
    for _ in range(args.trials):
        size = rng.randint(2, args.n)
        matrix = family.random_sn(size, args.max_entry, rng)
        check = family.sn_det_identity(matrix)
        all_equal = all_equal and check.equal
        all_positive = all_positive and check.positive
        if not (check.equal and check.positive):
            counterexamples.append(
                {
                    "size": matrix.size,
                    "upper": [list(row) for row in matrix.upper],
                    "last_row": list(matrix.last_row),
                    "det": str(check.det),
                    "alpha_last": check.alpha_last,
                }
            )
    print(
        json.dumps(
            {
                "checked": args.trials,
                "max_size": args.n,
                "max_entry": args.max_entry,
                "seed": args.seed,
                "all_equal": all_equal,
                "all_positive": all_positive,
                "counterexamples": counterexamples,
            },
            indent=2,
            sort_keys=True,
        )
    )
    if counterexamples:
        print(
            f"INTERNAL ERROR: {len(counterexamples)} determinant identity "
            "counterexamples found",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    return EXIT_OK


def _cmd_hilbert(args) -> int:
    if args.cap is not None and args.cap < 1:
        raise _UsageError("degree cap must be positive")
    if args.dmax is not None and args.dmax < 0:
        raise _UsageError("--dmax must be nonnegative")
    if None not in (args.cap, args.dmax) and args.cap < args.dmax:
        raise _UsageError(f"--cap {args.cap} is below --dmax {args.dmax}")
    if args.ideal:
        ideal = parse_ideal(args.ideal)
    elif None not in (args.a, args.b, args.c, args.gamma):
        if args.beta is not None:
            params = family.validate(args.a, args.b, args.c, args.beta, args.gamma)
            ideal = family.build_ideal(params)
        else:
            ideal = family.build_ci(args.a, args.b, args.c, args.gamma)
    else:
        raise _UsageError(
            "provide --ideal TEXT, or -a -b -c --gamma "
            "(plus --beta for the full family)"
        )
    cap = args.cap
    if cap is None:
        cap = max(sum(g.degree for g in ideal.generators), args.dmax or 0)
    q = GradedQuotient(ideal, degree_cap=cap)
    if args.dmax is not None:
        # once A_d = 0, every later piece is 0 too, as A_{d+1} = A_1 * A_d;
        # so degrees past the first zero are 0 without building a slice
        values = []
        for d in range(args.dmax + 1):
            values.append(q.hilbert(d) if not values or values[-1] else 0)
        payload = {"h": values, "socle_degree": None}
    else:
        data = q.hilbert_data()
        values = list(data.h)
        payload = {"h": values, "socle_degree": data.socle_degree}
    if args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["d", "h"])
        for d, h in enumerate(values):
            writer.writerow([d, h])
    else:
        print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


# subcommand -> (help line, function adding its options, handler), in help
# order
_COMMANDS = {
    "wlp": ("weak Lefschetz verdict for one tuple", _add_verdict_args, _single_verdict),
    "slp": (
        "strong Lefschetz verdict for one tuple",
        _add_verdict_args,
        _single_verdict,
    ),
    "classify": ("coverage flags for one tuple", _add_param_args, _cmd_classify),
    "sweep": ("verdicts for every valid tuple", _add_sweep_args, _cmd_sweep),
    "apery": ("numerical semigroup report", _add_apery_args, _cmd_apery),
    "lemma": ("randomized determinant-identity batch", _add_lemma_args, _cmd_lemma),
    "hilbert": ("Hilbert function table", _add_hilbert_args, _cmd_hilbert),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv).parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as err:  # --help / --version
        return err.code or 0
    try:
        return _COMMANDS[args.command][2](args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (
        family.ParameterError,
        PolyParseError,
        quotient.NotArtinianWithinCapError,
        ValueError,
        OSError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
