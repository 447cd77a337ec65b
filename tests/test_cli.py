import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lefschetz import __version__, cli, family, quotient
from lefschetz.quotient import FAILS_PROBABLY, GradedQuotient, LefschetzReport


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def test_wlp_json_and_exit_zero(capsys):
    code, out, _ = run(
        ["wlp", "-a", "2", "-b", "2", "-c", "2", "--beta", "1", "--gamma", "1"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "HOLDS"
    assert record["certificate"] == "x - y - z"
    assert record["h"] == [1, 3, 1]
    assert record["D"] == 2
    assert record["covered"] is True
    assert "thm37" in record["flags"]


def test_slp_json(capsys):
    code, out, _ = run(
        ["slp", "-a", "3", "-b", "3", "-c", "2", "--beta", "1", "--gamma", "1"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["slp_verdict"] == "HOLDS"


def test_classify_output(capsys):
    code, out, _ = run(
        ["classify", "-a", "8", "-b", "7", "-c", "6", "--beta", "3", "--gamma", "2"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["covered"] is False
    assert record["D"] == 15
    assert set(record["flags"]) == {
        "thm37",
        "thm38",
        "cor313a",
        "cor313b",
        "small2",
        "small3",
        "small4",
        "small5",
    }
    assert not any(record["flags"].values())


def test_invalid_params_exit_three(capsys):
    code, _, err = run(
        ["wlp", "-a", "3", "-b", "2", "-c", "4", "--beta", "1", "--gamma", "1"],
        capsys,
    )
    assert code == 3
    assert "a >= c >= 2" in err


def test_missing_argument_exit_three(capsys):
    code, _, err = run(["wlp", "-a", "2", "-b", "2", "-c", "2"], capsys)
    assert code == 3
    assert "error:" in err


def test_unknown_command_exit_three(capsys):
    code, _, err = run(["frobnicate"], capsys)
    assert code == 3


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def _subcommands(parser):
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def test_parser_builds_only_the_named_subcommand():
    assert list(_subcommands(cli._build_parser(["hilbert", "--dmax", "3"]))) == [
        "hilbert"
    ]
    for argv in ([], ["--help"], ["--version"], ["frobnicate"], ["-h", "wlp"]):
        assert list(_subcommands(cli._build_parser(argv))) == list(cli._COMMANDS)


PARSE_CASES = [
    ["wlp", "-a", "3", "-b", "2", "-c", "2", "--beta", "1", "--gamma", "1"],
    ["slp", "-a", "3", "-b", "3", "-c", "2", "--beta", "1", "--gamma", "1",
     "--trials", "4", "--seed", "9"],
    ["classify", "-a", "8", "-b", "7", "-c", "6", "--beta", "3", "--gamma", "2"],
    ["sweep", "--a-max", "4", "--slp", "--format", "csv", "--jobs", "2"],
    ["apery", "5,6,7,8"],
    ["lemma", "--n", "30", "--max-entry", "99"],
    ["hilbert", "--ideal", "x^2, y^2, z^2", "--dmax", "6"],
    ["wlp", "-a", "2", "-b", "2", "-c", "2"],
    ["sweep", "--a-max", "3", "--filter", "some"],
    ["hilbert", "--dmax", "x"],
    ["lemma", "extra"],
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda argv: " ".join(argv))
def test_one_subcommand_parser_parses_like_the_full_one(argv):
    def parse(parser):
        try:
            return parser.parse_args(argv)
        except cli._UsageError as err:
            return str(err)

    full = cli._build_parser([])
    assert parse(cli._build_parser(argv)) == parse(full)


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_one_subcommand_parser_prints_the_same_help(name):
    one = _subcommands(cli._build_parser([name]))[name]
    full = _subcommands(cli._build_parser([]))[name]
    assert one.format_help() == full.format_help()


def test_build_parser_reuses_one_parser_per_subcommand():
    hilbert = cli._build_parser(["hilbert", "--ideal", "x^2", "--dmax", "3"])
    assert cli._build_parser(["hilbert", "--format", "csv"]) is hilbert
    assert cli._build_parser(["wlp"]) is not hilbert
    full = cli._build_parser([])
    for argv in (["--help"], ["--version"], ["frobnicate"], ["-h", "wlp"]):
        assert cli._build_parser(argv) is full
    # a reused parser starts each parse from its defaults
    ideal = ["hilbert", "--ideal", "x^2, y^2, z^2"]
    assert hilbert.parse_args(ideal + ["--dmax", "3"]).dmax == 3
    assert hilbert.parse_args(ideal).dmax is None


REUSE_SEQUENCE = [
    ["hilbert", "--ideal", "x^2, y^2, z^2", "--dmax", "3"],
    ["hilbert", "--ideal", "x^2, y^2, z^2"],
    ["hilbert", "--dmax", "x"],
    ["--help"],
    ["--version"],
    ["wlp", "-a", "3", "-b", "2", "-c", "2", "--beta", "1", "--gamma", "1"],
]


def test_reused_parsers_answer_like_fresh_ones(capsys):
    def call(argv):
        code, out, err = run(argv, capsys)
        return code, re.sub(r'"ms": [0-9.]+', '"ms"', out), err

    cli._parser_for.cache_clear()
    reused = [call(argv) for argv in REUSE_SEQUENCE]
    fresh = []
    for argv in REUSE_SEQUENCE:
        cli._parser_for.cache_clear()
        fresh.append(call(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 3, 0, 0, 0]
    # the second call's dmax is None, so it reports the socle degree
    assert json.loads(reused[1][1]) == {"h": [1, 3, 3, 1], "socle_degree": 3}


def test_help_lists_every_subcommand(capsys):
    code, out, _ = run(["--help"], capsys)
    assert code == 0
    assert out.startswith("usage: lefschetz")
    for name, (help_line, _, _) in cli._COMMANDS.items():
        assert name in out and help_line in out
    code, out, _ = run(["hilbert", "--help"], capsys)
    assert code == 0
    assert out.startswith("usage: lefschetz hilbert")
    code, out, _ = run(["--version"], capsys)
    assert code == 0
    assert out == __version__ + "\n"


def test_forced_failure_exit_two(capsys, monkeypatch):
    def fake_check_wlp(self, strategy=None):
        return LefschetzReport(FAILS_PROBABLY, None, (), {})

    monkeypatch.setattr(GradedQuotient, "check_wlp", fake_check_wlp)
    # (8,7,6,3,2) is uncovered, so a failure is a finding, not a bug
    code, out, _ = run(
        ["wlp", "-a", "8", "-b", "7", "-c", "6", "--beta", "3", "--gamma", "2"],
        capsys,
    )
    assert code == 2
    assert json.loads(out)["verdict"] == FAILS_PROBABLY


def test_covered_failure_exit_four(capsys, monkeypatch):
    def fake_check_wlp(self, strategy=None):
        return LefschetzReport(FAILS_PROBABLY, None, (), {})

    monkeypatch.setattr(GradedQuotient, "check_wlp", fake_check_wlp)
    code, _, err = run(
        ["wlp", "-a", "2", "-b", "2", "-c", "2", "--beta", "1", "--gamma", "1"],
        capsys,
    )
    assert code == 4
    assert "INTERNAL ERROR" in err


def _strip_ms(records):
    return [{k: v for k, v in r.items() if k != "ms"} for r in records]


def test_sweep_json_deterministic(capsys):
    code, out1, _ = run(["sweep", "--a-max", "3"], capsys)
    assert code == 0
    code, out2, _ = run(["sweep", "--a-max", "3"], capsys)
    assert code == 0
    first, second = json_lines(out1), json_lines(out2)
    assert len(first) == 12
    assert _strip_ms(first) == _strip_ms(second)
    tuples = [(r["a"], r["b"], r["c"], r["beta"], r["gamma"]) for r in first]
    assert tuples == [p.as_tuple() for p in family.enumerate_params(3)]
    assert all(r["verdict"] == "HOLDS" for r in first)


def test_sweep_csv_shape(capsys):
    code, out, _ = run(["sweep", "--a-max", "3", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(cli.CSV_COLUMNS)
    assert len(rows) == 13
    header = rows[0]
    first = dict(zip(header, rows[1]))
    assert first["h"] == "1 3 1"
    assert first["covered"] == "true"
    assert "thm37" in first["flags"].split(";")


def test_sweep_slp_adds_column(capsys):
    code, out, _ = run(
        ["sweep", "--a-max", "2", "--slp", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][-1] == "slp_verdict"
    assert rows[1][-1] == "HOLDS"


def test_sweep_filter_uncovered(capsys):
    code, out, _ = run(["sweep", "--a-max", "6", "--filter", "uncovered"], capsys)
    assert code == 0
    records = json_lines(out)
    expected = [p.as_tuple() for p in family.uncovered_params(6)]
    assert [(r["a"], r["b"], r["c"], r["beta"], r["gamma"]) for r in records] == expected
    assert all(not r["covered"] for r in records)
    assert all(r["verdict"] == "HOLDS" for r in records)


def test_sweep_cache_resume_recomputes_nothing(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "sweep.jsonl"
    code, out1, _ = run(["sweep", "--a-max", "3", "--cache", str(cache)], capsys)
    assert code == 0
    assert cache.exists()

    def boom(params, cfg):
        raise AssertionError("resume must not recompute records")

    monkeypatch.setattr(cli, "_compute_record", boom)
    code, out2, _ = run(["sweep", "--a-max", "3", "--cache", str(cache)], capsys)
    assert code == 0
    assert out1 == out2  # byte-identical, timing column included


def test_sweep_cache_reports_malformed_lines(capsys, tmp_path):
    cache = tmp_path / "sweep.jsonl"
    code, out1, err = run(["sweep", "--a-max", "3", "--cache", str(cache)], capsys)
    assert (code, err) == (0, "")
    key = json.dumps(cli._cache_key((2, 2, 2, 1, 1), cli.SweepConfig(a_max=3)))
    good = json.loads(cache.read_text().splitlines()[0])["record"]
    bad = [("h", 5), ("flags", 5), ("a", 3), ("ms", True), ("gamma", True)]
    with cache.open("a", encoding="utf-8") as fh:
        fh.write('{"key": [2, 2, 2, 1\n')
        # a matching key whose record is not a full record
        fh.write('{"key": %s, "record": {}}\n' % key)
        fh.write('{"key": %s, "record": 5}\n' % key)
        # full records with a field of the wrong type or for another tuple
        for field, value in bad:
            record = dict(good, **{field: value})
            fh.write('{"key": %s, "record": %s}\n' % (key, json.dumps(record)))
    # bytes that are not UTF-8: alone, and inside a string of a full record
    line = json.dumps({"key": json.loads(key), "record": good}).encode()
    assert good["certificate"] and line.count(b" - ") == 2
    with cache.open("ab") as fh:
        fh.write(b"\xff\n")
        fh.write(line.replace(b" - ", b" \xff ", 1) + b"\n")
    code, out2, err = run(["sweep", "--a-max", "3", "--cache", str(cache)], capsys)
    assert code == 0
    assert out1 == out2
    assert err == f"warning: skipped 10 malformed line(s) in cache {cache}\n"
    code, csv_out, err = run(
        ["sweep", "--a-max", "2", "--cache", str(cache), "--format", "csv"], capsys
    )
    assert code == 0 and csv_out.count("\n") == 2


def test_sweep_cache_resumes_after_a_cut_off_line(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "sweep.jsonl"
    argv = ["sweep", "--a-max", "3", "--cache", str(cache)]
    code, full, _ = run(argv, capsys)
    assert code == 0
    text = cache.read_text()
    # a sweep killed while writing its last record
    cache.write_text(text[: text.rindex("\n", 0, -1) + 20])
    warning = f"warning: skipped 1 malformed line(s) in cache {cache}\n"
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, warning)
    assert _strip_ms(json_lines(out)) == _strip_ms(json_lines(full))
    # the recomputed record sits on a line of its own and is replayed
    assert len(cache.read_text().splitlines()) == len(text.splitlines()) + 1

    def recompute(params, cfg):
        raise AssertionError(f"{params} recomputed")

    monkeypatch.setattr(cli, "_compute_record", recompute)
    assert run(argv, capsys) == (0, out, warning)


def test_sweep_cache_recomputes_other_versions(capsys, tmp_path):
    cache = tmp_path / "sweep.jsonl"
    code, fresh, _ = run(["sweep", "--a-max", "2"], capsys)
    assert code == 0
    good = json_lines(fresh)[0]
    # well-formed records with a wrong verdict, under the 9-field key from
    # before versioning and under the current key with another version
    wrong = dict(good, verdict="FAILS_PROBABLY", certificate=None, h=[1])
    current = list(cli._cache_key((2, 2, 2, 1, 1), cli.SweepConfig(a_max=2)))
    for key in (current[:9], current[:9] + [cli.CACHE_VERSION + 1]):
        with cache.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"key": key, "record": wrong}) + "\n")
    code, out, err = run(["sweep", "--a-max", "2", "--cache", str(cache)], capsys)
    assert code == 0
    assert _strip_ms(json_lines(out)) == _strip_ms([good])
    assert err == (
        f"warning: skipped 2 line(s) from another cache version in cache {cache}\n"
    )
    # the recomputed record is appended under the current key and replayed
    assert json.loads(cache.read_text().splitlines()[-1])["key"] == current
    # and the stale lines, now shadowed by a current one, are not reported
    code, again, err = run(["sweep", "--a-max", "2", "--cache", str(cache)], capsys)
    assert (code, again, err) == (0, out, "")


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
def test_sweep_cache_recomputes_old_slp_lines(capsys, tmp_path, version):
    """A sweep --slp line under an older cache version is recomputed, not
    replayed, and the record is appended under the current key.  Version 1
    ranked family SLP maps by multiplication matrices, version 2 read the
    socle functional off slice D and ranked every Gram matrix with the
    sparse kernel, version 3 mirrored the Hilbert vector from its lower
    half, version 4 scanned for WLP even when the fixed form had
    certified SLP, and version 5 built each Gram over the standard
    monomials of a slice and counted h by window sums."""
    assert cli.CACHE_VERSION == 6
    cache = tmp_path / "sweep.jsonl"
    argv = ["sweep", "--a-max", "2", "--slp"]
    code, fresh, _ = run(argv, capsys)
    assert code == 0
    good = json_lines(fresh)[0]
    wrong = dict(good, slp_verdict="FAILS_PROBABLY")
    cfg = cli.SweepConfig(a_max=2, slp=True)
    current = list(cli._cache_key((2, 2, 2, 1, 1), cfg))
    old = current[:9] + [version]
    cache.write_text(json.dumps({"key": old, "record": wrong}) + "\n")
    code, out, err = run(argv + ["--cache", str(cache)], capsys)
    assert code == 0
    assert _strip_ms(json_lines(out)) == _strip_ms([good])
    assert err == (
        f"warning: skipped 1 line(s) from another cache version in cache {cache}\n"
    )
    assert json.loads(cache.read_text().splitlines()[-1])["key"] == current


def test_sweep_bad_strategy_exit_three(capsys):
    # no tuple is uncovered at a = 2, so only the config check can object
    for flag, message in (("--trials", "trials"), ("--bound", "bound")):
        code, out, err = run(
            ["sweep", "--a-max", "2", "--filter", "uncovered", flag, "0"], capsys
        )
        assert (code, out) == (3, "")
        assert err == f"error: {message} must be at least 1\n"


def test_sweep_cache_ignores_other_strategies(capsys, tmp_path):
    cache = tmp_path / "sweep.jsonl"
    run(["sweep", "--a-max", "2", "--cache", str(cache), "--seed", "1"], capsys)
    code, out, _ = run(
        ["sweep", "--a-max", "2", "--cache", str(cache), "--seed", "2"], capsys
    )
    assert code == 0
    # both strategies now cached separately
    lines = cache.read_text().splitlines()
    assert len(lines) == 2


def test_sweep_cache_dir_from_environment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, _, _ = run(["sweep", "--a-max", "2"], capsys)
    assert code == 0
    files = list(tmp_path.glob("sweep-*.jsonl"))
    assert len(files) == 1
    assert "a2-2-all" in files[0].name


def test_sweep_out_file(capsys, tmp_path):
    target = tmp_path / "out.csv"
    code, out, _ = run(
        ["sweep", "--a-max", "2", "--format", "csv", "--out", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    rows = target.read_text().splitlines()
    assert rows[0] == ",".join(cli.CSV_COLUMNS)
    assert len(rows) == 2


def test_sweep_parallel_matches_serial(capsys):
    code, serial, _ = run(["sweep", "--a-max", "3"], capsys)
    assert code == 0
    code, parallel, _ = run(["sweep", "--a-max", "3", "--jobs", "2"], capsys)
    assert code == 0
    assert _strip_ms(json_lines(serial)) == _strip_ms(json_lines(parallel))


def test_apery_report(capsys):
    code, out, _ = run(["apery", "5,6,7,8"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["apery"] == [0, 6, 7, 8, 14]
    assert record["m_pure_symmetric"] is True
    assert record["order_histogram"] == [1, 3, 1]
    code, out, _ = run(["apery", "4,5,6,7"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["m_pure_symmetric"] is False
    assert [2, "sum"] in record["failures"]


def test_apery_bad_input_exit_three(capsys):
    code, _, err = run(["apery", "4,6"], capsys)
    assert code == 3
    assert "gcd" in err
    code, _, _ = run(["apery", "five,six"], capsys)
    assert code == 3


def test_lemma_deterministic_and_clean(capsys):
    argv = ["lemma", "--n", "5", "--trials", "40", "--seed", "7"]
    code, out1, _ = run(argv, capsys)
    assert code == 0
    record = json.loads(out1)
    assert record["checked"] == 40
    assert record["all_equal"] and record["all_positive"]
    assert record["counterexamples"] == []
    code, out2, _ = run(argv, capsys)
    assert out1 == out2


def test_lemma_summary_fields_use_their_own_flags(capsys, monkeypatch):
    real = family.sn_det_identity

    def unequal_but_positive(matrix):
        check = real(matrix)
        return family.SnCheck(check.det, check.alpha_last, False, True)

    monkeypatch.setattr(family, "sn_det_identity", unequal_but_positive)
    code, out, _ = run(["lemma", "--n", "4", "--trials", "3"], capsys)
    assert code == cli.EXIT_INTERNAL
    record = json.loads(out)
    assert record["all_equal"] is False
    assert record["all_positive"] is True
    assert len(record["counterexamples"]) == 3


def test_lemma_bad_size_exit_three(capsys):
    code, _, _ = run(["lemma", "--n", "1"], capsys)
    assert code == 3


def test_hilbert_family_and_ci(capsys):
    code, out, _ = run(
        ["hilbert", "-a", "2", "-b", "2", "-c", "2", "--beta", "1", "--gamma", "1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out) == {"h": [1, 3, 1], "socle_degree": 2}
    code, out, _ = run(
        ["hilbert", "-a", "3", "-b", "3", "-c", "2", "--gamma", "1"], capsys
    )
    assert code == 0
    assert json.loads(out) == {"h": [1, 3, 5, 5, 3, 1], "socle_degree": 5}


def test_hilbert_adhoc_ideal_and_csv(capsys):
    code, out, _ = run(["hilbert", "--ideal", "x^3, y^3, z^3, x*y*z"], capsys)
    assert code == 0
    assert json.loads(out) == {"h": [1, 3, 6, 6, 3], "socle_degree": 4}
    code, out, _ = run(
        ["hilbert", "--ideal", "x^2, y^2, z^2", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["d", "h"], ["0", "1"], ["1", "3"], ["2", "3"], ["3", "1"]]


def test_hilbert_dmax_table(capsys):
    code, out, _ = run(
        ["hilbert", "--ideal", "x^2", "--dmax", "4"], capsys
    )
    assert code == 0
    assert json.loads(out) == {"h": [1, 3, 5, 7, 9], "socle_degree": None}


def test_hilbert_dmax_builds_no_slice_past_the_first_zero(capsys, monkeypatch):
    built = []
    slice_of = quotient.ideal_degree_slice

    def counting_slice(ideal, degree):
        built.append(degree)
        return slice_of(ideal, degree)

    monkeypatch.setattr(quotient, "ideal_degree_slice", counting_slice)
    code, out, _ = run(
        ["hilbert", "--ideal", "x^2, y^2, z^2", "--dmax", "40"], capsys
    )
    assert code == 0
    assert json.loads(out)["h"] == [1, 3, 3, 1] + [0] * 37
    assert max(built) <= 4


def test_hilbert_parse_error_exit_three(capsys):
    code, _, err = run(["hilbert", "--ideal", "x^2, y^#"], capsys)
    assert code == 3
    assert "position" in err


def test_hilbert_not_artinian_exit_three(capsys):
    code, _, err = run(["hilbert", "--ideal", "x^2", "--cap", "6"], capsys)
    assert code == 3
    assert "cap" in err


def _python_src(args, timeout=60):
    """Run ``python args`` with ``src`` on the import path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=dict(os.environ, PYTHONPATH=src),
    )


def test_hilbert_huge_default_cap_not_artinian_exits_at_once():
    # the default cap is the sum of generator degrees; a scan to it would
    # not finish
    for ideal, cap in (
        ("x^99999999", 99999999),
        ("x^99999999 + y^99999999 + z^99999999", 99999999),
    ):
        proc = _python_src(["-m", "lefschetz.cli", "hilbert", "--ideal", ideal])
        assert (proc.returncode, proc.stdout) == (3, "")
        assert f"still positive at the cap {cap}" in proc.stderr


def test_hilbert_not_artinian_with_pure_powers_stops_at_explicit_cap():
    # every variable has a pure power and there are three generators; the
    # zero-one point check finds that the ideal vanishes at (1, 1, 0), and
    # the message names the explicit --cap
    ideal = "x^999 - y^999, x*y^998 - y^999, z^999"
    proc = _python_src(
        ["-m", "lefschetz.cli", "hilbert", "--ideal", ideal, "--cap", "40"],
        timeout=20,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "still positive at the cap 40" in proc.stderr


def test_hilbert_not_artinian_at_a_zero_one_point_exits_at_once():
    # the generators all vanish at (1, 1, 0); without --cap a scan to the
    # default cap 2997 would not finish
    ideal = "x^999 - y^999, x*y^998 - y^999, z^999"
    proc = _python_src(
        ["-m", "lefschetz.cli", "hilbert", "--ideal", ideal], timeout=10
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "still positive at the cap 2997:" in proc.stderr
    assert "(1, 1, 0)" in proc.stderr


def test_hilbert_not_artinian_at_a_sign_point_exits_at_once():
    # the generators all vanish at (1, -1, 0) and at no point of {0,1}^3;
    # without --cap a scan to the default cap 2994 would not finish
    ideal = "x^998 - y^998, x*y^997 + y^998, z^998"
    proc = _python_src(
        ["-m", "lefschetz.cli", "hilbert", "--ideal", ideal], timeout=10
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "still positive at the cap 2994:" in proc.stderr
    assert "(1, -1, 0)" in proc.stderr


def _modules_loaded_by_cli_import(python_args=()):
    """Modules that ``import lefschetz.cli`` adds to ``sys.modules``; diffing
    keeps modules a site hook preloads out of the check."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import lefschetz.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = _python_src([*python_args, "-c", code])
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "lefschetz.cli" in loaded
    return loaded


def test_import_loads_no_pool_or_csv_modules():
    # every call pays for what the import loads
    loaded = _modules_loaded_by_cli_import()
    unwanted = {
        "concurrent",
        "multiprocessing",
        "csv",
        "dataclasses",
        "inspect",
        "ast",
        "dis",
        "tokenize",
    }
    assert [m for m in loaded if m.split(".")[0] in unwanted] == []


def test_import_without_site_loads_no_typing_or_pathlib():
    # under -S no site hook preloads them, so the import alone is seen
    loaded = _modules_loaded_by_cli_import(["-S"])
    assert [m for m in loaded if m.split(".")[0] in ("typing", "pathlib")] == []


def test_hilbert_cap_applies_to_family_input(capsys):
    # the complete intersection (3, 3, 2) has socle degree 5, past the cap
    code, out, err = run(
        ["hilbert", "-a", "3", "-b", "3", "-c", "2", "--gamma", "1", "--cap", "2"],
        capsys,
    )
    assert (code, out) == (3, "")
    assert "still positive at the cap 2" in err


def test_hilbert_cap_below_dmax_exit_three(capsys):
    ideal = ["hilbert", "--ideal", "x^2, y^2, z^2"]
    code, out, err = run(ideal + ["--cap", "2", "--dmax", "5"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: --cap 2 is below --dmax 5\n"
    code, out, _ = run(ideal + ["--cap", "5", "--dmax", "5"], capsys)
    assert code == 0
    assert json.loads(out) == {"h": [1, 3, 3, 1, 0, 0], "socle_degree": None}


def test_hilbert_cap_zero_exit_three(capsys):
    code, out, err = run(
        ["hilbert", "--ideal", "x^2, y^2, z^2", "--cap", "0"], capsys
    )
    assert (code, out) == (3, "")
    assert "degree cap must be positive" in err


def test_hilbert_negative_dmax_exit_three(capsys):
    code, out, err = run(
        ["hilbert", "--ideal", "x^2, y^2, z^2", "--dmax", "-2"], capsys
    )
    assert (code, out) == (3, "")
    assert "--dmax" in err


def test_hilbert_names_the_bad_family_parameter(capsys):
    code, _, err = run(
        ["hilbert", "-a", "0", "-b", "3", "-c", "2", "--gamma", "1"], capsys
    )
    assert code == 3
    assert err == "error: a must be a positive integer, got 0\n"
    code, _, err = run(
        ["hilbert", "-a", "3", "-b", "3", "-c", "2", "--gamma", "0"], capsys
    )
    assert code == 3
    assert err == "error: gamma must be a positive integer, got 0\n"


def test_hilbert_needs_some_input(capsys):
    code, _, err = run(["hilbert"], capsys)
    assert code == 3
    assert "--ideal" in err
