import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from sigmairr import bounds, search
from sigmairr.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIndices:
    def test_family_json(self, capsys):
        code, out, _ = run_cli(capsys, "indices", "--family", "path:5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["albertson"] == 2 and payload["sigma"] == 2
        assert payload["sigma_t"] == 6 and payload["zagreb_m1"] == 14

    def test_sequence_input_realized(self, capsys):
        code, out, _ = run_cli(capsys, "indices", "--sequence", "1,1,2,2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["sigma"] == 2 and "caterpillar" in payload["input"]

    def test_graph_file(self, capsys, tmp_path):
        target = tmp_path / "g.edges"
        target.write_text("# n=4\n0 1\n1 2\n2 3\n")
        code, out, _ = run_cli(capsys, "indices", "--graph-file", str(target), "--format", "json")
        assert code == 0 and json.loads(out)["albertson"] == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "indices", "--family", "star:5", "--format", "json", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["albertson"] == 12


class TestSequenceAnalyze:
    @pytest.mark.parametrize("convention", ["standard", "paper-table"])
    @pytest.mark.parametrize("fmt", ["human", "csv", "json"])
    def test_mean_beyond_float_range(self, capsys, fmt, convention):
        # The mean entry (10**400 + 1) / 2 is printed exactly; its decimal is null.
        entries = f"{10**400},1"
        code, out, err = run_cli(capsys, "sequence", "analyze", "--sequence", entries,
                                 "--convention", convention, "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            payload = json.loads(out)
            assert payload["mean_entry_decimal"] is None
            assert Fraction(payload["mean_entry"]) == Fraction(10**400 + 1, 2)
        else:
            sep = "," if fmt == "csv" else "  "
            assert f"mean_entry_decimal{sep}null\n" in out

    # The cube sum of 10^300 - 1 has 900 digits, past a limit of 640 on str(int).
    @pytest.mark.parametrize("fmt", ["human", "csv", "json"])
    def test_value_beyond_the_int_to_str_limit_refused(self, fmt):
        env = {**os.environ, "PYTHONPATH": str(Path(search.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=640", "-m", "sigmairr", "sequence", "analyze",
             "--sequence", "9" * 300 + ",1", "--format", fmt],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


class TestErrors:
    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "indices", "--family", "path:5", "--bogus")
        assert code == 1 and "error:" in err

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(capsys, "indices", "--family", "wheel:5")
        assert code == 1 and "unknown family" in err

    def test_bad_sequence_literal(self, capsys):
        code, _, err = run_cli(capsys, "sequence", "analyze", "--sequence", "1,x")
        assert code == 1 and "bad integer" in err

    def test_unreadable_file(self, capsys):
        code, _, err = run_cli(capsys, "indices", "--graph-file", "/nonexistent/g.edges")
        assert code == 1 and "cannot read" in err

    def test_cap_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--n", "19", "--count-only")
        assert code == 1 and "cap" in err and "--allow-over-cap" in err

    def test_order_limit_holds_over_the_cap_override(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--n", "256", "--allow-over-cap")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "255" in err and err.count("\n") == 1

    # Each entry point that walks the trees of an order, with that order's flag last.
    @pytest.mark.parametrize("argv", [
        ("enumerate", "--count-only", "--n"),
        ("extremal", "--n"),
        ("bounds", "check", "--class-mode", "max", "--class-trees"),
        ("bounds", "falsify", "--bound", "B3", "--nmax"),
    ], ids=" ".join)
    def test_one_cap_at_every_entry_point(self, capsys, monkeypatch, argv):
        walk = search.free_tree_level_sequences
        calls = []
        monkeypatch.setattr(search, "free_tree_level_sequences", lambda n: calls.append(n) or iter(()))
        for cap in (search.DEFAULT_TREE_CAP, 5):
            monkeypatch.setattr(search, "DEFAULT_TREE_CAP", cap)
            code, out, err = run_cli(capsys, *argv, str(cap + 1))
            assert code == 1 and out == ""
            assert err.startswith("error:") and "cap" in err and err.count("\n") == 1
        assert calls == []
        monkeypatch.setattr(search, "free_tree_level_sequences", walk)
        code, out, _ = run_cli(capsys, *argv, "6", "--allow-over-cap")
        assert code == 0 and out

    def test_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "indices", "--family", "cycle:2")
        assert code == 1 and "cycle" in err

    @pytest.mark.parametrize("argv, message", [pytest.param(*case, id=" ".join(case[0])) for case in [
        (("bounds", "check", "--family", "path:5", "--row", "3", "--bound", "B8"), "--row needs --table"),
        (("bounds", "check", "--family", "path:5", "--class-mode", "max", "--bound", "B8"),
         "--class-mode needs --class-trees"),
        (("bounds", "check", "--family", "path:5", "--irr", "7", "--bound", "B8"),
         "--irr needs --sequence with --convention paper-table"),
        (("bounds", "check", "--sequence", "1,1,2,2", "--irr", "7", "--bound", "B8"),
         "--irr needs --sequence with --convention paper-table"),
        (("bounds", "check", "--family", "path:5", "--convention", "paper-table", "--bound", "B8"),
         "--convention paper-table needs --sequence"),
        (("bounds", "falsify", "--bound", "B8", "--n", "8", "--nmax", "6"),
         "--n (random mode) and --nmax (exhaustive mode) exclude each other"),
        (("bounds", "falsify", "--bound", "B8", "--n", "8", "--nmax", "6", "--samples", "3"),
         "--n (random mode) and --nmax (exhaustive mode) exclude each other"),
        (("bounds", "falsify", "--bound", "B8", "--nmax", "5", "--seed", "9"),
         "--seed needs random mode (--n with --samples)"),
        (("bounds", "falsify", "--bound", "B8", "--nmax", "5", "--seed", "0"),
         "--seed needs random mode (--n with --samples)"),
        (("bounds", "falsify", "--bound", "B8", "--n", "40", "--samples", "5", "--allow-over-cap"),
         "--allow-over-cap needs exhaustive mode (--nmax)"),
        (("bounds", "check", "--family", "path:5", "--bound", "B8", "--allow-over-cap"),
         "--allow-over-cap needs --class-trees"),
        (("bounds", "check", "--table", "1", "--row", "1", "--bound", "B8", "--allow-over-cap"),
         "--allow-over-cap needs --class-trees"),
        (("bounds", "check", "--family", "path:5", "--graph-file", "/nonexistent", "--bound", "B8"),
         "--family and --graph-file exclude each other"),
        (("indices", "--family", "path:4", "--sequence", "1,1", "--graph-file", "/nonexistent"),
         "--sequence excludes --family and --graph-file"),
        (("indices", "--family", "path:4", "--graph-file", "/nonexistent"),
         "--family and --graph-file exclude each other"),
        (("extremal", "--degree-multiset", "1,1,2", "--max-degree", "5", "--n", "9"),
         "--degree-multiset excludes --n and --max-degree"),
        (("extremal", "--degree-multiset", "1,1,2", "--n", "3"), "--degree-multiset excludes --n and --max-degree"),
        (("plots", "emit", "--figure", "2", "--max-n", "3"), "--max-n needs --figure 1"),
        (("plots", "emit", "--figure", "3", "--max-n", "20"), "--max-n needs --figure 1"),
        (("plots", "emit", "--figure", "1", "--max-n", "2"), "--max-n must be at least 3 for figure 1, got 2"),
        (("plots", "emit", "--figure", "1", "--max-n", "-5"), "--max-n must be at least 3 for figure 1, got -5"),
        (("plots", "emit", "--figure", "1", "--max-n", "1000"), "--max-n must be at most 200 for figure 1, got 1000"),
    ]])
    def test_unread_flags_rejected(self, capsys, argv, message):
        # A flag the chosen input or mode would not read fails instead of being ignored.
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [pytest.param(*case, id=" ".join(case[0])) for case in [
        (("bounds", "check", "--class-trees", "1", "--class-mode", "max"), "--class-trees must be at least 2, got 1"),
        (("bounds", "check", "--class-trees", "0", "--class-mode", "min"), "--class-trees must be at least 2, got 0"),
        (("extremal", "--n", "1", "--max-degree", "1"), "max degree 1 impossible for trees of order 1"),
        (("bounds", "check", "--family", "path:1"), "graph has an isolated vertex: vertex 0 has no edge"),
        (("bounds", "check", "--graph-file", "n3-one-edge"), "graph has an isolated vertex: vertex 2 has no edge"),
        (("bounds", "check", "--sequence", "3,3,3,3", "--convention", "paper-table", "--irr", "-5"),
         "--irr must be at least 0, got -5"),
    ]])
    def test_rejected_before_any_walk(self, capsys, monkeypatch, tmp_path, argv, message):
        target = tmp_path / "n3-one-edge"
        target.write_text("# n=3\n0 1\n")
        argv = [str(target) if a == target.name else a for a in argv]
        monkeypatch.setattr(search, "free_tree_level_sequences", lambda n: pytest.fail(f"walked order {n}"))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")


def human_cell(table: str, bound_id: str, column: str) -> str:
    """The cell of ``column`` in the row of ``bound_id`` of a human table,
    read at the column's offset: a label cell may hold spaces."""
    header, _, *rows = table.splitlines()
    row = next(line for line in rows if line.startswith(bound_id + " "))
    return row[header.index(column):].split()[0]


class TestBounds:
    def test_check_table_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "check", "--table", "1", "--row", "1", "--bound", "B7", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert report["bound_id"] == "B7" and report["holds"] is True
        assert report["rhs"] == "2824/147"

    def test_check_csv_row_shape(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "check", "--family", "path:6", "--bound", "B8", "--format", "csv")
        assert code == 0
        header, row = csv.reader(io.StringIO(out))
        assert len(header) == len(row) == 9
        assert row[0] == "B8" and row[1] == "path:6" and row[3] == "2" and row[4] == "336/5"

    @pytest.mark.parametrize("table, size", [(1, 8), (2, 4)])
    @pytest.mark.parametrize("row", [0, -1, 99])
    def test_check_row_out_of_range(self, capsys, table, size, row):
        code, out, err = run_cli(capsys, "bounds", "check", "--table", str(table), "--row", str(row))
        assert code == 1 and out == ""
        assert err == f"error: --row must be in 1..{size}, got {row}\n"

    def test_check_all_on_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "check", "--family", "cycle:4", "--format", "json"
        )
        assert code == 0
        reports = json.loads(out)["reports"]
        assert len(reports) >= 13

    def test_expect_hold_failure_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "check", "--family", "path:6", "--bound", "B8",
            "--expect-hold", "--format", "json",
        )
        assert code == 2

    def test_expect_hold_success_exit_code(self, capsys):
        code, _, _ = run_cli(
            capsys, "bounds", "check", "--family", "path:6", "--bound", "B14",
            "--expect-hold", "--format", "json",
        )
        assert code == 0

    def test_sequence_paper_table_with_irr(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "check", "--sequence", "3,5,7,5,6,8,10",
            "--convention", "paper-table", "--irr", "260", "--bound", "B7",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["reports"][0]["rhs"] == "2824/147"

    def test_missing_irr_error(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "check", "--sequence", "3,5,7,5,6,8,10",
            "--convention", "paper-table", "--bound", "B3",
        )
        assert code == 1 and "irr" in err

    def test_class_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "check", "--class-trees", "6", "--class-mode", "max",
            "--bound", "B1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert "witness" in payload["input"]
        assert {r["bound_id"] for r in payload["reports"]} == {"B1a", "B1b"}

    def test_default_eta_undefined_without_edges(self, capsys):
        # one paper-table entry is a single vertex: m = 0, so eta has no default
        argv = ("bounds", "check", "--sequence", "1", "--convention", "paper-table", "--bound", "B15a")
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and "eta" in err and len(err.splitlines()) == 1
        code, _, _ = run_cli(capsys, *argv, "--eta", "2")
        assert code == 0

    @pytest.mark.parametrize("bound", ["B2", "all"])
    def test_b2_not_computable_without_edges(self, capsys, bound):
        # m = 0 with an explicit eta: B2's ceil(2n/m) gates the entry instead of raising
        argv = ("bounds", "check", "--sequence", "1", "--convention", "paper-table", "--irr", "0", "--eta", "2",
                "--bound", bound)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "" and "B2a" in out and "B2b" in out
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        reports = {r["bound_id"]: r for r in json.loads(out)["reports"]}
        for bound_id in ("B2a", "B2b"):
            report = reports[bound_id]
            assert not report["hypotheses_met"] and report["holds"] is None and report["lhs"] is None
            assert report["notes"][-1].startswith("not computable:") and "m = 0" in report["notes"][-1]

    def test_two_sources_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "check", "--family", "path:4", "--table", "1", "--row", "1"
        )
        assert code == 1 and "exactly one input source" in err

    def test_falsify_random_seed_defaults_to_zero(self, capsys):
        argv = ("bounds", "falsify", "--bound", "B8", "--n", "9", "--samples", "6", "--format", "json")
        code, implicit, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(implicit)["seed"] == 0
        code, explicit, _ = run_cli(capsys, *argv, "--seed", "0")
        assert code == 0 and explicit == implicit

    def test_falsify_random_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "falsify", "--bound", "B8", "--n", "8",
            "--samples", "10", "--seed", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "random" and len(payload["counterexamples"]) == 10

    @pytest.mark.parametrize("fmt", ["human", "csv", "json"])
    def test_check_beyond_float_range(self, capsys, fmt):
        # B11's rhs carries 2^eta with eta = 1202 here: far above float range
        code, out, _ = run_cli(
            capsys, "bounds", "check", "--family", "double_star:600:2", "--bound", "B11",
            "--format", fmt,
        )
        assert code == 0 and "B11" in out
        if fmt == "json":
            report = json.loads(out)["reports"][0]
            assert report["rhs_decimal"] is None and report["lhs_decimal"] == 215279404.0
            assert Fraction(report["rhs"]) > 10**308
        # B6's inexact rhs is about sqrt(56)*10^400 + 10^400 here: printed to
        # 12 significant digits from its box, with no float
        sequence = f"{10**200},{3 * 10**200}"
        code, out, err = run_cli(
            capsys, "bounds", "check", "--sequence", sequence, "--convention", "paper-table", "--bound", "all",
            "--format", fmt,
        )
        assert (code, err) == (0, "") and "8.48331477355e+400" in out
        if fmt == "json":
            report = next(r for r in json.loads(out)["reports"] if r["bound_id"] == "B6")
            assert report["rhs_decimal"] is None and report["rhs"] == "8.48331477355e+400"

    # A side with more digits than the interpreter's default limit on str(int), 4,300.
    @pytest.mark.parametrize("argv", [
        ("--family", "star:5", "--bound", "B2", "--alpha", "20000"),
        ("--family", "star:5", "--bound", "B9", "--p", "65537"),
        ("--family", "double_star:8000:8000", "--bound", "B11"),  # default eta = 16002
    ], ids=" ".join)
    def test_check_beyond_the_int_to_str_limit(self, capsys, argv):
        code, out, err = run_cli(capsys, "bounds", "check", *argv, "--format", "json")
        assert (code, err) == (0, "")
        reports = json.loads(out)["reports"]
        assert max(len(report["rhs"]) for report in reports) > 4300
        if "B2" in argv:  # B2a's rhs on star:5 is floor(8/5) + ceil(20/8) + 2^alpha
            assert Decimal(reports[0]["rhs"]) == Decimal(4 + 2**20000)

    # B11's 2^eta is built up to a bit limit, and reported not computable past it.
    @pytest.mark.parametrize("fmt", ["human", "csv", "json"])
    @pytest.mark.parametrize("argv, computable", [
        (("--family", "star:5", "--eta", str(bounds._POWER_BITS - 1)), True),
        (("--family", "star:5", "--eta", str(bounds._POWER_BITS)), False),
        # default eta = ceil(4 * n * max_degree / 2m), about 2 * 10^400
        (("--sequence", "1" + "0" * 400 + ",3,1", "--convention", "paper-table", "--irr", "5"), False),
    ], ids=["below", "above", "sequence"])
    def test_check_b11_power_bit_limit(self, capsys, fmt, argv, computable):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "bounds", "check", *argv, "--bound", "B11", "--format", fmt)
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        if fmt == "json":
            report = json.loads(out)["reports"][0]
            assert (report["rhs"] is not None) == computable
            if not computable:
                eta = int(report["params"]["eta"])
                assert report["notes"] == [f"not computable: 2^eta has {eta + 1} bits, over the limit of 131072"]
        elif fmt == "csv":
            row = next(csv.DictReader(io.StringIO(out)))
            assert (row["bound_id"], row["rhs"] != "") == ("B11", computable)
        else:
            assert human_cell(out, "B11", "hypotheses_met") == ("true" if computable else "false")

    # B2a's 2^alpha, B2b's 2^beta and B9's 2^p are built up to the same bit
    # limit as B11's 2^eta, and reported not computable past it.
    @pytest.mark.parametrize("fmt", ["human", "csv", "json"])
    @pytest.mark.parametrize("bound_id, option, exponent", [
        ("B2a", "--alpha", bounds._POWER_BITS - 1),
        ("B2a", "--alpha", bounds._POWER_BITS),
        ("B2a", "--alpha", 100_000_000),
        ("B2b", "--beta", bounds._POWER_BITS - 1),
        ("B2b", "--beta", bounds._POWER_BITS),
        ("B9", "--p", 131_071),  # 2^17 - 1, the largest prime below the limit
        ("B9", "--p", 131_101),  # the smallest prime above it
        ("B9", "--p", 100_000_007),
    ], ids=lambda value: str(value))
    def test_check_power_bit_limit(self, capsys, fmt, bound_id, option, exponent):
        computable = exponent < bounds._POWER_BITS
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "bounds", "check", "--family", "star:5", "--bound", bound_id[:2], option, str(exponent),
            "--format", fmt,
        )
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        if fmt == "json":
            report = next(r for r in json.loads(out)["reports"] if r["bound_id"] == bound_id)
            assert (report["rhs"] is not None, report["hypotheses_met"]) == (computable, computable)
            note = f"not computable: 2^{option[2:]} has {exponent + 1} bits, over the limit of 131072"
            assert (note in report["notes"]) == (not computable)
        elif fmt == "csv":
            row = next(row for row in csv.DictReader(io.StringIO(out)) if row["bound_id"] == bound_id)
            assert (row["rhs"] != "") == computable
        else:
            assert human_cell(out, bound_id, "hypotheses_met") == ("true" if computable else "false")

    def test_check_is_byte_identical_under_a_low_int_to_str_limit(self, capsys):
        argv = ["bounds", "check", "--family", "star:5", "--bound", "B2", "--alpha", "20000", "--format", "json"]
        _, expected, _ = run_cli(capsys, *argv)
        env = {**os.environ, "PYTHONPATH": str(Path(search.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=640", "-m", "sigmairr", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, "") and done.stdout == expected

    def test_b15_on_a_large_double_star_in_under_two_seconds(self, capsys):
        # B15b's geometric mean is a 4002nd root
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "bounds", "check", "--family", "double_star:2000:2000", "--bound", "B15")
        assert code == 0 and "B15b" in out
        assert time.perf_counter() - start < 2.0

    def test_falsify_all_matches_per_claim_runs(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "falsify", "--bound", "all", "--nmax", "6", "--format", "json")
        assert code == 0
        found = json.loads(out)["counterexamples"]
        for bound_id in ("B1b", "B8", "B11"):
            _, single, _ = run_cli(
                capsys, "bounds", "falsify", "--bound", bound_id, "--nmax", "6", "--format", "json"
            )
            assert [c for c in found if c["bound_id"] == bound_id] == json.loads(single)["counterexamples"]

    def test_large_prime_p_checked_quickly(self):
        # 2^61 - 1 is prime; trial division up to its square root never finished.
        env = {**os.environ, "PYTHONPATH": str(Path(search.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "sigmairr", "bounds", "check", "--family", "path:5", "--bound", "B1",
             "--p", str(2**61 - 1)],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert (done.returncode, done.stderr) == (0, "")

    # PRIME_LIMIT is the least composite that passes the test to every base 2..41.
    def test_p_beyond_the_exact_test_range(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "check", "--family", "path:5", "--bound", "B1",
                                 "--p", str(bounds.PRIME_LIMIT))
        assert (code, out) == (1, "") and err.startswith("error: p must be below") and err.count("\n") == 1

    def test_falsify_bad_prime(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "falsify", "--bound", "B9", "--nmax", "5", "--p", "6"
        )
        assert code == 1 and "prime" in err


class TestEnumerateExtremal:
    def test_enumerate_count(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "10", "--count-only", "--format", "json")
        assert code == 0 and json.loads(out)["count"] == 106

    def test_enumerate_listing(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--format", "json")
        payload = json.loads(out)
        assert payload["count"] == 2
        assert payload["trees"][0]["encoding"] == [1, 2, 3, 2]

    def test_extremal(self, capsys):
        code, out, _ = run_cli(
            capsys, "extremal", "--objective", "sigma", "--direction", "max",
            "--n", "6", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["optimum"] == 80 and payload["trees_examined"] == 6

    def test_extremal_multiset(self, capsys):
        code, out, _ = run_cli(
            capsys, "extremal", "--degree-multiset", "1,1,1,3", "--format", "json"
        )
        assert json.loads(out)["optimum"] == 12


class TestTablesStats:
    def test_reproduce_csv(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "reproduce", "--table", "1", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["row", "column", "printed", "recomputed", "match", "rule"]
        t1 = [r for r in rows[1:] if r[1] == "T1"]
        assert [r[2] for r in t1] == ["160", "280", "399", "519", "637", "757", "876", "996"]
        assert all(r[4] == "true" for r in t1)

    def test_export(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "export", "--table", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["rows"][0]["sigma"] == 16209

    def test_correlate(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "correlate", "--table", "1", "--format", "json")
        payload = json.loads(out)
        assert payload["variables"] == ["n", "sigma", "irr", "T1", "T2"]
        assert float(payload["matrix"][0][3]) >= 0.99999
        assert len(payload["comparisons"]) == 25

    def test_regress_with_prediction(self, capsys):
        code, out, _ = run_cli(
            capsys, "stats", "regress", "--table", "1", "--predict", "350,50", "--format", "json"
        )
        payload = json.loads(out)
        assert abs(float(payload["predictions"]["printed_model"]) - (-32304623.28)) < 0.01
        assert "exact_mean" in payload["fits"]

    @pytest.mark.parametrize(
        "table,point,message",
        [
            ("2", "350", "has 1 coordinates"),
            ("2", "1,2,3", "has 3 coordinates"),
            ("1", "1,2,3", "has 3 coordinates"),
            ("1", "inf,1", "non-finite"),
            ("1", "nan,1", "non-finite"),
            ("2", "1,1e400", "non-finite"),
            ("1", "", "expects comma-separated numbers"),
        ],
    )
    def test_regress_rejects_bad_prediction_point(self, capsys, table, point, message):
        code, out, err = run_cli(capsys, "stats", "regress", "--table", table, "--predict", point)
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "table,point,predictions",
        [
            # the printed model's float sum is inf - inf; its exact value is finite
            ("1", "1e305,3.46e305",
             {"exact_mean": None, "printed_model": "-2.1773378584e+305", "rounded_mean": None}),
            ("2", "1e306,1e306", {"printed_model": None}),
        ],
    )
    def test_regress_predicts_beyond_float_range(self, capsys, table, point, predictions):
        # A finite point whose prediction leaves float range is written null.
        for fmt in ("human", "csv", "json"):
            code, out, err = run_cli(capsys, "stats", "regress", "--table", table, "--predict", point, "--format", fmt)
            assert (code, err) == (0, "")
        assert json.loads(out)["predictions"] == predictions


class TestPlots:
    def test_figure1(self, capsys):
        code, out, _ = run_cli(capsys, "plots", "emit", "--figure", "1", "--max-n", "8")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "n" and "sigma_path" in rows[0]
        by_n = {r[0]: r for r in rows[1:]}
        assert by_n["5"][rows[0].index("sigma_path")] == "2"
        assert by_n["6"][rows[0].index("sigma_cycle")] == "0"
        # the series starts at order 3, where the cycle does
        code, out, _ = run_cli(capsys, "plots", "emit", "--figure", "1", "--max-n", "3")
        assert code == 0 and [r[0] for r in csv.reader(io.StringIO(out))] == ["n", "3"]
        # without --max-n, figure 1 runs up to order 20
        assert run_cli(capsys, "plots", "emit", "--figure", "1") == run_cli(
            capsys, "plots", "emit", "--figure", "1", "--max-n", "20"
        )

    def test_figure2_and_3(self, capsys):
        code, out, _ = run_cli(capsys, "plots", "emit", "--figure", "2")
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 9  # header + 8 rows
        code, out, _ = run_cli(capsys, "plots", "emit", "--figure", "3")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][rows[0].index("eta_computed")] == "41"


DETERMINISTIC_INVOCATIONS = [
    ("indices", "--family", "double_star:3:4", "--format", "json"),
    ("sequence", "analyze", "--sequence", "3,5,7,5,6,8,10", "--convention", "paper-table", "--format", "json"),
    ("bounds", "check", "--table", "2", "--row", "3", "--format", "json"),
    ("bounds", "check", "--family", "star:7", "--format", "csv"),
    ("bounds", "falsify", "--bound", "B8", "--nmax", "6", "--format", "json"),
    ("bounds", "falsify", "--bound", "B12", "--n", "7", "--samples", "12", "--seed", "5", "--format", "json"),
    ("enumerate", "--n", "7", "--format", "json"),
    ("extremal", "--n", "7", "--objective", "albertson", "--direction", "max", "--format", "json"),
    ("tables", "reproduce", "--table", "2", "--format", "csv"),
    ("stats", "correlate", "--table", "2", "--format", "json"),
    ("stats", "regress", "--table", "1", "--format", "json"),
    ("plots", "emit", "--figure", "1", "--max-n", "10"),
]


# Each of these in every format (plots emit has CSV only), pinned by sha256.
RENDERED_INVOCATIONS = [a[:-2] if "--format" in a else a for a in DETERMINISTIC_INVOCATIONS] + [
    ("tables", "export", "--table", "1"),
    ("tables", "export", "--table", "2"),
    ("extremal", "--degree-multiset", "1,1,1,3"),
    ("extremal", "--n", "9", "--max-degree", "3", "--direction", "min"),
    ("enumerate", "--n", "1"),
    ("bounds", "check", "--family", "path:6", "--bound", "all", "--eta1", "5/2", "--alpha", "3"),
    ("stats", "regress", "--table", "2", "--predict", "350,50"),
    ("tables", "reproduce", "--table", "1"),
    ("stats", "correlate", "--table", "1"),
    ("plots", "emit", "--figure", "2"),
    ("plots", "emit", "--figure", "3"),
    ("bounds", "check", "--class-trees", "7", "--class-mode", "max", "--bound", "all"),
    ("bounds", "check", "--class-trees", "8", "--class-mode", "min", "--bound", "B1"),
    ("indices", "--sequence", "1,1,2,2"),
    ("indices", "--sequence", "2,2,2"),
    ("bounds", "check", "--sequence", "1,1,1,3", "--bound", "all"),
]

RENDERED_DIGESTS = {
    "indices --family double_star:3:4 --format human":
        "f71602a28343c39997703dc7774e8b358b6e0339dbdf15f34043b32c78b940ca",
    "indices --family double_star:3:4 --format csv":
        "7d6abe04c24459f4cc1b5cd0f14c3fe2676c8a3e405ca05701a04d3628ab35d1",
    "indices --family double_star:3:4 --format json":
        "baf113610c64aab8138a4afcbcf0daae4665e5e2ec4cc1423ec7495e2906d82b",
    "sequence analyze --sequence 3,5,7,5,6,8,10 --convention paper-table --format human":
        "18184e7e57d62ecedf85f0b573b71da43476178d915642eb9c43fa5ab574befb",
    "sequence analyze --sequence 3,5,7,5,6,8,10 --convention paper-table --format csv":
        "121b2f69f975176651f474fa44e2a9f9ecc8582b874ac11b48701e5ff17d580a",
    "sequence analyze --sequence 3,5,7,5,6,8,10 --convention paper-table --format json":
        "9e3efd5e5855075011ba1837588673281dc5b811aca8d78af114f91c4d67642d",
    "bounds check --table 2 --row 3 --format human":
        "c32a10c6eb2b49c1a4f2e09f80ed091ce66f7a6e65b7f558fe1f3116ce7060df",
    "bounds check --table 2 --row 3 --format csv":
        "5c38c37fbec6769ce7cc75e258fe6b119cb60519ed551a9abbbf14b355efc2dc",
    "bounds check --table 2 --row 3 --format json":
        "89a40680ff4715362d5cbdd9fe094bfe0a5223f90190ea11fa308a37813239f1",
    "bounds check --family star:7 --format human":
        "789e07dc6b1a85287a587c393b31a1282b04c7283d44bf83258d75cd08710463",
    "bounds check --family star:7 --format csv":
        "9e984178cdfb9adb69bea660c444c9c5cd67ceb4d03800193baea1a5df889f71",
    "bounds check --family star:7 --format json":
        "92d914560bff4996bacd23afd5913090f7bf00a310ab317a3bc6a8f9b4efdb05",
    "bounds falsify --bound B8 --nmax 6 --format human":
        "48785b69ee3d77fb53eec8a6aa3fbcc64e1ea8368b713e540af2c8a3d22037e4",
    "bounds falsify --bound B8 --nmax 6 --format csv":
        "a2f2b2ed44beda07909e662671c4f67906d88eb033d3a7b3efc32663bb56564e",
    "bounds falsify --bound B8 --nmax 6 --format json":
        "b90aeccdd47c6e974542eafef1fec5f663aac13413ff01ab4008cc4b53b9d575",
    "bounds falsify --bound B12 --n 7 --samples 12 --seed 5 --format human":
        "9e91714701a9196dbb2a805206d1b985b011574fc10d8716d10f03caed0c4ef3",
    "bounds falsify --bound B12 --n 7 --samples 12 --seed 5 --format csv":
        "372949686e8bf534b4eaf01d9d388fa35c3e4d20fb5e9be3980d95e0619457f7",
    "bounds falsify --bound B12 --n 7 --samples 12 --seed 5 --format json":
        "31d5ea6dcd0a48334b64d76283c0d789e01bc6939188dd9f55eac6bd14dd0300",
    "enumerate --n 7 --format human":
        "c3a6cc27ca216e68925f6120cb96cc8015dfd6ae27c660008f0c0064e0a7dbfb",
    "enumerate --n 7 --format csv":
        "e6175c144840eb01759d8b4b703e305aae26f179a1d6e45470e446ec386a81bd",
    "enumerate --n 7 --format json":
        "1637a492161f1419ec735aed7babd9c9223c9d308971b75005ecb639be34fa9b",
    "extremal --n 7 --objective albertson --direction max --format human":
        "c66d7b60f49514cc1737023ea398c31a6264929d7967ef3af7735f58bf0ce3b6",
    "extremal --n 7 --objective albertson --direction max --format csv":
        "51ce16430dcb74b70df1ac516baa312d01a69ba2a2efc08d6341e3a8a997ec3c",
    "extremal --n 7 --objective albertson --direction max --format json":
        "6c3bdd03b898d3d688965494178764cfba05b257e72ef291569e09f7eab953cc",
    "tables reproduce --table 2 --format human":
        "81eb1c93f20f9a59aabf46f3c6aea6a88b6d15babb6d0febe5659da52d55812f",
    "tables reproduce --table 2 --format csv":
        "90a230348b841668b310d248f901097cb621a380bc8e8e370b486f9f69ef4fdd",
    "tables reproduce --table 2 --format json":
        "5804eb84bde97e71caf8ce247cb58eb1d48692e792cd8feaf44e75f190bae12e",
    "stats correlate --table 2 --format human":
        "1d974eb12ab1ac0a6ad063204795d414ddcb202643654ff0be46e0eb27c399c6",
    "stats correlate --table 2 --format csv":
        "eb29a539f5a5f3f90dbc365bfcebc6e2b8b00f3a3ef163c8e495db6f15176dd2",
    "stats correlate --table 2 --format json":
        "967f16c5739ef41f97a6d1d3aea73976aaed0ed3edf96af00c8a56843e2bed8a",
    "stats regress --table 1 --format human":
        "6f54a2a308e3e0c7f98746ad47cb2c6e8fabef46ad724cada86a426517c386be",
    "stats regress --table 1 --format csv":
        "5c660ba39034031a4098b761686f80b38be87cddef40729a4a85ad575f0c01e4",
    "stats regress --table 1 --format json":
        "ba6675637e618fe8f13707961d48f267eb91e0661abf5aad48677f12214b7194",
    "plots emit --figure 1 --max-n 10":
        "9e47bd45f0abf0648942b674f9c1cc038620c5e6c8bb9a74215d28a3864999f4",
    "tables export --table 1 --format human":
        "b0f8ab09650564c337c73ada012bc29245895732e295c609018a6bdadef62b04",
    "tables export --table 1 --format csv":
        "3aa221e5cb10941afa5b7ef71cf3595f9ee28bdf56964fbd3574e21070ac3454",
    "tables export --table 1 --format json":
        "77a92accfb54a7ed20dc2585c809f0bae5b52970938ecbb26b1be4462b57cf08",
    "tables export --table 2 --format human":
        "d77f1db716611b0fc3c0892b7719e2c67fc8eb7f2af5a781b41ce360816b2855",
    "tables export --table 2 --format csv":
        "ef6184967e8c09dbef8f31a746de3fc00938cf620ef5c4890e8a7e4e581f0d42",
    "tables export --table 2 --format json":
        "277e2eaf0d8e3fa358b9c2711485b4ad0bb6ffee0ff6101552b9d2000756a994",
    "extremal --degree-multiset 1,1,1,3 --format human":
        "d6e2776c417979aa9d6673566da99f62f59e30a0da4576cdcf75f0ae6b7cc0c8",
    "extremal --degree-multiset 1,1,1,3 --format csv":
        "171de7163de730ef80b86a7176d08c532b424264946d872a5f5b8f73acea9f40",
    "extremal --degree-multiset 1,1,1,3 --format json":
        "68bbbc04d5e592c2c8730e6eab5ba19741a5eedba823aec3c8a9baca712c2e16",
    "extremal --n 9 --max-degree 3 --direction min --format human":
        "1beaea9d102d8983e2184917da408519f351b325c410ea7e687ff35949b00cf3",
    "extremal --n 9 --max-degree 3 --direction min --format csv":
        "8f910d320cead9d4b1376fd46f10392f17043ab621db3f6ef5e35c6160ecc182",
    "extremal --n 9 --max-degree 3 --direction min --format json":
        "6ef1b17548e6fcdc9fecc1295bffbea6ab3a92fa7aca834082673d89b263be72",
    "enumerate --n 1 --format human":
        "3b764e3cb904da9ca8024d77b287ba64ed2abc0fe70c74d799f342d58d9c42fe",
    "enumerate --n 1 --format csv":
        "0927e9ae520e361423f2025dcf73d1966e541332a2916c8a1aba5d869111a5ed",
    "enumerate --n 1 --format json":
        "55588aad8612e156f1fe6a1eb9079f710bf1bfdabe13a65d60e1082bd81b7a22",
    "bounds check --family path:6 --bound all --eta1 5/2 --alpha 3 --format human":
        "877c4ea45102e2708c0bb224241417e569235c4d696e01bab8be7d897445dab0",
    "bounds check --family path:6 --bound all --eta1 5/2 --alpha 3 --format csv":
        "75366c108a91c9c7a5695ddd5ddf494b4ca86514302b7e74f9c4090103df3a1a",
    "bounds check --family path:6 --bound all --eta1 5/2 --alpha 3 --format json":
        "93de4f7ec5badde8099d446026ed7dc26e92eb5cd2bca0bde84295fceb6f41c4",
    "stats regress --table 2 --predict 350,50 --format human":
        "3048f5bd33c004a13175f5ad427826e78daa63b3b52214660d1a5104367e1843",
    "stats regress --table 2 --predict 350,50 --format csv":
        "cc8714f6fe9bc19bbc6f7144be7b475d7e85355d7687c2c269325db38a905004",
    "stats regress --table 2 --predict 350,50 --format json":
        "36a88c14c36cee4f750078f7ac389672ae99fa7016bef38b75229e7f7083bbb4",
    "tables reproduce --table 1 --format human":
        "aff19585f45d80e802065409ff28d23e69e89f613c8ecbcddc09231220a25c63",
    "tables reproduce --table 1 --format csv":
        "2669db1e968766fffec3d4ec4c1d3e431f8dc240d52e8804e15017861ad29201",
    "tables reproduce --table 1 --format json":
        "f9ecf1d1df8843c4c3f48bb20ab8509f70bf06f78f3707d5fcd3858c3ea2794d",
    "stats correlate --table 1 --format human":
        "cba7619b83c39556c6218f68160d0921d4ba170c4a6a789044476245ed743398",
    "stats correlate --table 1 --format csv":
        "30c3498946471b80c7baeefeb06bdd3291c0ed107a37813a25801bc7afe2f66f",
    "stats correlate --table 1 --format json":
        "79247ebbaab3ea146a90b15a2a06d0e07e3a3ed7c89e268ac9cc2c6b417281e2",
    "plots emit --figure 2":
        "5c44974d98c98b368f22d4e904d9b959d5e2d8839c54426b0d4b4a267cb85e15",
    "plots emit --figure 3":
        "971f9f6af31ef1bcef2c66edd0a958513bb0a30a1d6453b541d78dc423dd0d81",
    "bounds check --class-trees 7 --class-mode max --bound all --format human":
        "8de195da935178981a7eb4fb506830698c41231fc9640a281d5f04b3b79f0998",
    "bounds check --class-trees 7 --class-mode max --bound all --format csv":
        "9fd1e909db9021d789f751255d94d5615406c2f0bc231838f5fc18c8d40066f3",
    "bounds check --class-trees 7 --class-mode max --bound all --format json":
        "9faf5898b670858f75235c6e68a41a946ff51b42d193396453a934f35d040312",
    "bounds check --class-trees 8 --class-mode min --bound B1 --format human":
        "43efa202f059c5a3b872a3a9a2d6adab6cac9e0eff9ff7aff1cb855e64b45b1c",
    "bounds check --class-trees 8 --class-mode min --bound B1 --format csv":
        "7a3f7abf41c282e32109a0e23889b6dcca7e3a24e7269d578ca95e807b2b8e06",
    "bounds check --class-trees 8 --class-mode min --bound B1 --format json":
        "93764af6d6dc0f48af43d52614d9d9474c316029af13b196bf2761728eb7c152",
    "indices --sequence 1,1,2,2 --format human":
        "4c1ba567795203c7e0ea804a8ec227a42116979e82351666a82483a15d876beb",
    "indices --sequence 1,1,2,2 --format csv":
        "299c95619b1e1c0568fd102089ce6abd2040def436f035eda061e6ed1dda7669",
    "indices --sequence 1,1,2,2 --format json":
        "4ae48b7dace987adebb2658b23b307252fc4e0a39b73202df39bf43eb75f8b31",
    "indices --sequence 2,2,2 --format human":
        "93449b9ab843af1dca5a86ffcf1dfba7c5a51344e1407a531e26b15859e039f7",
    "indices --sequence 2,2,2 --format csv":
        "d29bcaed31f8c6fbf563bbdc86d2fd0676b375468af10281051630dda7b54359",
    "indices --sequence 2,2,2 --format json":
        "f0ee2597d167dc8b34a3e0d868fe83d4a84428d91091823ac8017049937d1304",
    "bounds check --sequence 1,1,1,3 --bound all --format human":
        "bda3d162cd47a6445f55606396c760a38a8ef392a38aa35dbd3a1f03679edaf7",
    "bounds check --sequence 1,1,1,3 --bound all --format csv":
        "4275cabd9044db2d37b781b9d1fd44bcabb1317db5beee26ad180451fad6f97e",
    "bounds check --sequence 1,1,1,3 --bound all --format json":
        "09a12b869ef0911a72faf3c9562349f3cbf7e764969cd68fc5c217ed931b557c",
}


def _rendered_cases():
    for argv in RENDERED_INVOCATIONS:
        if argv[0] == "plots":
            yield argv
        else:
            yield from (argv + ("--format", fmt) for fmt in ("human", "csv", "json"))


REFERENCE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


class TestDeterminismAndRoundTrip:
    @pytest.mark.parametrize("argv", DETERMINISTIC_INVOCATIONS, ids=lambda a: " ".join(a[:3]))
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv",
        [a for a in DETERMINISTIC_INVOCATIONS if "json" in a],
        ids=lambda a: " ".join(a[:3]),
    )
    def test_json_round_trip_fixed_point(self, capsys, argv):
        _, out, _ = run_cli(capsys, *argv)
        payload = json.loads(out)
        assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out

    @pytest.mark.parametrize("base_id", [f"B{i}" for i in range(1, 16)])
    def test_random_falsify_matches_recorded_digest(self, capsys, tmp_path, base_id):
        # The benchmark's recorded digests of `bounds falsify` at n = 40, five
        # samples, seed 0: any byte change to this output fails here too.
        reference = json.loads(REFERENCE_PATH.read_text())["falsify-random"]["smoke"]
        assert reference["seed"] == 0
        out = tmp_path / f"{base_id}.json"
        code, _, _ = run_cli(
            capsys, "bounds", "falsify", "--bound", base_id, "--n", "40", "--samples", "5",
            "--seed", "0", "--format", "json", "--out", str(out),
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == reference["sha256"][base_id]

    @pytest.mark.parametrize("argv", list(_rendered_cases()), ids=" ".join)
    def test_rendered_bytes_are_pinned(self, capsys, argv):
        # CSV and human tables are views of the JSON record: any byte change
        # to any format of these outputs fails here.
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == RENDERED_DIGESTS[" ".join(argv)]


# Different subcommands, argparse errors between them, and flags set in one
# call that the next call leaves at their defaults.
PARSER_REUSE_SEQUENCE = (
    ("bounds", "falsify", "--bound", "B8", "--n", "12", "--samples", "5", "--seed", "3", "--format", "json"),
    ("indices", "--family", "path:5", "--bogus"),
    ("bounds", "falsify", "--bound", "B9", "--nmax", "5"),
    ("bounds", "check", "--family", "path:6", "--bound", "B13", "--eta", "3", "--format", "csv"),
    ("bounds", "falsify"),
    ("bounds", "check", "--family", "path:6", "--bound", "B13", "--format", "csv"),
    ("sequence", "analyze", "--sequence", "3,5,7", "--convention", "paper-table", "--format", "json"),
    ("bounds", "check", "--table", "1", "--row", "1", "--bound", "B7"),
    ("enumerate", "--n", "5", "--count-only", "--format", "json"),
)


class TestParserReuse:
    def test_one_parser_prints_what_fresh_parsers_print(self, capsys):
        fresh = []
        for argv in PARSER_REUSE_SEQUENCE:
            build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        build_parser.cache_clear()
        reused = [run_cli(capsys, *argv) for argv in PARSER_REUSE_SEQUENCE]
        assert build_parser.cache_info().misses == 1
        assert reused == fresh
        assert [code for code, _, _ in fresh] == [0, 1, 0, 0, 1, 0, 0, 0, 0]
