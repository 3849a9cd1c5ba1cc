import csv
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from sigmairr.cli import main


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
        assert code == 1 and "cap" in err

    def test_env_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SIGMAIRR_TREE_CAP", "5")
        code, _, err = run_cli(capsys, "enumerate", "--n", "6", "--count-only")
        assert code == 1 and "cap" in err
        code, out, _ = run_cli(capsys, "enumerate", "--n", "6", "--count-only", "--allow-over-cap", "--format", "json")
        assert code == 0 and json.loads(out)["count"] == 6

    def test_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "indices", "--family", "cycle:2")
        assert code == 1 and "cycle" in err


class TestBounds:
    def test_check_table_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "check", "--table", "1", "--row", "1", "--bound", "B7", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert report["bound_id"] == "B7" and report["holds"] is True
        assert report["rhs"] == "2824/147"

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

    def test_two_sources_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "check", "--family", "path:4", "--table", "1", "--row", "1"
        )
        assert code == 1 and "exactly one input source" in err

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

    def test_falsify_all_matches_per_claim_runs(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "falsify", "--bound", "all", "--nmax", "6", "--format", "json")
        assert code == 0
        found = json.loads(out)["counterexamples"]
        for bound_id in ("B1b", "B8", "B11"):
            _, single, _ = run_cli(
                capsys, "bounds", "falsify", "--bound", bound_id, "--nmax", "6", "--format", "json"
            )
            assert [c for c in found if c["bound_id"] == bound_id] == json.loads(single)["counterexamples"]

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
        ],
    )
    def test_regress_rejects_bad_prediction_point(self, capsys, table, point, message):
        code, out, err = run_cli(capsys, "stats", "regress", "--table", table, "--predict", point)
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err and err.count("\n") == 1


class TestPlots:
    def test_figure1(self, capsys):
        code, out, _ = run_cli(capsys, "plots", "emit", "--figure", "1", "--max-n", "8")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "n" and "sigma_path" in rows[0]
        by_n = {r[0]: r for r in rows[1:]}
        assert by_n["5"][rows[0].index("sigma_path")] == "2"
        assert by_n["6"][rows[0].index("sigma_cycle")] == "0"

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
