"""The experiment scripts, run as a user runs them: in a subprocess."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sigmairr
from oracles import extremal_by_graphs, free_tree_counts_otter
from sigmairr.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
REFERENCE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
GOALS = (("sigma", "max"), ("sigma", "min"), ("albertson", "max"), ("albertson", "min"))


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(sigmairr.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_extremal_survey_matches_oracles():
    done = run_script("extremal_survey.py", "--min-n", "1", "--max-n", "12")
    assert done.returncode == 0 and done.stderr == ""
    rows = list(csv.reader(io.StringIO(done.stdout)))
    assert rows[0] == ["n", "trees", "sigma_max", "sigma_max_degrees", "sigma_min", "sigma_min_degrees",
                       "albertson_max", "albertson_min", "seconds"]
    counts = free_tree_counts_otter(12)
    assert [int(row[0]) for row in rows[1:]] == list(range(1, 13))
    for row in rows[1:]:
        n = int(row[0])
        star = " ".join(["1"] * (n - 1) + [str(n - 1)])
        path = " ".join(["1", "1"] + ["2"] * (n - 2)) if n >= 2 else "0"
        path_value = 2 if n >= 3 else 0
        closed_forms = [str(counts[n - 1]), str((n - 1) * (n - 2) ** 2), star, str(path_value), path,
                        str((n - 1) * (n - 2)), str(path_value)]
        assert row[1:8] == closed_forms, n
        reference = []
        for optimum, edges, _, examined in extremal_by_graphs(n, lambda degrees: True, GOALS):
            degrees = [0] * n
            for u, v in edges:
                degrees[u] += 1
                degrees[v] += 1
            reference.append((examined, optimum, " ".join(map(str, sorted(degrees)))))
        smax, smin, amax, amin = reference
        assert row[1:8] == [str(smax[0]), str(smax[1]), smax[2], str(smin[1]), smin[2],
                            str(amax[1]), str(amin[1])], n
        float(row[8])  # seconds


@pytest.mark.parametrize(
    "script,args",
    [
        ("extremal_survey.py", ("--min-n", "0")),
        ("extremal_survey.py", ("--max-n", "19")),
        ("extremal_survey.py", ("--min-n", "9", "--max-n", "5")),
        ("falsification_campaign.py", ("--nmax", "1")),
        ("falsification_campaign.py", ("--nmax", "19")),
    ],
)
def test_scripts_reject_bad_orders_in_one_line(script, args):
    done = run_script(script, *args)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr


def test_survey_rejects_an_unwritable_out_path(tmp_path):
    target = tmp_path / "missing" / "survey.csv"
    done = run_script("extremal_survey.py", "--max-n", "5", "--out", str(target))
    assert done.returncode == 1 and done.stdout == "" and not target.exists()
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr


def test_campaign_rejects_an_unwritable_json_path(tmp_path):
    target = tmp_path / "missing" / "campaign.json"
    done = run_script("falsification_campaign.py", "--nmax", "3", "--json", str(target))
    assert done.returncode == 1 and done.stdout == "" and not target.exists()
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr


def test_campaign_matches_recorded_digest(tmp_path):
    # The benchmark's recorded campaign at --nmax 6: any byte change to the
    # counterexample JSON, or to a claim's count, fails here too.
    reference = json.loads(REFERENCE_PATH.read_text())["falsify-exhaustive"]["smoke"]
    target = tmp_path / "campaign.json"
    done = run_script("falsification_campaign.py", "--nmax", "6", "--json", str(target))
    assert done.returncode == 0 and done.stderr == ""
    found = json.loads(target.read_text(encoding="utf-8"))
    counts = {claim: len(items) for claim, items in found.items() if items}
    assert counts == reference["counts"] and sum(counts.values()) == reference["total"]
    assert hashlib.sha256(target.read_bytes()).hexdigest() == reference["sha256"]


# The benchmark's full-size outputs, so that every interpreter the test
# suite runs under checks them: the campaign at --nmax 12, and each base
# claim's bounds falsify JSON on 200 random trees of order 40.

def test_campaign_matches_full_size_digest(tmp_path):
    reference = json.loads(REFERENCE_PATH.read_text())["falsify-exhaustive"]["full"]
    target = tmp_path / "campaign.json"
    done = run_script("falsification_campaign.py", "--nmax", "12", "--json", str(target))
    assert done.returncode == 0 and done.stderr == ""
    found = json.loads(target.read_text(encoding="utf-8"))
    counts = {claim: len(items) for claim, items in found.items() if items}
    assert counts == reference["counts"] and sum(counts.values()) == reference["total"] == 3796
    assert hashlib.sha256(target.read_bytes()).hexdigest() == reference["sha256"]


def test_falsify_random_matches_full_size_digests(tmp_path, capsys):
    reference = json.loads(REFERENCE_PATH.read_text())["falsify-random"]["full"]
    assert sorted(reference["sha256"]) == sorted(f"B{k}" for k in range(1, 16))
    for base, digest in sorted(reference["sha256"].items()):
        target = tmp_path / f"{base}.json"
        argv = ["bounds", "falsify", "--bound", base, "--n", "40", "--samples", "200",
                "--seed", str(reference["seed"]), "--format", "json", "--out", str(target)]
        assert main(argv) == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest, base
    assert capsys.readouterr() == ("", "")
