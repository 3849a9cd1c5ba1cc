"""The benchmark's workloads: what each runs, and the checks on its output.

Each workload drives an entry point a user runs (a script's ``main`` or the
CLI's ``main``) with arguments built from the size and the seed.  The
checks are independent of the package: tree counts come from OEIS A000055,
extremal optima from their closed forms, and digests from
``reference.json``, which was recorded once from the program's output.

An operation is the unit ``attempted`` and ``failed`` count: one
``extremal`` call (four per order) in the survey, one claim's sweep in the
exhaustive campaign, one CLI invocation in the random campaign.  An
exception or a mismatched check fails the operations it touches and no
others.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0

# OEIS A000055: free trees with n unlabeled vertices, n = 0..19.
A000055 = (1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320, 48629, 123867, 317955)

# Catalog ids as the campaign writes them, and the base ids the CLI takes.
CLAIM_IDS = ("B1a", "B1b", "B2a", "B2b", "B3", "B4", "B5", "B6", "B7", "B8", "B9",
             "B10", "B11", "B12", "B13", "B14", "B15a", "B15b")
BASE_IDS = tuple(f"B{k}" for k in range(1, 16))

SIZES = {
    "extremal-survey": {"full": {"min_n": 4, "max_n": 15}, "smoke": {"min_n": 4, "max_n": 8}},
    "falsify-exhaustive": {"full": {"nmax": 12}, "smoke": {"nmax": 6}},
    "falsify-random": {"full": {"n": 40, "samples": 200}, "smoke": {"n": 40, "samples": 5}},
}

SURVEY_HEADER = ["n", "trees", "sigma_max", "sigma_max_degrees", "sigma_min", "sigma_min_degrees",
                 "albertson_max", "albertson_min", "seconds"]


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def calls(workload: str, size: str, seed: int, workdir: Path) -> list[tuple[str, list[str]]]:
    """The entry-point calls of one run, as (entry point, argv) pairs.

    The entry point is ``extremal_survey`` or ``falsification_campaign``
    (a script's ``main``, reading ``sys.argv``) or ``cli`` (``cli.main``).
    """
    s = SIZES[workload][size]
    if workload == "extremal-survey":
        return [("extremal_survey", ["--min-n", str(s["min_n"]), "--max-n", str(s["max_n"])])]
    if workload == "falsify-exhaustive":
        return [("falsification_campaign", ["--nmax", str(s["nmax"]), "--json", str(workdir / "campaign.json")])]
    return [
        ("cli", ["bounds", "falsify", "--bound", b, "--n", str(s["n"]), "--samples", str(s["samples"]),
                 "--seed", str(seed), "--format", "json", "--out", str(workdir / f"{b}.json")])
        for b in BASE_IDS
    ]


def _is_tree(n: int, edges) -> bool:
    """Union-find: n - 1 distinct in-range edges and no cycle."""
    if len(edges) != n - 1:
        return False
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            return False
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


class Checker:
    """Checks the outputs of successive runs of one workload.

    ``check`` returns (attempted, failed, sizes, problems) for one run, given
    the per-call errors the run reported (``None`` for a call that returned
    0).  The checker keeps the first run's digests, so later runs at a seed
    without recorded digests must repeat them byte for byte.
    """

    def __init__(self, workload: str, size: str, seed: int, reference: dict) -> None:
        self.workload = workload
        self.size = size
        self.seed = seed
        self.params = SIZES[workload][size]
        self.reference = reference.get(workload, {}).get(size)
        self.first_digests: dict[str, str] | None = None

    @property
    def attempted(self) -> int:
        if self.workload == "extremal-survey":
            return 4 * (self.params["max_n"] - self.params["min_n"] + 1)
        return len(CLAIM_IDS) if self.workload == "falsify-exhaustive" else len(BASE_IDS)

    def check(self, workdir: Path, call_errors: list) -> tuple[int, int, dict, list[str]]:
        method = {
            "extremal-survey": self._survey,
            "falsify-exhaustive": self._exhaustive,
            "falsify-random": self._random,
        }[self.workload]
        try:
            return method(workdir, call_errors)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return self.attempted, self.attempted, {}, [f"output unreadable: {exc!r}"]

    def _survey(self, workdir: Path, call_errors: list):
        orders = range(self.params["min_n"], self.params["max_n"] + 1)
        attempted = self.attempted
        if call_errors != [None]:
            return attempted, attempted, {}, [f"survey raised: {call_errors}"]
        out = workdir / "stdout.txt"
        with out.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        problems = []
        if not rows or rows[0] != SURVEY_HEADER:
            return attempted, attempted, {}, ["survey CSV header differs"]
        by_n = {row[0]: row for row in rows[1:]}
        failed = 0
        for n in orders:
            row = by_n.get(str(n))
            if row is None or len(row) != len(SURVEY_HEADER):
                failed += 4
                problems.append(f"n={n}: row missing or malformed")
                continue
            star = " ".join(["1"] * (n - 1) + [str(n - 1)])
            path = " ".join(["1", "1"] + ["2"] * (n - 2))
            # One group per extremal call: sigma max, sigma min, albertson max, albertson min.
            groups = [
                [("trees", str(A000055[n])), ("sigma_max", str((n - 1) * (n - 2) ** 2)), ("sigma_max_degrees", star)],
                [("sigma_min", "2"), ("sigma_min_degrees", path)],
                [("albertson_max", str((n - 1) * (n - 2)))],
                [("albertson_min", "2")],
            ]
            for group in groups:
                bad = [(col, row[SURVEY_HEADER.index(col)], want) for col, want in group
                       if row[SURVEY_HEADER.index(col)] != want]
                if bad:
                    failed += 1
                    problems.append(f"n={n}: " + ", ".join(f"{c}={got!r}, expected {want!r}" for c, got, want in bad))
        examined = 4 * sum(A000055[n] for n in orders)
        sizes = {"trees": examined, "evaluations": examined, "output_bytes": out.stat().st_size}
        return attempted, failed, sizes, problems

    def _exhaustive(self, workdir: Path, call_errors: list):
        attempted = self.attempted
        if call_errors != [None]:
            return attempted, attempted, {}, [f"campaign raised: {call_errors}"]
        out = workdir / "campaign.json"
        digest = sha256_file(out)
        found = json.loads(out.read_text(encoding="utf-8"))
        counts = {claim: len(found.get(claim, ())) for claim in CLAIM_IDS}
        if self.reference is None:
            return attempted, attempted, {}, ["no reference digest for this size"]
        wanted = self.reference["counts"]
        wrong = [c for c in CLAIM_IDS if counts[c] != wanted.get(c, 0)]
        problems = [f"{c}: {counts[c]} counterexamples, expected {wanted.get(c, 0)}" for c in wrong]
        if set(found) != set(CLAIM_IDS):
            problems.append(f"campaign claims {sorted(found)} differ from the catalog")
        if sum(counts.values()) != self.reference["total"]:
            problems.append(f"counterexample total {sum(counts.values())} != {self.reference['total']}")
        if digest != self.reference["sha256"]:
            problems.append(f"campaign JSON sha256 {digest} differs from the recorded digest")
        # A claim whose count is wrong fails on its own; a mismatch that no
        # count explains cannot be attributed, so it fails every claim.
        failed = len(wrong) if wrong else (attempted if problems else 0)
        trees = sum(A000055[2:self.params["nmax"] + 1])
        sizes = {
            "trees": trees,
            "evaluations": trees * len(CLAIM_IDS),
            "counterexamples": sum(counts.values()),
            "output_bytes": out.stat().st_size,
        }
        return attempted, failed, sizes, problems

    def _random(self, workdir: Path, call_errors: list):
        n, samples = self.params["n"], self.params["samples"]
        recorded = self.reference["sha256"] if self.reference and self.seed == self.reference["seed"] else None
        digests = {}
        failed = 0
        problems = []
        total_bytes = 0
        for base, error in zip(BASE_IDS, call_errors):
            out = workdir / f"{base}.json"
            try:
                if error is not None:
                    raise RuntimeError(error)
                digest = digests[base] = sha256_file(out)
                total_bytes += out.stat().st_size
                payload = json.loads(out.read_text(encoding="utf-8"))
                if recorded is not None and digest != recorded[base]:
                    raise ValueError(f"sha256 {digest} differs from the recorded digest")
                if self.first_digests is not None and digest != self.first_digests.get(base):
                    raise ValueError("output differs from this seed's first run")
                for c in payload["counterexamples"]:
                    if c["n"] != n or not _is_tree(n, c["edges"]) or c["bound_id"].rstrip("ab") != base:
                        raise ValueError(f"witness is not a tree of order {n}: {c['edge_list']!r}")
            except (OSError, ValueError, KeyError, TypeError, RuntimeError) as exc:
                failed += 1
                problems.append(f"{base}: {exc}")
        if self.first_digests is None:
            self.first_digests = digests
        sizes = {"trees": samples * len(BASE_IDS), "evaluations": samples * len(CLAIM_IDS), "output_bytes": total_bytes}
        return self.attempted, failed, sizes, problems
