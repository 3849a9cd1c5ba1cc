#!/usr/bin/env python3
"""sigmairr's benchmark: end-to-end metrics per workload, or a traced run.

    python3 perfbench/run.py --workload extremal-survey --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all                # every workload, one summary

Each timed run is a fresh single-threaded interpreter (child.py) that
imports sigmairr from ``src/`` of this checkout, builds its inputs and calls
the workload's entry point.  Runs repeat until ``--seconds`` have passed
(at least three), and every run's outputs are checked (workloads.py).

With ``--trace 0`` the result holds the end-to-end metrics, each the median
over the runs:

* ``wall_s``: first call to last output byte written, timed in the child and
  scaled to the reference interpreter speed by the speed sampled while the
  task ran (speed.py);
* ``setup_s``: from just before the process is started to the end of set-up
  (interpreter start, imports, input generation), scaled by the speed
  measured right after it, over the timed runs and ten more that stop there;
* ``peak_rss_mb``: the child's peak resident memory, from ``wait4``.

The unscaled times stay in the record file beside each run's speeds.

With ``--trace 1`` runs alternate between an untraced run that also records
CPU and garbage-collector time and a traced run (tracer.py); the result
holds the per-layer metrics listed in layers.json, with
``trace.overhead_s`` = traced wall time - untraced wall time (medians).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``failed / attempted`` is the fail fraction.
The full record, with run metadata, goes to ``.perfbench/BENCH_<label>.json``.
Exits 2 without a result when the checkout lacks the program's sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # beside this file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

REQUIRED = ("src/sigmairr/__init__.py", "scripts/extremal_survey.py", "scripts/falsification_campaign.py")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYERS = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["metrics"]
MIN_RUNS = 3
SETUP_RUNS = 10  # set-up is short, so it is also timed on its own this many times
BUDGET_S = 160.0  # a whole invocation per workload must end well within 180 s
POLL_S = 0.005

# Layers reported as <name>.calls and <name>.self_s straight from the trace.
PLAIN_LAYERS = (
    "search.materialise", "graphs.graph_init", "search.membership", "graphs.is_tree", "indices.sigma",
    "indices.albertson", "search.canonical_form", "search.falsify", "bounds.input", "sequences.derive",
    "bounds.resolve", "graphs.complement", "sequences.random_tree",
)


# ---------------------------------------------------------------------------
# One child run


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap ``proc`` with its resource usage; kill it at ``deadline``."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        time.sleep(POLL_S)


def launch(workload: str, size: str, seed: int, mode: str, workdir: Path, deadline: float) -> dict:
    """Run child.py once; returns its result with ``setup_s`` and ``rss_mb``,
    or ``{"crash": message}``."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result_path = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--size", size, "--seed", str(seed),
           "--workdir", str(workdir), "--mode", mode, "--result", str(result_path)]
    with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT)
        usage = _wait(proc, deadline)
    if proc.returncode != 0 or not result_path.exists():
        tail = (workdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-400:]
        return {"crash": f"{mode} run exited with {proc.returncode}: {tail.strip()}"}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["unscaled_setup_s"] = result.pop("ready") - started
    result["setup_s"] = result["unscaled_setup_s"] * result["setup_speed"]
    result["rss_mb"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    return result


# ---------------------------------------------------------------------------
# Metrics


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q: int):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced run."""
    layers, counters, durations = trace["layers"], trace["counters"], trace["durations"]

    def field(name, key):
        return layers.get(name, {}).get(key, 0)

    m = {}
    seqs = counters.get("search.walk.yields", 0)
    trees = counters.get("search.select.yields", 0)
    m["search.walk.seqs"] = seqs
    m["search.walk.self_s"] = field("search.walk", "self_s")
    m["search.select.trees"] = trees
    m["search.select.keep_ratio"] = trees / seqs if seqs else 0.0
    m["search.select.self_s"] = field("search.select", "self_s")
    for name in PLAIN_LAYERS:
        m[name + ".calls"] = field(name, "count")
        m[name + ".self_s"] = field(name, "self_s")
    m["search.extremal.calls"] = field("search.extremal", "count")
    m["search.extremal.p50_ms"] = _percentile(durations.get("search.extremal", []), 50) * 1e3
    per_claim = {cid: layers.get("bounds.evaluate." + cid, {}) for cid in workloads.CLAIM_IDS}
    evaluations = sum(layer.get("count", 0) for layer in per_claim.values())
    m["bounds.evaluate.calls"] = evaluations
    m["bounds.evaluate.self_s"] = sum(layer.get("self_s", 0) for layer in per_claim.values())
    evaluate_durations = durations.get("bounds.evaluate", [])
    m["bounds.evaluate.p50_us"] = _percentile(evaluate_durations, 50) * 1e6
    m["bounds.evaluate.p99_us"] = _percentile(evaluate_durations, 99) * 1e6
    for cid, layer in per_claim.items():
        m[f"bounds.evaluate.{cid}.self_s"] = layer.get("self_s", 0)
    for key in ("bounds.sqrt.calls", "bounds.sqrt.calls_128", "bounds.nth_root.calls", "cli.render.bytes"):
        m[key] = counters.get(key, 0)
    outcomes = {kind: counters.get("bounds.outcome." + kind, 0)
                for kind in ("holds", "fails", "unmet", "not_computable", "indeterminate")}
    for kind, count in outcomes.items():
        m["bounds.outcome." + kind] = count
    m["bounds.probative_ratio"] = (outcomes["holds"] + outcomes["fails"]) / evaluations if evaluations else 0.0
    m["cli.render.self_s"] = sum(layer["self_s"] for name, layer in layers.items() if name.startswith("cli.render."))
    return m


# ---------------------------------------------------------------------------
# One workload


def run_workload(workload: str, size: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    begun = time.monotonic()
    deadline = begun + BUDGET_S
    workdir = OUT / "work" / workload
    checker = workloads.Checker(workload, size, seed, reference)
    launch(workload, size, seed, "setup", workdir, deadline)  # fills the bytecode cache; not counted
    setups = [] if trace else [launch(workload, size, seed, "setup", workdir, deadline) for _ in range(SETUP_RUNS)]

    modes = ("stats", "traced") if trace else ("plain",)
    runs: dict[str, list[dict]] = {mode: [] for mode in modes}
    attempted = failed = 0
    problems: list[str] = []
    sizes: dict = {}
    longest = 0.0
    while True:
        for mode in modes:
            t0 = time.monotonic()
            result = launch(workload, size, seed, mode, workdir, deadline)
            longest = max(longest, time.monotonic() - t0)
            if "crash" in result:
                a, f, s, p = checker.attempted, checker.attempted, {}, [result["crash"]]
            else:
                a, f, s, p = checker.check(workdir, result["errors"])
                runs[mode].append(result)
            attempted += a
            failed += f
            sizes = sizes or s
            problems.extend(f"{mode} run {len(runs[mode])}: {x}" for x in p)
        rounds = max(len(r) for r in runs.values())
        elapsed = time.monotonic() - begun
        enough = rounds >= MIN_RUNS and elapsed >= seconds
        if enough or elapsed + len(modes) * longest * 1.2 > BUDGET_S:
            break

    if trace:
        per_run = [layer_metrics(r["trace"]) for r in runs["traced"]]
        metrics = {name: _median([m[name] for m in per_run]) for name in per_run[0]} if per_run else {}
        stats = runs["stats"]
        metrics["proc.cpu_s"] = _median([r["cpu_s"] for r in stats])
        metrics["proc.gc_s"] = _median([r["gc_s"] for r in stats])
        metrics["proc.gc_collections"] = _median([r["gc_collections"] for r in stats])
        metrics["trace.overhead_s"] = (_median([r["wall_s"] for r in runs["traced"]])
                                       - _median([r["wall_s"] for r in stats]))
        # Parameter resolutions per distinct tree the workload evaluates.
        trees = sizes.get("trees") if workload != "extremal-survey" else None
        metrics["bounds.resolve.per_input"] = metrics.get("bounds.resolve.calls", 0) / trees if trees else 0.0
        units = {m["name"]: m["unit"] for m in LAYERS}
        raw = {mode: [{k: v for k, v in r.items() if k != "trace"} for r in rs] for mode, rs in runs.items()}
        if runs["traced"]:
            trace_path = OUT / f"trace_{workload}_seed{seed}.json"
            trace_path.write_text(json.dumps(runs["traced"][-1]["trace"]), encoding="utf-8")
    else:
        plain = runs["plain"]
        metrics = {
            "wall_s": _median([r["scaled_wall_s"] for r in plain]),
            "setup_s": _median([r["setup_s"] for r in setups + plain if "setup_s" in r]),
            "peak_rss_mb": _median([r["rss_mb"] for r in plain]),
        }
        units = E2E_UNITS
        raw = runs
    return {
        "workload": workload,
        "size": dict(workloads.SIZES[workload][size], name=size),
        "sizes": sizes,
        "runs": {mode: len(rs) for mode, rs in runs.items()},
        "attempted": attempted,
        "failed": failed,
        "complete": all(runs.values()),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "problems": problems,
        "raw_runs": raw,
    }


# ---------------------------------------------------------------------------
# Metadata and output


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, read directly (a checkout may have none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def metadata(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "min_runs": MIN_RUNS,
    }


def _summary_line(result: dict) -> str:
    parts = [f"{result['workload']:20s}"]
    for name in E2E_UNITS:
        metric = result["metrics"].get(name)
        if metric:
            parts.append(f"{name} {metric['value']:.4f} {metric['unit']}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    parts.append(f"fail_frac {frac:g} ratio ({result['failed']}/{result['attempted']} operations)")
    parts.append("runs " + ", ".join(f"{n} {mode}" for mode, n in result["runs"].items()))
    return "  ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.SIZES, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: this checkout lacks {', '.join(missing)}; nothing to benchmark", file=sys.stderr)
        return 2

    reference = workloads.load_reference()
    names = list(workloads.SIZES) if args.workload == "all" else [args.workload]
    results = [run_workload(w, args.size, args.seed, args.seconds, bool(args.trace), reference) for w in names]

    OUT.mkdir(exist_ok=True)
    label = f"{args.workload}_{args.size}_seed{args.seed}_trace{args.trace}"
    record = {"metadata": metadata(args), "results": results}
    (OUT / f"BENCH_{label}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    meta = record["metadata"]
    print(f"python {meta['python']}  nproc {meta['nproc']}  cpu {meta['cpu_model']}  "
          f"commit {meta['git_commit'] or 'unknown'}  source {meta['source_sha256'][:12]}  seed {meta['seed']}")
    for result in results:
        print(_summary_line(result))
        for problem in result["problems"][:20]:
            print(f"  problem: {problem}", file=sys.stderr)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(r["complete"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
