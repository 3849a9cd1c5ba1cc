"""One timed run of a workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  It imports sigmairr and
the workload's entry point from the checkout, builds the call arguments,
stamps the end of set-up on the system-wide monotonic clock (which the
parent also reads before it starts this process), measures the interpreter's
speed (speed.py), runs the calls, flushes stdout and stamps the end.
Timings, per-call errors and, in traced mode, the trace are written as JSON
to ``--result``.

Modes: ``setup`` stamps the end of set-up and exits without running the
task, ``plain`` times the task and samples the speed while it runs, ``stats``
also records CPU and garbage collector time, and ``traced`` also wraps
sigmairr's layers (see tracer.py).  Only ``plain`` runs give end-to-end
times, so the other modes take no samples during the task.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import sigmairr  # noqa: E402  (set-up includes the package import)

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry(name: str):
    """(call, module) for an entry point: the CLI's main, or a script's main
    with ``sys.argv`` set; module is the script's, or None for the CLI."""
    if name == "cli":
        cli = importlib.import_module("sigmairr.cli")
        return (lambda argv: cli.main(argv)), None  # looked up per call, so a traced main is used
    module = _load_script(name)

    def run_script(argv):
        sys.argv = [f"{name}.py", *argv]
        return module.main()

    return run_script, module


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--size", required=True, choices=("full", "smoke"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "plain", "stats", "traced"))
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    if not Path(sigmairr.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"sigmairr was imported from {sigmairr.__file__}, not from this checkout")
    calls = workloads.calls(args.workload, args.size, args.seed, args.workdir)
    entries = {name: _entry(name) for name in {name for name, _ in calls}}
    scripts = [module for _, module in entries.values() if module is not None]
    ready = time.monotonic()
    setup_speed = speed.burst()
    if args.mode == "setup":
        args.result.write_text(json.dumps({"ready": ready, "setup_speed": setup_speed, "errors": []}),
                               encoding="utf-8")
        return 0

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracing.install(tracer, scripts)
    gc_clock = tracing.GcClock() if args.mode != "plain" else None
    sampler = speed.Sampler() if args.mode == "plain" else None

    cpu0 = time.process_time()
    start = time.perf_counter()
    with contextlib.ExitStack() as scope:
        if gc_clock:
            scope.enter_context(gc_clock)
        if sampler:
            scope.enter_context(sampler)
        if tracer:
            scope.enter_context(tracer.span("task"))
        errors = _run(calls, entries)
        sys.stdout.flush()
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    if tracer:
        tracer.uninstall()

    result = {"ready": ready, "setup_speed": setup_speed, "wall_s": wall, "errors": errors}
    if sampler:
        result.update(scaled_wall_s=sampler.scale(wall), samples=len(sampler.samples),
                      task_speed=speed.speed(sampler.samples) if sampler.samples else None)
    if gc_clock:
        result.update(cpu_s=cpu, gc_s=gc_clock.seconds, gc_collections=gc_clock.collections)
    if tracer:
        result["trace"] = tracer.to_json()
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


def _run(calls, entries) -> list:
    """Run every call; one failing call does not stop the others."""
    errors = []
    for name, argv in calls:
        try:
            code = entries[name][0](argv)
            errors.append(None if code == 0 else f"exit code {code}")
        except (Exception, SystemExit) as exc:  # reported per call; the parent counts it as failed
            errors.append(repr(exc))
    return errors


if __name__ == "__main__":
    sys.exit(main())
