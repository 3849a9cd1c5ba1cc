"""In-memory tracing of sigmairr's layers, installed from outside the package.

The tracer replaces public functions of ``search``, ``graphs``, ``indices``,
``sequences``, ``bounds`` and ``cli`` with timing wrappers, and rebinds every
other name that refers to the same function object (module globals such as
``search.evaluate_bound`` or ``bounds.sigma``, the package namespace,
``search.OBJECTIVES`` and the globals of an imported script).  A function
reached through a name that was not rebound would run untraced and its
counts would silently undercount, so ``install`` rebinds by identity rather
than by a list of known aliases.

Hot calls are aggregated per layer into a count, total time, self time (the
call's duration minus the time its traced children took) and a log2
histogram of durations in microseconds.  Coarse calls (``KEPT_SPANS``) are
additionally kept one span each as (name, start, end, parent).  Nothing is
written while the task runs; ``to_json`` is called once it has ended.
"""

from __future__ import annotations

import contextlib
import gc
import json
import sys
import time
from collections import defaultdict

# Layers kept one span each; all others are aggregated only.
KEPT_SPANS = frozenset(
    {"task", "search.extremal", "search.falsify", "cli.main", "cli.render.render", "cli.render.json_dump"}
)
# Layers whose per-call durations are kept for percentiles.
KEEP_DURATIONS = frozenset({"search.extremal", "bounds.evaluate"})


class _Layer:
    __slots__ = ("count", "total", "self_time", "hist")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.hist: dict[int, int] = defaultdict(int)


class Tracer:
    def __init__(self) -> None:
        self.layers: dict[str, _Layer] = defaultdict(_Layer)
        self.counters: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[list] = []  # open frames: [child time, kept span index or -1]
        self._kept_open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}

    # -- timing core -------------------------------------------------------

    def _enter(self, name: str) -> list:
        kept = -1
        if name in KEPT_SPANS:
            kept = len(self.spans)
            parent = self._kept_open[-1] if self._kept_open else -1
            self.spans.append([name, 0.0, 0.0, parent])
            self._kept_open.append(kept)
        frame = [0.0, kept]
        self._stack.append(frame)
        return frame

    def _leave(self, name: str, frame: list, start: float, end: float, duration_key: str | None = None) -> None:
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][0] += dur
        layer = self.layers[name]
        layer.count += 1
        layer.total += dur
        layer.self_time += dur - frame[0]
        layer.hist[int(dur * 1e6).bit_length()] += 1
        if duration_key is not None:
            self.durations[duration_key].append(dur)
        if frame[1] >= 0:
            span = self.spans[frame[1]]
            span[1], span[2] = start, end
            self._kept_open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around code the benchmark itself runs."""
        frame = self._enter(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._leave(name, frame, start, time.perf_counter())

    def timed(self, fn, name: str, name_of=None, on_result=None):
        """Wrap a function: each call is one sample of layer ``name``.

        ``name_of(args)`` may refine the layer name per call (the catalog id
        for ``evaluate_bound``); ``on_result(result, args)`` sees each result.
        """
        enter, leave, clock = self._enter, self._leave, time.perf_counter
        duration_key = name if name in KEEP_DURATIONS else None

        def wrapper(*args, **kwargs):
            layer = name_of(args) if name_of else name
            frame = enter(layer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(layer, frame, start, clock(), duration_key)
            if on_result is not None:
                on_result(result, args)
            return result

        return self._register(fn, wrapper)

    def timed_generator(self, fn, name: str):
        """Wrap a generator function: time spent inside each ``next()`` is one
        sample of ``name``; yielded items are counted as ``<name>.yields``."""
        enter, leave, clock, counters = self._enter, self._leave, time.perf_counter, self.counters

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = enter(name)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    leave(name, frame, start, clock())
                counters[name + ".yields"] += 1
                yield item

        return self._register(fn, wrapper)

    def counted(self, fn, name: str, on_call=None):
        """Wrap a function with a counter only; its time stays in its caller.
        ``on_call(args)`` may record more about each call."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            if on_call is not None:
                on_call(args)
            return fn(*args, **kwargs)

        return self._register(fn, wrapper)

    def _register(self, fn, wrapper):
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__wrapped__ = fn
        self._originals[id(fn)] = wrapper
        return wrapper

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` (a module function or a class attribute) by
        ``make(original)``.  A classmethod stays a classmethod."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, classmethod(make(raw.__func__)) if isinstance(raw, classmethod) else make(raw))

    def rebind(self, namespaces) -> None:
        """Point every name in ``namespaces`` (modules or dicts) that still
        refers to a wrapped original at its wrapper."""
        for ns in namespaces:
            items = ns if isinstance(ns, dict) else vars(ns)
            for key, value in list(items.items()):
                wrapper = self._originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((items, key, value))
                    items[key] = wrapper

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "layers": {
                name: {
                    "count": layer.count,
                    "total_s": layer.total,
                    "self_s": layer.self_time,
                    "hist_log2_us": {str(k): v for k, v in sorted(layer.hist.items())},
                }
                for name, layer in sorted(self.layers.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "durations": {k: v for k, v in sorted(self.durations.items())},
            "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
        }


def install(tracer: Tracer, script_modules=()) -> None:
    """Wrap sigmairr's layers and rebind every alias of a wrapped function."""
    from sigmairr import bounds, cli, graphs, indices, search, sequences

    t = tracer

    def outcome(report, _args) -> None:
        if report.indeterminate:
            kind = "indeterminate"
        elif report.holds is None:
            kind = "not_computable"
        elif not report.hypotheses_met:
            kind = "unmet"
        else:
            kind = "holds" if report.holds else "fails"
        t.counters["bounds.outcome." + kind] += 1

    def emitted_bytes(args) -> None:
        t.counters["cli.render.bytes"] += len(args[0].encode("utf-8"))

    def escalated(args) -> None:
        if args[1] == bounds._BITS_ESCALATED:
            t.counters["bounds.sqrt.calls_128"] += 1

    def dump_bytes(fn):
        def dump(obj, fh, *args, **kwargs):
            before = fh.tell()
            fn(obj, fh, *args, **kwargs)
            t.counters["cli.render.bytes"] += fh.tell() - before

        return t.timed(dump, "cli.render.json_dump")

    t.patch(search, "rooted_level_sequences", lambda f: t.timed_generator(f, "search.walk"))
    t.patch(search, "free_tree_level_sequences", lambda f: t.timed_generator(f, "search.select"))
    t.patch(search, "levels_to_graph", lambda f: t.timed(f, "search.materialise"))
    t.patch(search, "canonical_form", lambda f: t.timed(f, "search.canonical_form"))
    t.patch(search, "extremal", lambda f: t.timed(f, "search.extremal"))
    t.patch(search, "falsify", lambda f: t.timed(f, "search.falsify"))
    t.patch(search.TreeClass, "contains", lambda f: t.timed(f, "search.membership"))
    t.patch(graphs.Graph, "__init__", lambda f: t.timed(f, "graphs.graph_init"))
    t.patch(graphs, "is_tree", lambda f: t.timed(f, "graphs.is_tree"))
    t.patch(graphs, "complement", lambda f: t.timed(f, "graphs.complement"))
    t.patch(indices, "sigma", lambda f: t.timed(f, "indices.sigma"))
    t.patch(indices, "albertson", lambda f: t.timed(f, "indices.albertson"))
    t.patch(sequences, "derive", lambda f: t.timed(f, "sequences.derive"))
    t.patch(sequences, "random_tree", lambda f: t.timed(f, "sequences.random_tree"))
    t.patch(bounds.BoundInput, "from_graph", lambda f: t.timed(f, "bounds.input"))
    t.patch(bounds, "resolve_parameters", lambda f: t.timed(f, "bounds.resolve"))
    t.patch(
        bounds,
        "evaluate_bound",
        lambda f: t.timed(f, "bounds.evaluate", name_of=lambda a: "bounds.evaluate." + a[0], on_result=outcome),
    )
    t.patch(bounds, "sqrt_rval", lambda f: t.counted(f, "bounds.sqrt.calls", escalated))
    t.patch(bounds, "nth_root_rval", lambda f: t.counted(f, "bounds.nth_root.calls"))
    t.patch(cli, "main", lambda f: t.timed(f, "cli.main"))
    t.patch(cli, "_render", lambda f: t.timed(f, "cli.render.render"))
    t.patch(cli, "_emit", lambda f: t.counted(f, "cli.render.emits", emitted_bytes))
    for cls in (bounds.BoundReport, search.Counterexample, search.SearchResult):
        t.patch(cls, "to_json_dict", lambda f, c=cls: t.timed(f, f"cli.render.{c.__name__}"))
    t.patch(json, "dump", dump_bytes)

    modules = [m for name, m in sys.modules.items() if name == "sigmairr" or name.startswith("sigmairr.")]
    t.rebind([*modules, search.OBJECTIVES, *script_modules])


class GcClock:
    """Time and count garbage collections through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)
        return False
