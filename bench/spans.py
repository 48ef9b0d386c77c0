"""Span tracer for the benchmark's traced pass, applied from outside `src/`.

`Tracer.install()` replaces the public functions of each nestloc layer with
wrappers that record one span per call: name, parent span, start and end
(`time.perf_counter_ns`). Spans live in four flat arrays in memory and are
written to a file when the pass ends; `summarize()` turns the file into
per-name call counts, inclusive and self times.

Modules import layer functions by name (`from .vertex import co_class` in
`integrals`, `run_scenario` in `cli`, ...), so a wrapper is bound in place
of every module attribute, in every loaded `nestloc` module, that is the
original function object. A target that no longer exists, or that no
module binds, raises `TraceError` instead of silently reporting zero.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

# (module, attribute, span name). "Class.method" patches a method in the
# class; every alias of the same function in the class (LaurentPoly's
# __rmul__ is __mul__) is patched with it.
SPAN_TARGETS = (
    ("nestloc.combinatorics", "partitions_of", "combinatorics.partitions_of"),
    ("nestloc.combinatorics", "subpartitions", "combinatorics.subpartitions"),
    ("nestloc.combinatorics", "multipartitions", "combinatorics.multipartitions"),
    ("nestloc.combinatorics", "nested_chains", "combinatorics.nested_chains"),
    ("nestloc.characters", "LaurentPoly.__add__", "characters.op"),
    ("nestloc.characters", "LaurentPoly.__mul__", "characters.op"),
    ("nestloc.characters", "LaurentPoly.substitute", "characters.op"),
    ("nestloc.characters", "LaurentPoly.bar", "characters.op"),
    ("nestloc.vertex", "co_class", "vertex.co_class"),
    ("nestloc.vertex", "tangent_char", "vertex.tangent_char"),
    ("nestloc.vertex", "taut_char", "vertex.taut_char"),
    ("nestloc.vertex", "virtual_tangent_char", "vertex.virtual_tangent_char"),
    ("nestloc.integrals", "insertion_basis", "integrals.insertion_basis"),
    ("nestloc.integrals", "integrate_ambient_batch", "integrals.ambient"),
    ("nestloc.integrals", "integrate_virtual_batch", "integrals.virtual"),
    ("nestloc.integrals", "chern_series", "integrals.chern_series"),
    ("nestloc.integrals", "euler_class", "integrals.euler_class"),
    ("nestloc.chern", "verify_higher_tp", "chern.verify_higher_tp"),
    ("nestloc.chern", "segre", "chern.segre"),
    ("nestloc.chern", "thom_porteous", "chern.thom_porteous"),
    ("nestloc.chern", "twist_by_line", "chern.twist_by_line"),
    ("nestloc.harness", "run_scenario", "harness.run_scenario"),
    ("nestloc.harness", "_run_group", "harness.group"),
    ("nestloc.harness", "emit_report", "harness.emit_report"),
)

# Counted, not timed: called once per weight inside a cached series product,
# so a span would cost more than the call.
COUNT_TARGETS = (("nestloc.series", "line_factor", "series.line_factor"),)

# span name -> lru_cache'd function whose cache_info() gives its hit ratio;
# for the first three the span wraps the cached function itself.
CACHES = {
    "vertex.co_class": ("nestloc.vertex", "co_class"),
    "vertex.tangent_char": ("nestloc.vertex", "tangent_char"),
    "vertex.virtual_tangent_char": ("nestloc.vertex", "virtual_tangent_char"),
    "integrals.chern_series": ("nestloc.integrals", "_chern_series_cached"),
    "integrals.euler_class": ("nestloc.integrals", "_euler_cached"),
}


class TraceError(RuntimeError):
    """A span target is missing, unbound, or inconsistent with its cache."""


def _resolve(module_name: str, attr: str):
    obj = importlib.import_module(module_name)
    owner = obj
    for part in attr.split("."):
        owner = obj
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise TraceError(f"span target {module_name}.{attr} does not exist") from None
    return owner, obj


def _nestloc_namespaces():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "nestloc" or name.startswith("nestloc.")):
            yield module


class Tracer:
    """In-memory span recorder plus the work counters of the traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.snapshots: list[dict] = []
        self._caches: dict[str, object] = {}
        self._seen: set = set()

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        name_append, parent_append = self.name.append, self.parent.append
        start_append, end_append = self.start.append, self.end.append
        end, stack, clock = self.end, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(end)
            name_append(nid)
            parent_append(stack[-1])
            end_append(0)
            stack.append(idx)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (the `cli.main` call)."""
        nid = self._name_id(name)
        idx = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    # -- work counts computed from call arguments ------------------------------

    def _count_enumeration(self, counter: str):
        def hook(args, kwargs, result):
            key = (args, tuple(sorted(kwargs.items())))
            if (counter, key) not in self._seen:  # first call enumerates, later ones hit the cache
                self._seen.add((counter, key))
                self.counts[counter] += len(result)

        return hook

    def _count_terms(self, prefix: str, fn, points):
        signature = inspect.signature(fn)

        def hook(args, kwargs, result):
            bound = signature.bind(*args, **kwargs).arguments
            n_ins = len(bound["insertions"])
            self.counts[f"{prefix}.terms"] += points(bound["surface"], bound["sizes"]) * n_ins
            self.counts["integrals.insertions"] += n_ins

        return hook

    # -- installation ------------------------------------------------------------

    @staticmethod
    def _rebind(target: str, owner, original, wrapper) -> None:
        places = [owner] if isinstance(owner, type) else list(_nestloc_namespaces())
        bound = 0
        for place in places:
            for key, value in list(vars(place).items()):
                if value is original:
                    setattr(place, key, wrapper)
                    bound += 1
        if not bound:
            raise TraceError(f"{target} is bound in no nestloc namespace")

    def install(self) -> None:
        resolved = {
            (module_name, attr): _resolve(module_name, attr)
            for module_name, attr, _ in SPAN_TARGETS + COUNT_TARGETS
        }
        originals = {key: fn for key, (_, fn) in resolved.items()}
        for span_name, (module_name, attr) in CACHES.items():
            fn = _resolve(module_name, attr)[1]
            if not hasattr(fn, "cache_info"):
                raise TraceError(f"{module_name}.{attr} is no longer an lru_cache")
            self._caches[span_name] = fn

        multipartitions = originals[("nestloc.combinatorics", "multipartitions")]
        nested_chains = originals[("nestloc.combinatorics", "nested_chains")]

        def fixed_point_tuples(surface, sizes):
            total = 1
            for n in sizes:
                total *= len(multipartitions(surface, n))
            return total

        def chains(surface, sizes):
            return len(nested_chains(surface, tuple(sizes)))

        hooks = {
            "combinatorics.multipartitions": self._count_enumeration("combinatorics.fixed_points"),
            "combinatorics.nested_chains": self._count_enumeration("combinatorics.chains"),
            "integrals.ambient": self._count_terms(
                "integrals.ambient",
                originals[("nestloc.integrals", "integrate_ambient_batch")],
                fixed_point_tuples,
            ),
            "integrals.virtual": self._count_terms(
                "integrals.virtual",
                originals[("nestloc.integrals", "integrate_virtual_batch")],
                chains,
            ),
        }
        for module_name, attr, span_name in SPAN_TARGETS:
            owner, original = resolved[(module_name, attr)]
            wrapper = self._wrap(span_name, original, hooks.get(span_name))
            self._rebind(f"{module_name}.{attr}", owner, original, wrapper)
        for module_name, attr, name in COUNT_TARGETS:
            owner, original = resolved[(module_name, attr)]
            wrapper = self._counter(f"{name}.calls", original)
            self._rebind(f"{module_name}.{attr}", owner, original, wrapper)

    def snapshot(self, label: str) -> None:
        """Read every cache_info() after a scenario (cumulative in the process)."""
        caches = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            caches[name] = [info.hits, info.misses, info.currsize]
        self.snapshots.append({"label": label, "caches": caches})

    def write(self, path: str) -> dict:
        """Write the span arrays to `path`; return the header that describes them."""
        with open(path, "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        return {
            "spans": len(self.end),
            "names": self.names,
            "counts": dict(self.counts),
            "snapshots": self.snapshots,
        }


def summarize(path: str, header: dict) -> dict:
    """Per span name: calls, inclusive seconds (outermost call of that name
    only, so recursion is not counted twice) and self seconds (duration
    minus the time covered by child spans)."""
    n = header["spans"]
    arrays = [array("i"), array("i"), array("q"), array("q")]
    with open(path, "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    name, parent, start, end = arrays
    duration = [e - s for s, e in zip(start, end)]
    self_ns = list(duration)
    for i in range(n):
        if parent[i] >= 0:
            self_ns[parent[i]] -= duration[i]
    out = {label: {"calls": 0, "s": 0.0, "self_s": 0.0} for label in header["names"]}
    for i in range(n):
        row = out[header["names"][name[i]]]
        row["calls"] += 1
        row["self_s"] += self_ns[i] / 1e9
        p = parent[i]
        while p >= 0 and name[p] != name[i]:
            p = parent[p]
        if p < 0:
            row["s"] += duration[i] / 1e9
    return out
