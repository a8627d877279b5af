"""In-process tracing of one lodprobe CLI run, from outside the package.

`Tracer.install()` replaces public functions and methods with counting
wrappers at the module where each name is bound (for instance
`lodprobe.metrics.try_pld`, `StableBloomFilter.check_and_add`), so no file
under `src/lodprobe` changes. Two kinds of record come out:

* spans at coarse boundaries (the whole command, the stream, each
  processor's finalize, the report write, the sort), each with a name,
  start, end and parent; a span's self time is its duration minus the
  time its child spans and child aggregates cover;
* aggregates for hot per-call sites: a count and a total time per site,
  kept in memory instead of millions of spans.

`layer_metrics()` turns both into the per-module metrics the benchmark
declares in LAYER_METRICS. A name the package no longer has raises
AttributeError at install, so a refactor that moves a traced function fails
the traced run instead of reporting its layer as free.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import defaultdict
from enum import Enum
from types import BuiltinFunctionType, FunctionType, MethodType, ModuleType

MIB = 1024 * 1024
SHORT = {
    "external-links": "extlinks",
    "extensional-conciseness": "extcon",
    "dereferenceability": "deref",
    "clustering-coefficient": "cc",
}
PROCESSOR_KEYS = [f"{m}.{v}" for m in SHORT.values() for v in ("est", "exact")]

# (name, unit) of every per-layer metric, in the order they are printed.
LAYER_METRICS = [
    ("cli.stream_s", "s"),
    ("cli.dispatch_s", "s"),
    ("cli.finalize_s", "s"),
    ("cli.report_write_s", "s"),
    ("cli.cpu_s", "s"),
    ("cli.compose_probe_failed", "count"),
    ("ntriples.read_parse_s", "s"),
    ("ntriples.parse_line.calls", "count"),
    ("ntriples.parse_errors", "count"),
    ("ntriples.serialize_term.calls", "count"),
    ("ntriples.serialize_term_s", "s"),
    ("terms.term.calls", "count"),
    ("pld.try_pld.calls", "count"),
    ("pld.try_pld_s", "s"),
    ("pld.distinct_authorities", "count"),
    ("pld.reuse_ratio", "fraction"),
    ("murmur3.calls", "count"),
    ("murmur3.kib", "KiB"),
    ("murmur3.hash_s", "s"),
    ("murmur3.us_per_kib", "us/KiB"),
    ("sketches.sbf.calls", "count"),
    ("sketches.sbf.check_s", "s"),
    ("sketches.sbf.load", "fraction"),
    ("sketches.sbf.final_fpr", "fraction"),
    ("sketches.sbf.resets", "count"),
    ("sketches.reservoir.calls", "count"),
    ("sketches.reservoir.add_s", "s"),
    ("sketches.reservoir.kept_ratio", "fraction"),
    ("rng.draws", "count"),
    ("graph.add_triple.calls", "count"),
    ("graph.add_triple_s", "s"),
    ("graph.vertices", "count"),
    ("graph.edges", "count"),
    ("graph.freeze_s", "s"),
    ("graph.walk_steps", "count"),
    ("graph.walk_s", "s"),
    ("graph.exact_cc_s", "s"),
    ("deref.resolve.calls", "count"),
    ("deref.cache.hit_ratio", "fraction"),
    ("deref.classify.calls", "count"),
    ("deref.classify_s", "s"),
    ("deref.pld_alive.calls", "count"),
    *[(f"metrics.{key}.{part}", unit) for key in PROCESSOR_KEYS
      for part, unit in (("consume_s", "s"), ("finalize_s", "s"), ("peak_mib", "MiB"))],
    *[(f"metrics.{m}.abs_delta", "fraction") for m in SHORT.values()],
    ("metrics.extcon.est_over_exact", "ratio"),
    ("extsort.sort_s", "s"),
    ("extsort.chunks", "count"),
    ("extsort.peak_traced_mib", "MiB"),
    ("extsort.verify_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# Shared by every instance, so never part of one object's footprint.
_SHARED = (type, ModuleType, FunctionType, MethodType, BuiltinFunctionType, Enum)


def deep_size(root) -> int:
    """Bytes reachable from `root` (sys.getsizeof summed once per object)."""
    seen: set[int] = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _SHARED):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, (str, bytes, int, float)):
            continue
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            if hasattr(obj, "__dict__"):
                stack.append(obj.__dict__)
            for cls in type(obj).__mro__:
                slots = cls.__dict__.get("__slots__", ())
                for slot in (slots,) if isinstance(slots, str) else slots:
                    if hasattr(obj, slot) and slot not in ("__dict__", "__weakref__"):
                        stack.append(getattr(obj, slot))
    return total


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.aggs: dict[str, list] = defaultdict(lambda: [0, 0.0, None])
        self.extra: dict[str, float] = defaultdict(float)
        self.authorities: set[str] = set()
        self.filters: list = []
        self.graphs: list = []
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self.sort_summary = None
        self._patches: list[tuple] = []
        self._keys: dict[int, str] = {}

    # -- recording ---------------------------------------------------------

    def _begin(self, name: str) -> dict:
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def run_span(self, name: str, fn, *args, **kwargs):
        span = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(span)

    def _child_agg(self, name: str) -> list:
        """Aggregate whose calls are direct children of the open span."""
        agg = self.aggs[name]
        if agg[2] is None and self._stack:
            agg[2] = self._stack[-1]
        return agg

    def timed(self, name: str, fn, child: bool = False):
        """Count and time every call; `child` attributes the time to the
        span open at the first call, for that span's self time."""
        clock = time.perf_counter
        agg = self.aggs[name]

        def wrapper(*args, **kwargs):
            if child and agg[2] is None and self._stack:
                agg[2] = self._stack[-1]
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                agg[0] += 1
                agg[1] += clock() - t0
        return wrapper

    def counted(self, name: str, fn):
        agg = self.aggs[name]

        def wrapper(*args, **kwargs):
            agg[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        from lodprobe import cli, extsort, graph, metrics, ntriples, sketches
        from lodprobe.deref import CachedResolver, MockResolver
        from lodprobe.rng import SeededRng
        from lodprobe.terms import Term

        timed, counted = self.timed, self.counted
        self._patch(cli, "_stream_into", self._wrap_stream)
        self._patch(cli, "_finalize", self._wrap_finalize)
        self._patch(cli, "_write_report", lambda f: lambda *a, **k: self.run_span("report_write", f, *a, **k))
        self._patch(cli, "sort_by_subject", self._wrap_sort)
        self._patch(ntriples.NTriplesReader, "__iter__", self._wrap_reader)
        self._patch(ntriples, "parse_line", lambda f: timed("ntriples.parse_line", f))
        for module in (metrics, graph):
            self._patch(module, "serialize_term", lambda f: timed("ntriples.serialize_term", f))
        self._patch(Term, "__init__", lambda f: counted("terms.term", f))
        self._patch(metrics, "try_pld", self._wrap_try_pld)
        for module in (metrics, sketches, extsort):
            self._patch(module, "murmur3_x64_128", self._wrap_murmur)
        self._patch(sketches.StableBloomFilter, "check_and_add", lambda f: timed("sketches.sbf", f))
        self._patch(sketches.StableBloomFilter, "__init__", lambda f: self._capture(f, self.filters))
        self._patch(sketches.ReservoirSampler, "add", self._wrap_reservoir_add)
        self._patch(SeededRng, "next_u64", lambda f: counted("rng.draws", f))
        self._patch(graph.ResourceGraph, "__init__", lambda f: self._capture(f, self.graphs))
        self._patch(graph.ResourceGraph, "add_triple", lambda f: timed("graph.add_triple", f))
        self._patch(graph.ResourceGraph, "frozen_neighbors", lambda f: timed("graph.freeze", f))
        self._patch(metrics, "random_walk", self._wrap_walk)
        self._patch(metrics, "exact_global_cc", lambda f: timed("graph.exact_cc", f))
        self._patch(metrics, "classify", lambda f: timed("deref.classify", f))
        self._patch(metrics, "pld_alive", lambda f: counted("deref.pld_alive", f))
        self._patch(CachedResolver, "resolve", lambda f: counted("deref.cached_resolve", f))
        self._patch(MockResolver, "resolve", lambda f: counted("deref.resolve", f))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:  # was inherited
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers with extra bookkeeping -------------------------------------

    def _capture(self, init, into: list):
        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            into.append(obj)
        return wrapper

    def _wrap_stream(self, stream):
        def wrapper(reader, timed_processors, *args, **kwargs):
            for entry in timed_processors:
                key = f"{SHORT.get(entry['name'], entry['name'])}." + (
                    "est" if entry["variant"] == "estimate" else "exact")
                proc = entry["processor"]
                self._keys[id(proc)] = key
                proc.consume = self.timed(f"metrics.{key}.consume", proc.consume, child=True)
                proc.finalize = self.timed(f"metrics.{key}.finalize", proc.finalize, child=True)
            result = self.run_span("stream", stream, reader, timed_processors, *args, **kwargs)
            for entry in timed_processors:
                self.run_span("trace.measure", self._measure, entry["processor"])
            return result
        return wrapper

    def _wrap_finalize(self, finalize):
        def wrapper(entry, *args, **kwargs):
            key = self._keys.get(id(entry["processor"]), "unknown")
            result = self.run_span(f"finalize:{key}", finalize, entry, *args, **kwargs)
            self.run_span("trace.measure", self._measure, entry["processor"])
            return result
        return wrapper

    def _measure(self, proc) -> None:
        key = self._keys.get(id(proc))
        if key is not None:
            self.peak_bytes[key] = max(self.peak_bytes[key], deep_size(proc))

    def _wrap_reader(self, iterate):
        clock = time.perf_counter

        def wrapper(reader):
            agg = self._child_agg("ntriples.read_parse")
            it = iterate(reader)
            while True:
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    agg[1] += clock() - t0
                    return
                agg[0] += 1
                agg[1] += clock() - t0
                yield item
        return wrapper

    def _wrap_try_pld(self, try_pld):
        inner = self.timed("pld.try_pld", try_pld)
        seen = self.authorities

        def wrapper(iri, *args, **kwargs):
            parts = iri.split("/", 3)
            authority = "/".join(parts[:3]) if len(parts) > 2 else iri
            seen.add(authority.split("?", 1)[0].split("#", 1)[0])
            return inner(iri, *args, **kwargs)
        return wrapper

    def _wrap_murmur(self, murmur):
        inner = self.timed("murmur3", murmur)
        extra = self.extra

        def wrapper(data, *args, **kwargs):
            extra["murmur3.bytes"] += len(data)
            return inner(data, *args, **kwargs)
        return wrapper

    def _wrap_reservoir_add(self, add):
        inner = self.timed("sketches.reservoir", add)
        extra = self.extra

        def wrapper(sampler, item):
            outcome = inner(sampler, item)
            if outcome.added or outcome.replaced:
                extra["reservoir.kept"] += 1
            return outcome
        return wrapper

    def _wrap_walk(self, walk):
        inner = self.timed("graph.walk", walk)
        extra = self.extra

        def wrapper(g, r, *args, **kwargs):
            extra["graph.walk_steps"] += r
            freeze_before = self.aggs["graph.freeze"][1]
            result = inner(g, r, *args, **kwargs)
            extra["graph.walk_freeze_s"] += self.aggs["graph.freeze"][1] - freeze_before
            return result
        return wrapper

    def _wrap_sort(self, sort):
        def wrapper(*args, **kwargs):
            summary = self.run_span("sort", sort, *args, **kwargs)
            self.sort_summary = summary
            # tracemalloc slows the sort several times over, so the peak
            # comes from a second, identical sort outside the timed span
            self.run_span("trace.measure", self._sort_peak, sort, args, kwargs)
            return summary
        return wrapper

    def _sort_peak(self, sort, args, kwargs) -> None:
        tracemalloc.start()
        try:
            sort(*args, **kwargs)
            self.extra["extsort.peak_traced_bytes"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # -- results -------------------------------------------------------------

    def span_totals(self) -> dict[str, list]:
        """name -> [count, total seconds, self seconds] over all its spans."""
        covered = defaultdict(float)
        children = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]].append((span["start"], span["end"]))
        for index, intervals in children.items():
            end_so_far = None
            for start, end in sorted(intervals):
                if end_so_far is not None:
                    start = max(start, end_so_far)
                if end > start:
                    covered[index] += end - start
                end_so_far = end if end_so_far is None else max(end_so_far, end)
        for count, total, parent in self.aggs.values():
            if parent is not None and total:
                covered[parent] += total
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for index, span in enumerate(self.spans):
            duration = span["end"] - span["start"]
            row = totals[span["name"]]
            row[0] += 1
            row[1] += duration
            row[2] += max(0.0, duration - covered[index])
        return dict(totals)

    def ledger(self) -> list[str]:
        """Human-readable span tree totals and per-site aggregates."""
        lines = ["  spans (count, total s, self s; trace.measure is the tracer's own):"]
        for name, (count, total, own) in self.span_totals().items():
            lines.append(f"    {name:<32} {count:>10} {total:>10.4f} {own:>10.4f}")
        lines.append("  call sites (calls, total s; counted only: -):")
        for name, (count, total, _) in sorted(self.aggs.items()):
            shown = f"{total:>10.4f}" if total else f"{'-':>10}"
            lines.append(f"    {name:<32} {count:>10} {shown}")
        return lines

    def layer_metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS name the tracer itself can fill; others 0."""
        aggs, extra, spans = self.aggs, self.extra, self.span_totals()

        def calls(name):
            return aggs[name][0] if name in aggs else 0

        def secs(name):
            return aggs[name][1] if name in aggs else 0.0

        def span_s(name):
            return spans.get(name, [0, 0.0, 0.0])[1]

        m: dict[str, float] = {name: 0 for name, _ in LAYER_METRICS}
        m["cli.stream_s"] = span_s("stream")
        m["cli.dispatch_s"] = spans.get("stream", [0, 0.0, 0.0])[2]
        m["cli.finalize_s"] = sum(row[1] for n, row in spans.items() if n.startswith("finalize:"))
        m["cli.report_write_s"] = span_s("report_write")
        m["ntriples.read_parse_s"] = secs("ntriples.read_parse")
        m["ntriples.parse_line.calls"] = calls("ntriples.parse_line")
        m["ntriples.serialize_term.calls"] = calls("ntriples.serialize_term")
        m["ntriples.serialize_term_s"] = secs("ntriples.serialize_term")
        m["terms.term.calls"] = calls("terms.term")
        n_pld = calls("pld.try_pld")
        m["pld.try_pld.calls"] = n_pld
        m["pld.try_pld_s"] = secs("pld.try_pld")
        m["pld.distinct_authorities"] = len(self.authorities)
        m["pld.reuse_ratio"] = 1 - len(self.authorities) / n_pld if n_pld else 0.0
        kib = extra["murmur3.bytes"] / 1024
        m["murmur3.calls"] = calls("murmur3")
        m["murmur3.kib"] = kib
        m["murmur3.hash_s"] = secs("murmur3")
        m["murmur3.us_per_kib"] = secs("murmur3") * 1e6 / kib if kib else 0.0
        m["sketches.sbf.calls"] = calls("sketches.sbf")
        m["sketches.sbf.check_s"] = secs("sketches.sbf")
        if self.filters:
            f = self.filters[-1]
            counts = f.set_bit_counts()
            m["sketches.sbf.load"] = sum(counts) / (len(counts) * f.bits_per_filter)
            m["sketches.sbf.final_fpr"] = f.current_fpr()
            m["sketches.sbf.resets"] = f.resets
        n_res = calls("sketches.reservoir")
        m["sketches.reservoir.calls"] = n_res
        m["sketches.reservoir.add_s"] = secs("sketches.reservoir")
        m["sketches.reservoir.kept_ratio"] = extra["reservoir.kept"] / n_res if n_res else 0.0
        m["rng.draws"] = calls("rng.draws")
        m["graph.add_triple.calls"] = calls("graph.add_triple")
        m["graph.add_triple_s"] = secs("graph.add_triple")
        if self.graphs:
            m["graph.vertices"] = max(g.vertex_count for g in self.graphs)
            m["graph.edges"] = max(g.edge_count for g in self.graphs)
        m["graph.freeze_s"] = secs("graph.freeze")
        m["graph.walk_steps"] = int(extra["graph.walk_steps"])
        m["graph.walk_s"] = max(0.0, secs("graph.walk") - extra["graph.walk_freeze_s"])
        m["graph.exact_cc_s"] = secs("graph.exact_cc")
        m["deref.resolve.calls"] = calls("deref.resolve")
        cached = calls("deref.cached_resolve")
        m["deref.cache.hit_ratio"] = 1 - calls("deref.resolve") / cached if cached else 0.0
        m["deref.classify.calls"] = calls("deref.classify")
        m["deref.classify_s"] = secs("deref.classify")
        m["deref.pld_alive.calls"] = calls("deref.pld_alive")
        for key in PROCESSOR_KEYS:
            m[f"metrics.{key}.consume_s"] = secs(f"metrics.{key}.consume")
            m[f"metrics.{key}.finalize_s"] = secs(f"metrics.{key}.finalize")
            m[f"metrics.{key}.peak_mib"] = self.peak_bytes.get(key, 0) / MIB
        m["extsort.sort_s"] = span_s("sort")
        if self.sort_summary is not None:
            m["extsort.chunks"] = self.sort_summary.chunks
        m["extsort.peak_traced_mib"] = extra["extsort.peak_traced_bytes"] / MIB
        return m
