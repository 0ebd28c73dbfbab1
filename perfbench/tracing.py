"""Spans recorded around the calls into each layer of ``repro``.

The program itself is not edited: :func:`install` replaces a fixed list
of public entry points with wrappers that open a span for the duration
of each call.  Spans stay in memory (:class:`Tracer`) and are written
out once, when the traced process is done.  :func:`self_seconds` turns
them into per-layer self time: a span's duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List

#: span names of whole traced units of work; their self time is the
#: remainder that no layer span claims (reported as ``analysis.other``)
ROOT_SPANS = ("cli.main", "server.evaluate")


class Tracer:
    """In-memory span recorder; one span stack per thread."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: List[dict] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. after a fork)."""
        self.spans = []
        self.counts = Counter()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = {"id": next(self._ids), "name": name,
                  "parent": stack[-1]["id"] if stack else None,
                  "start": self.clock(), "end": None}
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = self.clock()
            stack.pop()
            self.spans.append(record)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_seconds(spans: Iterable[dict]) -> Dict[str, float]:
    """Self time per span name, in seconds.

    A span's self time is its duration minus the union of the intervals
    its direct children cover, clipped to the span itself.
    """
    spans = list(spans)
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        start, end = span["start"], span["end"]
        covered, cursor = 0, start
        for c_start, c_end in sorted(children.get(span["id"], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        totals[span["name"]] += (end - start - covered) / 1e9
    return dict(totals)


def top_level_seconds(spans: Iterable[dict]) -> float:
    """Wall time covered by spans that have no parent."""
    return sum(s["end"] - s["start"] for s in spans
               if s["parent"] is None) / 1e9


# --- hooks into repro --------------------------------------------------------

def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module global that names ``original``, so
    ``from x import f`` copies are traced as well as ``x.f``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _traced(tracer: Tracer, fn, name: str, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        tracer.counts[name + ".calls"] += 1
        if after is not None:
            after(result, args, kwargs)
        return result
    return wrapper


def _kernel_family(consumer) -> str:
    from repro.core.registry import REGISTRY
    from repro.core.steering import PolicyEvaluator
    if isinstance(consumer, PolicyEvaluator):
        family = REGISTRY.family_of(consumer.policy)
        return family.name if family is not None else "unregistered"
    return "stats"  # the statistics collectors' fused kernels


def _traced_kernel_lookup(tracer: Tracer, lookup, last_resort: bool):
    """Wrap a ``kernel_for(consumer, packed)`` dispatcher so the kernel
    it hands back runs inside a ``batch.kernel.<family>`` span."""
    @functools.wraps(lookup)
    def wrapper(consumer, packed):
        kernel = lookup(consumer, packed)
        if kernel is None:
            if last_resort:  # batch_drive now replays it object-wise
                tracer.counts["batch.fallthrough.calls"] += 1
            return None
        name = "batch.kernel." + _kernel_family(consumer)

        def run():
            with tracer.span(name):
                return kernel()
        return run
    return wrapper


def install(tracer: Tracer) -> None:
    """Trace the layer entry points of an already importable ``repro``."""
    import repro.analysis.energy as energy
    import repro.analysis.parallel  # noqa: F401 - rebinds its imports too
    import repro.analysis.report as report
    import repro.batch.columns as columns
    import repro.batch.engine as engine
    import repro.batch.kernels as kernels
    import repro.batch.kernels_np as kernels_np
    import repro.batch.sidecar as sidecar
    import repro.cli  # noqa: F401
    import repro.compiler.swap_pass as swap_pass
    import repro.core.bdd  # noqa: F401
    import repro.core.lut as lut
    import repro.core.steering as steering
    import repro.server.executor  # noqa: F401
    import repro.streams as streams
    from repro.cpu.simulator import Simulator
    from repro.workloads.base import Workload

    def count_cycles(result, _args, _kwargs):
        tracer.counts["cpu.cycles"] += result.cycles

    record_signature = inspect.signature(streams.record_cached)

    def count_bytes(_result, args, kwargs):
        bound = record_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        path = os.path.join(os.fspath(a["cache_dir"]), streams.trace_cache_key(
            a["program"], a["config"], a["fu_classes"]) + ".trace.gz")
        tracer.counts["streams.bytes_written"] += os.path.getsize(path)

    Simulator.run = _traced(tracer, Simulator.run, "cpu.simulate",
                            after=count_cycles)
    Workload.build = _traced(tracer, Workload.build, "workloads.build")
    for fn, name, after in (
            (streams.record_cached, "streams.record", count_bytes),
            (columns.pack_stream, "batch.pack", None),
            (sidecar.write_sidecar, "batch.sidecar_write", None),
            (engine.packed_cached, "batch.load", None),
            (engine.drive_stream, "batch.drive", None),
            (steering.make_policy, "core.make_policy", None),
            (lut.build_lut, "core.build_lut", None),
            (swap_pass.swap_optimize, "compiler.swap", None),
            (energy.statistics_from_sources, "analysis.stats", None),
            (report.render_figure4, "analysis.render", None)):
        _replace_everywhere(fn, _traced(tracer, fn, name, after=after))
    kernels._kernel_for = _traced_kernel_lookup(
        tracer, kernels._kernel_for, last_resort=True)
    kernels_np.kernel_for = _traced_kernel_lookup(
        tracer, kernels_np.kernel_for, last_resort=False)
