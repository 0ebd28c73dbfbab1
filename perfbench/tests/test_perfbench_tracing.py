"""Self time on nested spans, and the remainder that closes the sum."""

import itertools
import threading

import pytest

from tracing import Tracer, self_seconds, top_level_seconds


def span(id_, name, start, end, parent=None):
    return {"id": id_, "name": name, "start": int(start * 1e9),
            "end": int(end * 1e9), "parent": parent}


def test_self_time_subtracts_direct_children_only():
    spans = [span(1, "cli.main", 0, 10),
             span(2, "analysis.stats", 1, 5, parent=1),
             span(3, "batch.kernel.lut", 2, 4, parent=2),
             span(4, "core.make_policy", 6, 7, parent=1)]
    own = self_seconds(spans)
    assert own["cli.main"] == pytest.approx(10 - 4 - 1)
    assert own["analysis.stats"] == pytest.approx(4 - 2)
    assert own["batch.kernel.lut"] == pytest.approx(2)
    assert own["core.make_policy"] == pytest.approx(1)


def test_overlapping_or_overhanging_children_count_once():
    spans = [span(1, "root", 0, 10),
             span(2, "a", 1, 4, parent=1),
             span(3, "b", 3, 6, parent=1),
             span(4, "c", 9, 12, parent=1)]
    assert self_seconds(spans)["root"] == pytest.approx(10 - 5 - 1)


def test_same_name_accumulates():
    spans = [span(1, "root", 0, 4), span(2, "x", 0, 1, parent=1),
             span(3, "x", 2, 3, parent=1)]
    assert self_seconds(spans)["x"] == pytest.approx(2)


def test_self_times_sum_to_traced_wall():
    """Every layer's self time plus the root remainder (reported as
    ``analysis.other_s``) adds up to the traced wall time."""
    ticks = itertools.count(0, 7)
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("cli.main"):
        with tracer.span("analysis.stats"):
            with tracer.span("batch.kernel.stats"):
                pass
        for _ in range(3):
            with tracer.span("core.make_policy"):
                with tracer.span("core.build_lut"):
                    pass
        with tracer.span("analysis.render"):
            pass
    own = self_seconds(tracer.spans)
    other = own.pop("cli.main")
    assert other > 0
    assert sum(own.values()) + other == pytest.approx(
        top_level_seconds(tracer.spans))
    root = next(s for s in tracer.spans if s["parent"] is None)
    assert top_level_seconds(tracer.spans) == pytest.approx(
        (root["end"] - root["start"]) / 1e9)


def test_threads_keep_separate_stacks():
    tracer = Tracer()

    def work():
        with tracer.span("workloads.build"):
            pass

    with tracer.span("cli.main"):
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    built = next(s for s in tracer.spans if s["name"] == "workloads.build")
    assert built["parent"] is None  # not a child of the other thread's span


def test_reset_forgets_spans_and_counts():
    tracer = Tracer()
    with tracer.span("x"):
        tracer.counts["x.calls"] += 1
    tracer.reset()
    assert tracer.spans == [] and not tracer.counts
