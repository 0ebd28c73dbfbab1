"""Bit-identity between the object and batch evaluation engines.

The object path (:func:`repro.streams.drive` over reconstructed
``IssueGroup`` objects) is the reference oracle; the columnar kernels
must accumulate *exactly* the same ``EvaluationTotals`` and telemetry
counters for every steering scheme, both hardware-swap regimes, and
both speculative settings, on random programs.  Where a test is
parametrised over :data:`DRIVE_ROUTES` it checks both of
:func:`~repro.batch.batch_drive`'s routes: the columnar kernels, and the
object-decoding fall-through pass.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.batch.kernels as kernels_module
from repro.batch import batch_drive, pack_stream
from repro.batch.kernels_np import _match, kernel_for
from repro.core.assignment import solve
from repro.core.info_bits import scheme_for
from repro.core.statistics import paper_statistics
from repro.core.lut import build_lut
from repro.core.registry import REGISTRY
from repro.core.steering import LUTPolicy, PolicyEvaluator, make_policy
from repro.core.swapping import HardwareSwapper, choose_swap_case
from repro.analysis.bit_patterns import BitPatternCollector
from repro.analysis.module_usage import ModuleUsageCollector
from repro.isa.assembler import assemble
from repro.isa.instructions import FUClass
from repro.streams import LiveSource, capture, drive
from repro.telemetry import TelemetryConfig, TelemetrySession
from repro.workloads import workload
from tests.cpu.test_simulator import loopy_programs

SCHEME_KINDS = ("original", "round-robin", "full-ham", "1bit-ham",
                "lut-4", "lut-2", "bdd-4")
NUM_MODULES = 4

# batch_drive's two routes: "np" runs each consumer's columnar kernel
# and first checks that one resolves, so a match cannot come from a
# silent fall-through; "python" declines every kernel, so all consumers
# share batch_drive's object-decoding pass and finalize hooks
DRIVE_ROUTES = ("python", "np")


def _evaluator_set(telemetry=None, fu_class=FUClass.IALU,
                   num_modules=NUM_MODULES):
    stats = paper_statistics(fu_class)
    scheme = scheme_for(fu_class)
    swap_case = choose_swap_case(stats)
    evaluators = {}
    for kind in SCHEME_KINDS:
        policy = make_policy(kind, fu_class, num_modules, stats=stats)
        evaluators[kind] = PolicyEvaluator(fu_class, num_modules, policy,
                                           telemetry=telemetry)
    # hardware swapping, in both of the paper's forms: integrated into
    # the cost matrix for the Hamming matchers, case-triggered pre-swap
    # for everything else
    for kind in SCHEME_KINDS:
        if kind in ("full-ham", "1bit-ham"):
            policy = make_policy(kind, fu_class, num_modules, stats=stats,
                                 allow_swap=True)
            pre_swapper = None
        else:
            policy = make_policy(kind, fu_class, num_modules, stats=stats)
            pre_swapper = HardwareSwapper(scheme, swap_case)
        evaluators[f"{kind}/hw"] = PolicyEvaluator(
            fu_class, num_modules, policy, pre_swapper=pre_swapper,
            telemetry=telemetry)
    # deferred wrong-path accounting (include_speculative=False)
    for kind in ("original", "lut-4", "full-ham"):
        policy = make_policy(kind, fu_class, num_modules, stats=stats)
        evaluators[f"{kind}/no-spec"] = PolicyEvaluator(
            fu_class, num_modules, policy, include_speculative=False)
    return evaluators


def _assert_identical(reference, batch):
    assert set(reference) == set(batch)
    for kind in reference:
        assert batch[kind].totals() == reference[kind].totals(), kind


def _route_drive(packed, consumers, route, monkeypatch):
    consumers = list(consumers)
    if route == "python":
        monkeypatch.setattr(kernels_module, "_kernel_for",
                            lambda consumer, packed: None)
    else:
        for consumer in consumers:
            assert kernel_for(consumer, packed) is not None, consumer
    batch_drive(packed, consumers)


def _run_both(memory, fu_class=FUClass.IALU, num_modules=NUM_MODULES):
    reference = _evaluator_set(fu_class=fu_class, num_modules=num_modules)
    drive(memory, list(reference.values()))
    batch = _evaluator_set(fu_class=fu_class, num_modules=num_modules)
    batch_drive(pack_stream(memory.groups()), list(batch.values()))
    _assert_identical(reference, batch)


class TestEngineParity:
    @settings(max_examples=8, deadline=None)
    @given(loopy_programs())
    def test_random_programs_all_schemes(self, source):
        _run_both(capture(LiveSource(assemble(source))))

    @settings(max_examples=4, deadline=None)
    @given(loopy_programs())
    def test_random_programs_two_modules(self, source):
        # a narrower machine exercises the clamp in every kernel
        _run_both(capture(LiveSource(assemble(source))), num_modules=2)

    def test_integer_workload(self):
        _run_both(capture(LiveSource(workload("compress").build(1))))

    def test_float_workload(self):
        # the FP scheme and 52-bit mantissa mask go down different
        # kernel constants than the integer path
        memory = capture(LiveSource(workload("swim").build(1)))
        _run_both(memory, fu_class=FUClass.FPAU)

    @pytest.mark.parametrize("route", DRIVE_ROUTES)
    def test_round_robin_state_carries_across_streams(self, route,
                                                      monkeypatch):
        # the rotation pointer must advance identically when one policy
        # instance sees two streams back to back
        first = capture(LiveSource(workload("compress").build(1)))
        second = capture(LiveSource(workload("li").build(1)))
        stats = paper_statistics(FUClass.IALU)

        def one_path(runner):
            policy = make_policy("round-robin", FUClass.IALU, NUM_MODULES,
                                 stats=stats)
            ev = PolicyEvaluator(FUClass.IALU, NUM_MODULES, policy)
            runner(first, ev)
            runner(second, ev)
            return ev.totals(), policy._next

        ref = one_path(lambda mem, ev: drive(mem, [ev]))
        batch = one_path(
            lambda mem, ev: _route_drive(pack_stream(mem.groups()), [ev],
                                         route, monkeypatch))
        assert batch == ref


class TestTelemetryParity:
    @pytest.mark.parametrize("route", DRIVE_ROUTES)
    def test_counters_match_object_session(self, route, monkeypatch):
        memory = capture(LiveSource(workload("compress").build(1)))

        ref_session = TelemetrySession(TelemetryConfig(metrics=True))
        reference = _evaluator_set(telemetry=ref_session)
        drive(memory, list(reference.values()))

        batch_session = TelemetrySession(TelemetryConfig(metrics=True))
        batch = _evaluator_set(telemetry=batch_session)
        _route_drive(pack_stream(memory.groups()), batch.values(), route,
                     monkeypatch)

        _assert_identical(reference, batch)
        ref_counters = ref_session.collect_counters()
        batch_counters = batch_session.collect_counters()
        assert set(ref_counters) == set(batch_counters)
        for name, value in ref_counters.items():
            assert batch_counters[name] == value, name


class TestCollectorParity:
    @pytest.mark.parametrize("route", DRIVE_ROUTES)
    def test_statistics_collectors_match(self, route, monkeypatch):
        memory = capture(LiveSource(workload("compress").build(1)))
        packed = pack_stream(memory.groups())
        for include_spec in (True, False):
            ref_patterns = BitPatternCollector(
                FUClass.IALU, include_speculative=include_spec)
            ref_usage = ModuleUsageCollector()
            drive(memory, [ref_patterns, ref_usage])

            batch_patterns = BitPatternCollector(
                FUClass.IALU, include_speculative=include_spec)
            batch_usage = ModuleUsageCollector()
            _route_drive(packed, [batch_patterns, batch_usage], route,
                         monkeypatch)

            assert batch_patterns.total_ops == ref_patterns.total_ops
            for key, row in ref_patterns.rows.items():
                mine = batch_patterns.rows[key]
                assert (mine.count, mine.ones_op1, mine.ones_op2) == \
                    (row.count, row.ones_op1, row.ones_op2), key
            assert batch_usage.counts == ref_usage.counts

    @pytest.mark.parametrize("route", DRIVE_ROUTES)
    def test_filtered_usage_collector_matches(self, route, monkeypatch):
        memory = capture(LiveSource(workload("compress").build(1)))
        ref = ModuleUsageCollector([FUClass.IALU])
        drive(memory, [ref])
        batch = ModuleUsageCollector([FUClass.IALU])
        _route_drive(pack_stream(memory.groups()), [batch], route,
                     monkeypatch)
        assert batch.counts == ref.counts


class TestBackendDispatch:
    def test_resolve_engine(self):
        from repro.batch import resolve_engine
        assert resolve_engine("auto") == "batch-np"
        assert resolve_engine(None) == "batch-np"
        assert resolve_engine("object") == "object"
        for retired in ("batch", "warp"):
            with pytest.raises(ValueError, match="batch-np"):
                resolve_engine(retired)

    def test_run_figure4_engines_identical(self, tmp_path):
        from repro.analysis.energy import run_figure4
        from repro.workloads import workload as load

        def cells(result):
            return {key: (cell.switched_bits, cell.operations,
                          cell.hardware_swaps)
                    for key, cell in result.cells.items()}

        results = {}
        for engine in ("object", "batch-np"):
            results[engine] = run_figure4(
                FUClass.IALU, workloads=[load("compress")],
                schemes=("original", "lut-4"), swap_modes=("none", "hw"),
                trace_cache_dir=tmp_path, engine=engine)
        reference, batch = results["object"], results["batch-np"]
        assert cells(batch) == cells(reference)
        assert repr(batch.statistics) == repr(reference.statistics)


class TestBDDFallThrough:
    """The bdd family runs on the vectorised LUT kernel (it shares
    ``LUTPolicy._assign_cases``); both batch_drive routes must match the
    object path for it."""

    @pytest.mark.parametrize("route", DRIVE_ROUTES)
    def test_engines_identical_for_bdd(self, route, monkeypatch):
        memory = capture(LiveSource(workload("compress").build(1)))
        stats = paper_statistics(FUClass.IALU)

        def build():
            policy = make_policy("bdd-4", FUClass.IALU, NUM_MODULES,
                                 stats=stats)
            return PolicyEvaluator(FUClass.IALU, NUM_MODULES, policy)

        reference = build()
        drive(memory, [reference])
        batch = build()
        _route_drive(pack_stream(memory.groups()), [batch], route,
                     monkeypatch)
        assert batch.totals() == reference.totals()


class TestFallThrough:
    """Every built-in family has exactly one kernel; a policy no kernel
    covers — an unregistered subclass, or a registered family whose
    factory declines — reaches the object path and matches it."""

    def test_every_builtin_family_resolves_one_kernel(self):
        memory = capture(LiveSource(workload("compress").build(1)))
        packed = pack_stream(memory.groups())
        stats = paper_statistics(FUClass.IALU)

        def build(kind):
            policy = make_policy(kind, FUClass.IALU, NUM_MODULES,
                                 stats=stats)
            return PolicyEvaluator(FUClass.IALU, NUM_MODULES, policy)

        for family in REGISTRY.families():
            kind = family.grid_kinds[0] if family.grid_kinds else family.name
            batch = build(kind)
            assert REGISTRY.family_of(batch.policy) is family, kind
            assert REGISTRY.has_kernel(family.name), kind
            assert kernel_for(batch, packed) is not None, kind
            batch_drive(packed, [batch])
            reference = build(kind)
            drive(memory, [reference])
            assert batch.totals() == reference.totals(), kind

    @staticmethod
    def _assert_object_path_matches(build):
        memory = capture(LiveSource(workload("compress").build(1)))
        packed = pack_stream(memory.groups())
        reference = build()
        drive(memory, [reference])
        batch = build()
        assert kernel_for(batch, packed) is None
        batch_drive(packed, [batch])
        assert batch.totals() == reference.totals()

    def test_unregistered_subclass_reaches_object_path(self):
        class LocalLUT(LUTPolicy):
            pass

        lut = build_lut(paper_statistics(FUClass.IALU), NUM_MODULES, 4)

        def build():
            policy = LocalLUT(lut=lut, scheme=scheme_for(FUClass.IALU))
            return PolicyEvaluator(FUClass.IALU, NUM_MODULES, policy)

        self._assert_object_path_matches(build)

    def test_scheme_mismatch_falls_through_to_object_path(self):
        # an FP-scheme bdd policy over an integer stream: the kernel
        # factory's guard declines and the object path must still agree
        stats = paper_statistics(FUClass.IALU)

        def build():
            policy = make_policy("bdd-4", FUClass.IALU, NUM_MODULES,
                                 stats=stats, scheme=scheme_for(FUClass.FPAU))
            return PolicyEvaluator(FUClass.IALU, NUM_MODULES, policy)

        self._assert_object_path_matches(build)


@st.composite
def cost_matrices(draw):
    num_modules = draw(st.integers(min_value=1, max_value=8))
    num_ops = draw(st.integers(min_value=1, max_value=num_modules))
    row = st.lists(st.integers(min_value=0, max_value=3),
                   min_size=num_modules, max_size=num_modules)
    return draw(st.lists(row, min_size=num_ops, max_size=num_ops))


class TestMatcher:
    @settings(max_examples=200, deadline=None)
    @given(cost_matrices())
    def test_match_picks_what_solve_picks(self, costs):
        # the full-Hamming kernel's matcher and the object path's solve
        # must choose the same modules, ties included, on both sides of
        # the brute-force limit (small costs make ties common)
        num_modules = len(costs[0])
        assert _match(costs, len(costs), num_modules, {}) == \
            solve(costs)[0]


class TestFallbackPath:
    def test_unknown_consumer_sees_object_stream(self):
        memory = capture(LiveSource(workload("compress").build(1)))
        seen = []
        batch_drive(pack_stream(memory.groups()), [seen.append])
        groups = list(memory.groups())
        assert len(seen) == len(groups)
        for mine, theirs in zip(seen, groups):
            assert mine.cycle == theirs.cycle
            assert mine.fu_class is theirs.fu_class
