"""Strategy tests for the pass-scheduler layer.

The ``fixed`` scheduler must be byte-identical to the pre-strategy loop
(frozen here as a reference reimplementation); the ``adaptive`` scheduler is
property-tested: it only ever emits registered passes, always terminates
within its budget, and never changes the computed function.
"""

import pytest

from repro.aig import aig_from_function
from repro.aig.opt import known_passes
from repro.logic import BoolFunction, TruthTable
from repro.sboxes import des_sboxes, optimal_sboxes
from repro.synth import (
    AdaptiveScheduler,
    FixedScheduler,
    SynthesisEffort,
    optimize_aig,
    resolve_scheduler,
    synthesize,
)
from repro.synth.script import _PassCreditStore, _aig_structure_key


def _legacy_optimize_aig(aig, effort="standard", max_rounds=2, trace=None):
    """The pre-strategy ``optimize_aig`` loop, frozen as a reference."""
    from repro.aig.opt import apply_pass

    passes = SynthesisEffort.passes(effort)
    best = aig.compact()
    if trace is not None:
        trace.append(("strash", best.num_ands))
    current = best
    current_key = _aig_structure_key(current)
    last_run = {}
    for _ in range(max_rounds):
        round_start = best.num_ands
        for pass_name in passes:
            memo = last_run.get(pass_name)
            if memo is not None and memo[0] == current_key:
                current, current_key = memo[1], memo[2]
            else:
                current = apply_pass(current, pass_name)
                produced_key = _aig_structure_key(current)
                last_run[pass_name] = (current_key, current, produced_key)
                current_key = produced_key
            if trace is not None:
                trace.append((pass_name, current.num_ands))
            if current.num_ands < best.num_ands:
                best = current
        if best.num_ands >= round_start:
            break
    return best


def _workloads():
    functions = [optimal_sboxes(1)[0], des_sboxes(1)[0]]
    # A lopsided multi-output function exercises the zero-gain passes.
    a = TruthTable.variable(0, 4)
    b = TruthTable.variable(1, 4)
    c = TruthTable.variable(2, 4)
    d = TruthTable.variable(3, 4)
    functions.append(
        BoolFunction([(a & b) | (c & d), a ^ b ^ c, ~(a | (b & c & d))], name="mix")
    )
    return functions


class TestFixedSchedulerByteIdentity:
    @pytest.mark.parametrize("effort", ["fast", "standard", "high"])
    def test_trace_and_result_match_legacy_loop(self, effort):
        for function in _workloads():
            aig = aig_from_function(function)
            legacy_trace, new_trace = [], []
            legacy = _legacy_optimize_aig(aig, effort=effort, trace=legacy_trace)
            current = optimize_aig(aig, effort=effort, trace=new_trace)
            assert new_trace == legacy_trace
            assert _aig_structure_key(current) == _aig_structure_key(legacy)

    def test_default_resolution_is_fixed(self):
        scheduler = resolve_scheduler(None, effort="fast", max_rounds=3)
        assert isinstance(scheduler, FixedScheduler)
        assert scheduler.effort == "fast"
        assert scheduler.max_rounds == 3

    def test_env_var_resolution(self, monkeypatch):
        # Only the argument (--scheduler) picks a scheduler; a stale
        # REPRO_SCHEDULER in the environment is not read.
        monkeypatch.setenv("REPRO_SCHEDULER", "adaptive")
        assert isinstance(resolve_scheduler(None), FixedScheduler)

    def test_unknown_scheduler_name_rejected(self):
        with pytest.raises(ValueError):
            resolve_scheduler("heroic")

    def test_scheduler_instances_pass_through(self):
        scheduler = AdaptiveScheduler(credit=_PassCreditStore())
        assert resolve_scheduler(scheduler) is scheduler


class TestAdaptiveScheduler:
    def _fresh(self, **kwargs):
        # An isolated in-memory credit store: no cross-test contamination.
        return AdaptiveScheduler(credit=_PassCreditStore(), **kwargs)

    def test_only_known_passes_emitted(self):
        registry = set(known_passes())
        for function in _workloads():
            trace = []
            self._fresh().optimize(aig_from_function(function), trace=trace)
            assert trace[0][0] == "strash"
            assert all(name in registry for name, _ in trace[1:])

    def test_terminates_within_budget(self):
        budget = 2 * len(SynthesisEffort.passes("high"))
        for function in _workloads():
            trace = []
            self._fresh().optimize(aig_from_function(function), trace=trace)
            assert len(trace) - 1 <= budget

    def test_function_preserved_and_never_worse_than_strash(self):
        for function in _workloads():
            aig = aig_from_function(function)
            optimized = self._fresh().optimize(aig)
            assert optimized.num_ands <= aig.compact().num_ands
            assert (
                optimized.to_bool_function().lookup_table()
                == function.lookup_table()
            )

    def test_tiny_budget_respected(self):
        trace = []
        self._fresh(max_passes=3).optimize(
            aig_from_function(_workloads()[0]), trace=trace
        )
        assert len(trace) - 1 <= 3

    def test_credit_accumulates_and_drives_selection(self):
        credit = _PassCreditStore()
        scheduler = AdaptiveScheduler(credit=credit)
        scheduler.optimize(aig_from_function(_workloads()[0]))
        assert credit.credit, "an optimisation run must leave gain history"
        for entry in credit.credit.values():
            assert entry["calls"] >= 1
            assert entry["gain"] >= 0.0

    def test_credit_persists_via_cache_dir(self, tmp_path, monkeypatch):
        from repro.ga.pinopt import CACHE_DIR_ENV_VAR

        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        # Distinct shared-store key per tmp_path; seed it through a run.
        _PassCreditStore._shared.pop(str(tmp_path), None)
        scheduler = AdaptiveScheduler()
        scheduler.optimize(aig_from_function(_workloads()[0]))
        path = tmp_path / _PassCreditStore.FILENAME
        assert path.exists()
        reloaded = _PassCreditStore(str(path))
        assert reloaded.credit == scheduler._credit.credit

    def test_corrupt_credit_file_tolerated(self, tmp_path):
        path = tmp_path / _PassCreditStore.FILENAME
        path.write_text("{not json", encoding="utf-8")
        store = _PassCreditStore(str(path))
        assert store.credit == {}


class TestSynthesizeWithScheduler:
    def test_adaptive_keeps_mapped_netlist_correct(self, library):
        function = des_sboxes(1)[0]
        result = synthesize(
            function,
            library=library,
            scheduler=AdaptiveScheduler(credit=_PassCreditStore()),
        )
        from repro.netlist import extract_function

        assert (
            extract_function(result.netlist).lookup_table()
            == function.lookup_table()
        )

    def test_pass_gains_mirror_trace(self, present, library):
        result = synthesize(present, library=library, effort="standard")
        gains = result.pass_gains
        assert len(gains) == len(result.pass_trace) - 1
        counts = [count for _, count in result.pass_trace]
        assert [gain for _, gain in gains] == [
            counts[i] - counts[i + 1] for i in range(len(counts) - 1)
        ]

    def test_result_telemetry_present(self, present, library):
        # The per-run numbers live on the result itself: one trace entry per
        # scheduled pass after the leading strash, and the result keeps the
        # smallest AIG the trace saw.
        result = synthesize(present, library=library)
        assert not hasattr(result, "telemetry")
        names = [name for name, _ in result.pass_trace]
        assert names[0] == "strash" and "strash" not in names[1:]
        assert len(result.pass_gains) == len(result.pass_trace) - 1 > 0
        assert result.and_count == min(count for _, count in result.pass_trace)
        assert result.and_count == result.aig.num_ands
