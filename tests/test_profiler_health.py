import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesim.errors import ConfigurationError, RegistrationError
from edgesim.profiler_health import (
    CRITICAL,
    PASS,
    WARNING,
    HealthState,
    ProfilerState,
    classify,
    evaluate_health,
    merge_since,
)


def reference_classify(latency, qos):
    """Brute restatement of the fractional-budget rule."""
    if latency < 0.75 * qos:
        return PASS
    if latency > 0.90 * qos:
        return CRITICAL
    return WARNING


class TestClassify:
    def test_examples_at_budget_150(self):
        assert classify(100.0, 150.0) == PASS
        assert classify(120.0, 150.0) == WARNING
        assert classify(140.0, 150.0) == CRITICAL

    def test_examples_at_budget_100(self):
        assert classify(10.0, 100.0) == PASS
        assert classify(80.0, 100.0) == WARNING
        assert classify(95.0, 100.0) == CRITICAL

    def test_boundaries_map_to_warning(self):
        assert classify(112.5, 150.0) == WARNING
        assert classify(135.0, 150.0) == WARNING
        assert classify(75.0, 100.0) == WARNING
        assert classify(90.0, 100.0) == WARNING

    def test_bad_qos(self):
        for budget in (0.0, -1.0):
            with pytest.raises(ConfigurationError, match="budget must be > 0"):
                classify(10.0, budget)

    @given(s1=st.floats(0, 500), s2=st.floats(0, 500))
    @settings(max_examples=200)
    def test_monotone_non_improving(self, s1, s2):
        order = {PASS: 0, WARNING: 1, CRITICAL: 2}
        lo, hi = min(s1, s2), max(s1, s2)
        assert order[classify(lo, 100.0)] <= order[classify(hi, 100.0)]

    @given(latency=st.floats(0, 1e6), qos=st.floats(1e-3, 1e6), k=st.floats(1e-3, 1e3))
    @settings(max_examples=300)
    def test_scale_invariance(self, latency, qos, k):
        assert classify(latency, qos) == classify(k * latency, k * qos)

    @given(latency=st.floats(0, 1e6), qos=st.floats(1e-3, 1e6))
    @settings(max_examples=300)
    def test_partition_is_total(self, latency, qos):
        assert classify(latency, qos) in (PASS, WARNING, CRITICAL)


class TestProfilerState:
    def test_singleton_mean(self):
        profiler = ProfilerState()
        profiler.register_task("t1", 150.0)
        profiler.record_inference("t1", 100.0, 0.0)
        assert profiler.avg_inf_lat() == 100.0

    def test_mean_over_latest_samples(self):
        profiler = ProfilerState()
        for tid, latency in [("t1", 10.0), ("t2", 20.0), ("t3", 30.0)]:
            profiler.register_task(tid, 150.0)
            profiler.record_inference(tid, latency, 0.0)
        assert profiler.avg_inf_lat() == pytest.approx(20.0)

    def test_ring_eviction(self):
        profiler = ProfilerState(window=3)
        profiler.register_task("t1", 150.0)
        for i, latency in enumerate([1.0, 2.0, 3.0, 4.0]):
            profiler.record_inference("t1", latency, float(i))
        assert profiler.samples("t1") == [2.0, 3.0, 4.0]
        assert profiler.latest("t1") == 4.0

    def test_unknown_task_rejected(self):
        profiler = ProfilerState()
        with pytest.raises(RegistrationError):
            profiler.record_inference("ghost", 5.0, 0.0)
        with pytest.raises(RegistrationError):
            profiler.latest("ghost")

    def test_identical_latencies_average_to_same(self):
        profiler = ProfilerState()
        for i in range(7):
            profiler.register_task(f"t{i}", 100.0)
            profiler.record_inference(f"t{i}", 42.0, 0.0)
        assert profiler.avg_inf_lat() == pytest.approx(42.0)

    def test_sampleless_tasks_do_not_skew_average(self):
        profiler = ProfilerState()
        profiler.register_task("t1", 150.0)
        profiler.register_task("t2", 150.0)
        profiler.record_inference("t1", 80.0, 0.0)
        assert profiler.avg_inf_lat() == 80.0

    def test_qos_reference_is_strictest(self):
        profiler = ProfilerState()
        profiler.register_task("t1", 150.0)
        profiler.register_task("t2", 90.0)
        assert profiler.qos_reference() == 90.0


class TestEvaluateHealth:
    def test_idle_node_passes(self):
        health = evaluate_health(ProfilerState())
        assert health.system_state == PASS
        assert health.app_states == {}

    def test_system_warning_despite_app_passes(self):
        # every app under its own budget, yet the mean can sit in warning
        profiler = ProfilerState()
        profiler.register_task("t1", 150.0)
        profiler.register_task("t2", 200.0)
        profiler.record_inference("t1", 110.0, 0.0)
        profiler.record_inference("t2", 120.0, 0.0)
        health = evaluate_health(profiler)
        assert health.app_states == {"t1": PASS, "t2": PASS}
        assert health.system_state == WARNING  # mean 115 vs min-qos 150

    def test_single_critical_app_leaves_system_alone(self):
        profiler = ProfilerState()
        profiler.register_task("t1", 150.0)
        profiler.register_task("t2", 1000.0)
        profiler.record_inference("t1", 140.0, 0.0)
        profiler.record_inference("t2", 60.0, 0.0)
        health = evaluate_health(profiler)
        assert health.app_states["t1"] == CRITICAL
        assert health.app_states["t2"] == PASS
        assert health.system_state == PASS  # mean 100 < 0.75 * 150

    def test_pure_function_of_state(self):
        profiler = ProfilerState()
        profiler.register_task("t1", 150.0)
        profiler.record_inference("t1", 120.0, 0.0)
        first = evaluate_health(profiler)
        second = evaluate_health(profiler)
        assert first.app_states == second.app_states
        assert first.system_state == second.system_state

    @given(
        latencies=st.lists(st.floats(0.0, 500.0), min_size=1, max_size=8),
        qos=st.floats(50.0, 400.0),
    )
    @settings(max_examples=200)
    def test_system_state_matches_reference(self, latencies, qos):
        profiler = ProfilerState()
        for i, latency in enumerate(latencies):
            profiler.register_task(f"t{i}", qos)
            profiler.record_inference(f"t{i}", latency, 0.0)
        expected = reference_classify(sum(latencies) / len(latencies), qos)
        assert evaluate_health(profiler).system_state == expected


def initial_health():
    """Every node's health before its first epoch, as the engine builds it."""
    return HealthState(app_states={}, system_state=PASS)


class TestMergeSince:
    def test_new_task_gets_now(self):
        # the system state stays pass, so it keeps the initial time
        profiler = ProfilerState()
        profiler.register_task("t1", 100.0)
        profiler.record_inference("t1", 10.0, 0.0)
        health = merge_since(initial_health(), evaluate_health(profiler), 5.0)
        assert health.system_since == 0.0
        assert health.app_since["t1"] == 5.0

    def test_unchanged_state_keeps_timestamp(self):
        profiler = ProfilerState()
        profiler.register_task("t1", 100.0)
        profiler.record_inference("t1", 10.0, 0.0)
        first = merge_since(initial_health(), evaluate_health(profiler), 1.0)
        second = merge_since(first, evaluate_health(profiler), 2.0)
        assert second.system_since == 0.0
        assert second.app_since["t1"] == 1.0

    def test_transition_updates_timestamp(self):
        profiler = ProfilerState()
        profiler.register_task("t1", 100.0)
        profiler.record_inference("t1", 10.0, 0.0)
        first = merge_since(initial_health(), evaluate_health(profiler), 1.0)
        profiler.record_inference("t1", 95.0, 1.5)
        second = merge_since(first, evaluate_health(profiler), 2.0)
        assert second.app_states["t1"] == CRITICAL
        assert second.app_since["t1"] == 2.0
        assert second.system_since == 2.0
