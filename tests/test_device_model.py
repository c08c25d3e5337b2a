import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesim import device_model, presets, sim_engine
from edgesim.device_model import (
    DeviceProfile,
    InferenceTask,
    NodeRuntime,
    admit_task,
    predict_components,
    preload_model,
    remove_task,
    service_request,
)
from edgesim.errors import AssignmentError, ConfigurationError
from edgesim.net_model import Nlm, StableParams
from edgesim.orchestrator import AllocationWeights, node_weights

ACCEL_600_N1 = {"upsquared": 62.65, "jetson-nano": 79.59, "coral": 71.81}


def make_task(task_id="task-1", frame=600):
    return InferenceTask(task_id=task_id, frame_size_px=frame, qos_ms=150.0)


class TestCalibrationAnchors:
    @pytest.mark.parametrize("name,expected", sorted(ACCEL_600_N1.items()))
    def test_accelerator_at_600_single_instance(self, profiles, name, expected):
        cpu, accel = predict_components(profiles[name], 600, 1)
        assert accel == expected
        assert cpu > 0

    def test_growth_ranges_per_device(self, profiles):
        for name, profile in profiles.items():
            lo, hi = presets.GROWTH_RANGES[name]
            for n in profile.instance_counts():
                base = sum(predict_components(profile, 600, n))
                doubled = sum(predict_components(profile, 1200, n))
                growth = doubled / base - 1.0
                assert lo <= growth <= hi, (name, n, growth)

    def test_cluster_average_growth(self, profiles):
        for n in (1, 2, 3, 4):
            growths = []
            for profile in profiles.values():
                base = sum(predict_components(profile, 600, n))
                doubled = sum(predict_components(profile, 1200, n))
                growths.append(doubled / base - 1.0)
            avg = sum(growths) / len(growths)
            assert presets.CLUSTER_GROWTH_RANGE[0] <= avg <= presets.CLUSTER_GROWTH_RANGE[1]

    def test_jetson_peak_growth_at_three_instances(self, profiles):
        profile = profiles["jetson-nano"]
        growths = {}
        for n in profile.instance_counts():
            base = sum(predict_components(profile, 600, n))
            growths[n] = sum(predict_components(profile, 1200, n)) / base - 1.0
        assert max(growths, key=growths.get) == 3

    def test_cpu_more_frame_sensitive_than_accel(self, profiles):
        for profile in profiles.values():
            for n in profile.instance_counts():
                cpu6, accel6 = predict_components(profile, 600, n)
                cpu12, accel12 = predict_components(profile, 1200, n)
                assert cpu12 / cpu6 > accel12 / accel6


class TestPredictComponents:
    def test_exact_at_every_grid_point(self, profiles):
        for profile in profiles.values():
            for (f, n), expected in profile.calibration.items():
                assert predict_components(profile, f, n) == expected

    def test_bilinear_midpoints(self, profiles):
        profile = profiles["upsquared"]
        # halfway in log2 frame space
        mid_f = 600 * math.sqrt(2.0)
        cpu, accel = predict_components(profile, mid_f, 1)
        assert cpu == pytest.approx((25.00 + 49.78) / 2, abs=1e-9)
        assert accel == pytest.approx((62.65 + 76.43) / 2, abs=1e-9)
        # halfway between instance counts
        cpu, accel = predict_components(profile, 600, 1.5)
        assert cpu == pytest.approx((25.00 + 33.75) / 2, abs=1e-9)
        assert accel == pytest.approx((62.65 + 68.92) / 2, abs=1e-9)

    def test_multiplicative_extrapolation_above(self, profiles):
        profile = profiles["upsquared"]
        cpu, accel = predict_components(profile, 2400, 1)
        assert cpu == pytest.approx(49.78 * (49.78 / 25.00), rel=1e-12)
        assert accel == pytest.approx(76.43 * (76.43 / 62.65), rel=1e-12)
        cpu5, _ = predict_components(profile, 600, 5)
        assert cpu5 == pytest.approx(62.50 * (62.50 / 47.50), rel=1e-12)

    def test_multiplicative_extrapolation_below(self, profiles):
        profile = profiles["upsquared"]
        cpu, accel = predict_components(profile, 300, 1)
        assert cpu == pytest.approx(25.00 * (25.00 / 49.78), rel=1e-12)
        assert accel == pytest.approx(62.65 * (62.65 / 76.43), rel=1e-12)

    def test_rejects_bad_arguments(self, profiles):
        profile = profiles["coral"]
        with pytest.raises(ConfigurationError):
            predict_components(profile, 0, 1)
        with pytest.raises(ConfigurationError):
            predict_components(profile, 600, 0)

    @given(
        base_cpu=st.floats(1.0, 100.0),
        base_accel=st.floats(1.0, 100.0),
        cpu_steps=st.lists(st.floats(0.0, 20.0), min_size=9, max_size=9),
        accel_steps=st.lists(st.floats(0.0, 20.0), min_size=9, max_size=9),
        f_query=st.floats(200.0, 4000.0),
        n_query=st.floats(1.0, 8.0),
        f_in=st.floats(400.0, 1600.0),
        n_in=st.floats(1.0, 3.0),
    )
    @settings(max_examples=100)
    def test_monotone_on_random_monotone_tables(
        self, base_cpu, base_accel, cpu_steps, accel_steps, f_query, n_query, f_in, n_in
    ):
        frames = [400, 800, 1600]
        counts = [1, 2, 3]
        # cumulative increments keep both components monotone in both axes
        table = {}
        for ni, n in enumerate(counts):
            for fi, f in enumerate(frames):
                cpu_v = base_cpu + sum(cpu_steps[: ni * 3 + fi + 1])
                accel_v = base_accel + sum(accel_steps[: ni * 3 + fi + 1])
                table[(f, n)] = (cpu_v, accel_v)
        profile = DeviceProfile(name="t", accelerator_kind="TPU", calibration=table)
        profile.validate()
        # full bilinear monotonicity inside the grid hull
        for df, dn in [(1.2, 0.0), (0.0, 0.7), (1.15, 0.4)]:
            c1, a1 = predict_components(profile, f_in, n_in)
            c2, a2 = predict_components(
                profile, min(f_in * max(df, 1.0), 1600.0), min(n_in + dn, 3.0)
            )
            assert c2 >= c1 - 1e-9 and a2 >= a1 - 1e-9
        # along the extrapolated axis, with the other axis on the grid:
        # edge-ratio extrapolation keeps each row monotone in its own axis
        for n in counts:
            c1, a1 = predict_components(profile, f_query, n)
            c2, a2 = predict_components(profile, f_query * 1.5, n)
            assert c2 >= c1 - 1e-9 and a2 >= a1 - 1e-9
        for f in frames:
            c1, a1 = predict_components(profile, f, n_query)
            c2, a2 = predict_components(profile, f, n_query + 1.0)
            assert c2 >= c1 - 1e-9 and a2 >= a1 - 1e-9

    def test_default_tables_monotone_over_realistic_queries(self, profiles):
        # the shipped surfaces have consistent edge ratios, so monotonicity
        # holds across the whole realistic query box, extrapolation included
        frames = [300, 450, 600, 848, 1200, 1800, 2400]
        counts = [1, 1.5, 2, 2.5, 3, 3.5, 4, 5, 6]
        for profile in profiles.values():
            for comp in (0, 1):
                grid = [
                    [predict_components(profile, f, n)[comp] for f in frames] for n in counts
                ]
                for row in grid:
                    assert all(a <= b + 1e-9 for a, b in zip(row, row[1:])), (profile.name, row)
                for col in zip(*grid):
                    assert all(a <= b + 1e-9 for a, b in zip(col, col[1:])), (profile.name, col)


class TestProfileValidation:
    def test_empty_table_rejected(self):
        profile = DeviceProfile(name="x", accelerator_kind="GPU", calibration={})
        with pytest.raises(ConfigurationError, match="empty calibration"):
            profile.validate()
        with pytest.raises(ConfigurationError):
            predict_components(profile, 600, 1)

    def test_incomplete_grid_rejected(self):
        table = {(600, 1): (1.0, 2.0), (1200, 2): (2.0, 3.0)}
        with pytest.raises(ConfigurationError, match="incomplete"):
            DeviceProfile(name="x", accelerator_kind="GPU", calibration=table).validate()

    def test_non_monotone_rejected(self):
        table = {(600, 1): (10.0, 10.0), (600, 2): (5.0, 20.0)}
        with pytest.raises(ConfigurationError, match="non-decreasing"):
            DeviceProfile(name="x", accelerator_kind="GPU", calibration=table).validate()

    def test_unknown_accelerator_rejected(self):
        table = {(600, 1): (1.0, 1.0)}
        with pytest.raises(ConfigurationError, match="accelerator"):
            DeviceProfile(name="x", accelerator_kind="NPU", calibration=table).validate()


class TestServiceRequest:
    def test_model_load_charged_once(self, profiles):
        node = NodeRuntime(profile=profiles["upsquared"])
        task = make_task()
        admit_task(node, task)
        first = service_request(node, task)
        assert first == (1, 25.00, 62.65, 2000.0, 2000.0 + 25.00 + 62.65)
        second = service_request(node, task)
        assert second == (1, 25.00, 62.65, 0.0, 25.00 + 62.65)

    def test_preload_skips_step_zero(self, profiles):
        node = NodeRuntime(profile=profiles["coral"])
        preload_model(node, "objd")
        task = make_task()
        admit_task(node, task)
        assert service_request(node, task)[3] == 0.0

    def test_loaded_node_returns_one_tuple_per_key(self, profiles):
        node = NodeRuntime(profile=profiles["coral"])
        preload_model(node, "objd")
        task = make_task()
        admit_task(node, task)
        assert service_request(node, task) is service_request(node, task)

    def test_components_read_post_admission(self, profiles):
        node = NodeRuntime(profile=profiles["upsquared"])
        preload_model(node, "objd")
        for i in range(2):
            admit_task(node, make_task(task_id=f"bg-{i}"))
        third = make_task(task_id="task-3")
        admit_task(node, third)
        n_instances, cpu_ms, accel_ms, _, _ = service_request(node, third)
        assert n_instances == 3
        assert (cpu_ms, accel_ms) == (47.50, 93.97)

    def test_degenerate_table_sums_linearly(self):
        eps = 1e-6
        table = {(600, 1): (eps, eps)}
        profile = DeviceProfile(
            name="null", accelerator_kind="GPU", calibration=table, model_load_ms=0.0
        )
        node = NodeRuntime(profile=profile)
        task = make_task()
        admit_task(node, task)
        assert service_request(node, task)[-1] == pytest.approx(2 * eps, rel=1e-9)

    def test_unreachable_node_rejects_admission(self, profiles):
        node = NodeRuntime(profile=profiles["coral"], faulted=True)
        with pytest.raises(AssignmentError):
            admit_task(node, make_task())

    def test_unadmitted_task_rejected(self, profiles):
        node = NodeRuntime(profile=profiles["coral"])
        with pytest.raises(AssignmentError):
            service_request(node, make_task())

    def test_remove_task(self, profiles):
        node = NodeRuntime(profile=profiles["coral"])
        task = make_task()
        admit_task(node, task)
        assert remove_task(node, task.task_id) is task
        with pytest.raises(AssignmentError):
            remove_task(node, task.task_id)


class TestComponentsMemo:
    """``NodeRuntime.served`` memoizes ``predict_components`` per node."""

    @pytest.mark.parametrize(
        "build", [presets.default_scenario, presets.overload_scenario, presets.fault_scenario]
    )
    def test_service_request_matches_predict_components(self, build, monkeypatch):
        served = []

        def spy(node, task):
            outcome = service_request(node, task)
            served.append((node.profile, task.frame_size_px, outcome))
            return outcome

        monkeypatch.setattr(sim_engine, "service_request", spy)
        sim_engine.run(build(), seed=1)
        assert served
        for profile, frame, (n_instances, cpu_ms, accel_ms, _, _) in served:
            assert (cpu_ms, accel_ms) == predict_components(profile, frame, n_instances)

    def test_repeated_key_computed_once(self, profiles, monkeypatch):
        calls = []

        def counted(profile, frame_size, n):
            calls.append((frame_size, n))
            return predict_components(profile, frame_size, n)

        monkeypatch.setattr(device_model, "predict_components", counted)
        node = NodeRuntime(profile=profiles["coral"])
        task = make_task(frame=800)  # off the grid: interpolated
        admit_task(node, task)
        first = service_request(node, task)
        second = service_request(node, task)
        assert calls == [(800, 1)]
        expected = predict_components(profiles["coral"], 800, 1)
        assert first[1:3] == second[1:3] == expected

    def test_bad_arguments_raise_on_every_call(self, profiles):
        node = NodeRuntime(profile=profiles["coral"])
        empty = NodeRuntime(profile=DeviceProfile(name="x", accelerator_kind="GPU", calibration={}))
        for runtime, frame, n in ((node, 0, 1), (node, 600, 0), (empty, 600, 1)):
            for _ in range(2):
                with pytest.raises(ConfigurationError):
                    runtime.served(frame, n)
                assert not runtime._served

    def test_node_weights_same_with_warm_memo(self, profiles):
        nlm = Nlm(seed=0)
        for i, name in enumerate(sorted(profiles)):
            nlm.add_link(name, "rpi-1", StableParams(alpha=2.0, scale=0.01, location=5.0 + i))
            nlm.observe(name, "rpi-1", 5.0 + i, 0.0)
        nodes = {name: NodeRuntime(profile=p) for name, p in profiles.items()}

        def weights():
            return node_weights(nodes, sorted(nodes), 800, "rpi-1", nlm, AllocationWeights())

        cold = weights()
        assert all(node._served for node in nodes.values())
        assert weights() == cold
