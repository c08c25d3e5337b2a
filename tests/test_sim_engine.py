import dataclasses
import functools
import gc
import hashlib
import json
import math
import operator
import re
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgesim import discovery, net_model, orchestrator, presets
from edgesim.cli import write_outputs
from edgesim.device_model import DeviceProfile, admit_task
from edgesim.errors import ConfigurationError
from edgesim.net_model import StableParams
from edgesim.profiler_health import classify
from edgesim.scenario import EndDevice, FaultSpec, NetworkConfig, Scenario
from edgesim.sim_engine import (
    _TIME_EPS,
    FrameRecord,
    Simulation,
    _entropy,
    _frame_count,
    _Frame,
    _seed_states,
    run,
    substreams,
)

from engine_checks import (
    check_conservation,
    check_placement_after_every_entry,
    check_report,
    downtime_windows,
    table_of,
)


def mini_profile(name, cpu=10.0, accel=20.0):
    table = {}
    for i, n in enumerate((1, 2, 3, 4)):
        scale = 1.0 + 0.25 * i
        table[(600, n)] = (cpu * scale, accel * scale)
        table[(1200, n)] = (cpu * scale * 1.9, accel * scale * 1.25)
    return DeviceProfile(name=name, accelerator_kind="GPU", calibration=table, model_load_ms=500.0)


def mini_scenario(n_nodes=2, n_devices=1, fps=1.0, duration=10.0, qos=300.0, seed=7):
    scenario = Scenario()
    scenario.devices = [mini_profile(f"node-{chr(97 + i)}") for i in range(n_nodes)]
    scenario.end_devices = [
        EndDevice(id=f"dev-{i}", fps=fps, frame_size_px=600, qos_ms=qos) for i in range(n_devices)
    ]
    scenario.sim.duration_s = duration
    scenario.sim.seed = seed
    # pin links to an effectively constant latency for exact expectations
    scenario.network.edge_edge = StableParams(alpha=2.0, beta=0.0, scale=1e-9, location=13.0)
    scenario.network.edge_device = StableParams(alpha=2.0, beta=0.0, scale=1e-9, location=13.0)
    return scenario


def to_json(report):
    return json.dumps(report.to_dict(), sort_keys=True)


class TestDeterminism:
    def test_same_inputs_identical_reports(self):
        a = run(presets.overload_scenario(), seed=42)
        b = run(presets.overload_scenario(), seed=42)
        assert to_json(a) == to_json(b)

    def test_seed_changes_the_run(self):
        a = run(presets.default_scenario(), seed=1)
        b = run(presets.default_scenario(), seed=2)
        assert to_json(a) != to_json(b)

    def test_migration_heavy_run_is_deterministic(self):
        scenario = mini_scenario(n_nodes=2, fps=20.0, duration=8.0, qos=300.0)
        a = run(scenario, seed=5)
        b = run(scenario, seed=5)
        assert to_json(a) == to_json(b)

    def test_substream_is_stable(self):
        a = substreams(42, ["link:a:b"])[0].random(8)
        b = substreams(42, ["link:a:b"])[0].random(8)
        c = substreams(42, ["link:a:c"])[0].random(8)
        assert list(a) == list(b)
        assert list(a) != list(c)


def scalar_substream(seed, label):
    """The seeding definition, through numpy's own SeedSequence."""
    digest = hashlib.sha256(label.encode()).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *words])))


SEED_BOUNDARIES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)


class TestSeeding:
    """``substreams`` computes SeedSequence's mixing for many labels at
    once; numpy's scalar SeedSequence is the oracle."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        # an overflow warning from numpy scalar arithmetic fails the test
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(st.sampled_from(SEED_BOUNDARIES), st.integers(0, 2**64 - 1)),
        labels=st.lists(st.text(), max_size=12),
    )
    @example(seed=0, labels=[])
    @example(seed=2**64 - 1, labels=["link:a:b", "link:a:b", ""])
    def test_every_generator_matches_seed_sequence(self, seed, labels):
        generators = substreams(seed, labels)
        assert len(generators) == len(labels)
        for label, generator in zip(labels, generators):
            assert generator.bit_generator.state == scalar_substream(seed, label).bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(st.sampled_from(SEED_BOUNDARIES), st.integers(0, 2**64 - 1)),
        rows=st.lists(
            st.lists(
                st.one_of(st.sampled_from(SEED_BOUNDARIES), st.integers(0, 2**64 - 1)),
                min_size=4,
                max_size=4,
            ),
            max_size=8,
        ),
    )
    def test_short_words_split_like_seed_sequence(self, seed, rows):
        # 64-bit words below 2^32, which sha256 gives too rarely to reach
        # through labels, are one uint32 word each
        values = np.array(rows, dtype=np.uint64).reshape(-1, 4)
        states = _seed_states(*_entropy(seed, values))
        for row, state in zip(rows, states):
            expected = np.random.SeedSequence([seed, *row]).generate_state(4, np.uint64)
            assert state.tolist() == expected.tolist()

    def test_mixing_matches_seed_sequence_for_every_entropy_length(self):
        # hand-made rows of 1 to 12 words in one batch, so every length is
        # its own group; zero and short words, which sha256 words give
        # too rarely to reach through labels
        rng = np.random.default_rng(3)
        rows = []
        for length in range(1, 13):
            for fill in ("random", "zero", "short"):
                row = rng.integers(0, 2**32, length, dtype=np.uint64).astype(np.uint32)
                if fill == "zero":
                    row[rng.random(length) < 0.5] = 0
                elif fill == "short":
                    row %= 256
                rows.append(row)
        rng.shuffle(rows)
        words = np.zeros((len(rows), 12), dtype=np.uint32)
        keep = np.zeros(words.shape, dtype=bool)
        for i, row in enumerate(rows):
            # entropy words need not be leading: spread them over the row
            columns = np.sort(rng.choice(12, len(row), replace=False))
            words[i, columns] = row
            keep[i, columns] = True
            words[i, ~keep[i]] = 0xDEADBEEF
        states = _seed_states(words, keep)
        for row, state in zip(rows, states):
            expected = np.random.SeedSequence(row).generate_state(4, np.uint64)
            assert state.tolist() == expected.tolist()

    def test_substream_equals_its_entry_in_a_batch(self):
        one = substreams(2**40 + 3, ["link:a:b"])[0]
        batch = substreams(2**40 + 3, ["link:a:c", "link:a:b"])[1]
        assert one.bit_generator.state == batch.bit_generator.state

    def test_invalid_seeds_raise_like_seed_sequence(self):
        # in a child process, so a word splitter that loops forever on a
        # negative seed fails on the timeout instead of hanging the suite;
        # each seed prints substreams' error for one label and for none,
        # then SeedSequence's
        child = (
            "import sys; sys.path[:0] = sys.argv[1:]\n"
            "import numpy as np\n"
            "from edgesim.sim_engine import substreams\n"
            "for seed in (-1, -(2**64), np.int64(-3), 1.5, np.float64(2.0)):\n"
            "    calls = (lambda: substreams(seed, ['x']), lambda: substreams(seed, []),\n"
            "             lambda: np.random.SeedSequence([seed, 5]))\n"
            "    for call in calls:\n"
            "        try:\n"
            "            call()\n"
            "            print('no error')\n"
            "        except Exception as error:\n"
            "            print(type(error).__name__, error)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", child, *sys.path],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        lines = done.stdout.splitlines()
        assert len(lines) == 15
        for i in range(0, 15, 3):
            ours, batch, numpy_error = lines[i : i + 3]
            assert numpy_error.startswith(("TypeError", "ValueError"))
            assert ours == batch == numpy_error

    @pytest.mark.parametrize("seed", [0, 2**40 + 3])
    def test_every_link_of_a_built_run_has_its_stream(self, seed):
        sim = Simulation(mini_scenario(n_nodes=12, n_devices=8), seed=seed)
        pairs = sim.nlm.pairs()
        assert len(pairs) == 12 * 11 // 2 + 12 * 8
        for a, b in pairs:
            expected = scalar_substream(seed, f"link:{a}:{b}")
            # setup primed every link, which filled its row of draws
            expected.random((net_model._BLOCK_CAP, 2))
            _, rng = sim.nlm._links[sim.nlm._index(a, b)]
            assert rng.bit_generator.state == expected.bit_generator.state


def weighted_fault_scenario():
    scenario = mini_scenario(n_nodes=3, n_devices=4, fps=8.0, duration=20.0, qos=150.0)
    scenario.network = NetworkConfig()
    scenario.orchestrator.policy = "weighted"
    scenario.faults = [FaultSpec(node_id="node-b", at_s=5.0, duration_s=6.0)]
    return scenario


def many_link_scenario():
    # 8 nodes and 16 streams: 156 links, so each epoch probe refills many
    # buffers in one batch
    scenario = mini_scenario(n_nodes=8, n_devices=16, fps=2.0, duration=10.0, qos=150.0)
    scenario.network = NetworkConfig()
    return scenario


class TestBlockBuffering:
    @pytest.mark.parametrize(
        "build",
        [
            presets.default_scenario,
            presets.overload_scenario,
            presets.fault_scenario,
            weighted_fault_scenario,
            many_link_scenario,
        ],
    )
    def test_block_size_never_changes_a_report(self, build, monkeypatch):
        def report_sha256():
            text = json.dumps(run(build(), seed=1).to_dict())
            return hashlib.sha256(text.encode()).hexdigest()

        buffered = report_sha256()
        # a cap of 1 draws every latency with its own sampler call
        monkeypatch.setattr(net_model, "_BLOCK_CAP", 1)
        # digests, not the reports, so a failure does not diff megabytes
        assert report_sha256() == buffered


class TestNetworkWiring:
    def test_matrix_takes_the_scenario_floor_and_budget(self):
        scenario = presets.default_scenario()
        scenario.sim.duration_s = 10.0
        scenario.network.link_budget_ms = 20.0
        # far above both laws' location, so every draw is clamped to it
        scenario.network.floor_ms = 100.0
        assert scenario.network.edge_edge.location < 20.0 and scenario.network.edge_device.location < 20.0
        doc = run(scenario, seed=1).to_dict()
        assert len(doc["nlm"]) == 3 + 3 * 3
        for link in doc["nlm"].values():
            assert link["budget_ms"] == 20.0
            assert link["status"] == classify(link["score_ms"], 20.0)
        assert doc["frames"]
        for frame in doc["frames"]:
            assert frame["net_out_ms"] == frame["net_back_ms"] == 100.0


def late_streams_during_fault():
    # node-b is down from 5 s to 11 s when half of the streams start
    scenario = weighted_fault_scenario()
    for device in scenario.end_devices[1::2]:
        device.start_s = 6.0
    return scenario


def late_stream_during_critical():
    # jetson-nano is system-critical from 16 s to 17 s at seed 1
    scenario = presets.overload_scenario()
    scenario.end_devices.append(dataclasses.replace(scenario.end_devices[0], id="rpi-late", start_s=16.5))
    return scenario


class TestInitialPlacement:
    @pytest.mark.parametrize(
        "build, filtered",
        [
            (presets.default_scenario, False),
            (presets.overload_scenario, False),
            (presets.fault_scenario, False),
            (weighted_fault_scenario, False),
            (late_streams_during_fault, True),
            (late_stream_during_critical, True),
        ],
    )
    def test_resolved_candidates_are_the_eligible_nodes(self, build, filtered, monkeypatch):
        # placement filters health once, in the placement rule; the logged
        # discovery candidates must be the nodes that rule keeps
        sim = Simulation(build(), seed=1)
        resolve = discovery.resolve
        calls = []

        def checked(*args):
            candidates = resolve(*args)
            calls.append(sorted(candidates))
            assert calls[-1] == orchestrator._eligible(sim._statuses())
            return candidates

        monkeypatch.setattr(discovery, "resolve", checked)
        sim.run()
        assert calls
        assert any(len(c) < len(sim.nodes) for c in calls) == filtered


class TestArrivalCounting:
    def test_one_fps_ten_seconds_ten_frames(self):
        scenario = mini_scenario(n_nodes=1, n_devices=1, fps=1.0, duration=10.0)
        report = run(scenario)
        assert report.counters["frames_generated"] == 10
        assert len(report.frames) == 10
        check_report(report)

    def test_late_start_shortens_the_stream(self):
        scenario = mini_scenario(n_nodes=1, n_devices=1, fps=2.0, duration=10.0)
        scenario.end_devices[0].start_s = 6.0
        report = run(scenario)
        assert report.counters["frames_generated"] == 8

    def test_frames_sorted_by_completion_then_id(self):
        report = run(presets.overload_scenario(), seed=1)
        keys = [(f.completed_at, f.frame_id) for f in report.frames]
        assert keys == sorted(keys)


class TestConservation:
    """Frames in flight at the end are counted from engine state, so a
    frame the engine loses shows up as a conservation failure."""

    def _backlogged(self):
        # one unmanaged node fed faster than it serves: its queue only grows
        scenario = mini_scenario(n_nodes=1, fps=50.0, duration=3.0)
        scenario.orchestrator.offloading_enabled = False
        return Simulation(scenario)

    def test_backlog_is_counted_in_flight(self):
        sim = self._backlogged()
        report = sim.run()
        check_conservation(report)
        queued = sum(len(ts.queue) for ts in sim.tasks.values())
        assert queued > 0
        assert report.counters["frames_in_flight_at_end"] >= queued

    def test_dropped_queued_frame_breaks_conservation(self):
        sim = self._backlogged()
        report_now = sim._report

        def drop_one_then_report():
            next(ts for ts in sim.tasks.values() if ts.queue).queue.pop()
            return report_now()

        sim._report = drop_one_then_report
        with pytest.raises(AssertionError):
            check_conservation(sim.run())

    def _in_transit(self):
        # a 2 s link to the end device: frames dispatched in the last 2 s
        # are still in queued arrival entries when the run ends
        scenario = mini_scenario(n_nodes=1, fps=5.0, duration=3.0)
        scenario.orchestrator.offloading_enabled = False
        scenario.network.edge_device = dataclasses.replace(scenario.network.edge_device, location=2000.0)
        return Simulation(scenario)

    def test_frames_in_queued_entries_are_counted_in_flight(self):
        sim = self._in_transit()
        report = sim.run()
        check_conservation(report)
        queued = {arg.frame_id for *_, args in sim._queue for arg in args if isinstance(arg, _Frame)}
        assert queued
        assert report.counters["frames_in_flight_at_end"] >= len(queued)

    def test_dropped_queued_entry_breaks_conservation(self):
        sim = self._in_transit()
        report_now = sim._report

        def drop_one_then_report():
            # an arrival entry's frame sits nowhere else
            del sim._queue[next(i for i, e in enumerate(sim._queue) if e[2] == sim._on_at_node)]
            return report_now()

        sim._report = drop_one_then_report
        with pytest.raises(AssertionError):
            check_conservation(sim.run())


class TestEventCount:
    """The benchmark reads calls of ``Simulation._handle`` as its event
    count, so every popped entry must run through it."""

    def test_every_popped_entry_runs_through_handle(self, monkeypatch):
        counts = {"handled": 0, "scheduled": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(Simulation, "_handle", counted("handled", Simulation._handle))
        monkeypatch.setattr(Simulation, "_schedule", counted("scheduled", Simulation._schedule))
        sim = Simulation(presets.fault_scenario(), seed=1)
        sim.run()
        assert counts["handled"] > 0
        assert counts["handled"] == counts["scheduled"] - len(sim._queue)


def quiet_scenario(duration):
    """Its one stream starts at the run end, so only epochs run."""
    scenario = mini_scenario(duration=duration)
    scenario.end_devices[0].start_s = duration
    return scenario


def handled(monkeypatch):
    """(instant, handler name) of every entry a run handles, in order."""
    entries = []
    handle = Simulation._handle

    def spy(sim, time, handler, args):
        entries.append((time, handler.__name__))
        return handle(sim, time, handler, args)

    monkeypatch.setattr(Simulation, "_handle", spy)
    return entries


class TestHealthEpochs:
    """One epoch is pending at a time; each schedules the next at k * interval."""

    @staticmethod
    def epoch_instants(monkeypatch, interval, duration):
        scenario = quiet_scenario(duration)
        scenario.sim.health_epoch_interval_s = interval
        entries = handled(monkeypatch)
        sim = Simulation(scenario)
        assert len(sim._queue) == 2  # the first epoch and the run end
        sim.run()
        epochs = [t for t, name in entries if name == "_on_health_epoch"]
        assert [t for t, name in entries if name == "_on_run_end"] == [duration]
        assert max(epochs) <= duration
        return epochs

    def test_epoch_schedule_count(self, monkeypatch):
        assert self.epoch_instants(monkeypatch, 1.0, 10.0) == [float(k) for k in range(1, 11)]
        assert self.epoch_instants(monkeypatch, 2.5, 10.0) == [2.5, 5.0, 7.5, 10.0]

    def test_epoch_instants_do_not_drift(self, monkeypatch):
        # repeated addition of 0.1 drifts off these products
        assert self.epoch_instants(monkeypatch, 0.1, 100.0) == [k * 0.1 for k in range(1, 1001)]

    def test_bad_interval_rejected(self):
        scenario = mini_scenario()
        scenario.sim.health_epoch_interval_s = 0.0
        with pytest.raises(ConfigurationError, match="health_epoch_interval_s"):
            Simulation(scenario)

    def test_fault_injected_at_an_epoch_runs_after_it(self, monkeypatch):
        # an entry scheduled after construction pops after every entry
        # scheduled at construction for the same instant, the epochs included
        entries = handled(monkeypatch)
        sim = Simulation(quiet_scenario(6.0))
        sim.inject_fault("node-a", 3.0, 1.0)
        sim.run()
        assert [name for t, name in entries if t == 3.0] == ["_on_health_epoch", "_on_fault"]
        assert [(e["t"], e["event"]) for e in sim.node_events] == [(3.0, "fault-start"), (4.0, "fault-end")]

    def test_quiet_cluster_never_migrates(self):
        # two streams cannot push any node past two instances
        scenario = mini_scenario(n_nodes=3, n_devices=2, duration=15.0)
        report = run(scenario)
        assert report.counters["migrations"] == 0
        assert report.migrations == []
        check_report(report)


class TestSaturation:
    def flood_scenario(self, duration=6.0):
        # service time ~146 ms vs 50 ms inter-arrival: the queue grows until
        # the instance's latency breaches 90% of its 300 ms budget
        scenario = mini_scenario(n_nodes=2, n_devices=1, fps=20.0, duration=duration, qos=300.0)
        scenario.devices = [mini_profile(f"node-{c}", cpu=40.0, accel=80.0) for c in "ab"]
        return scenario

    def test_flood_triggers_exactly_one_migration(self):
        report = run(self.flood_scenario(), seed=3)
        assert report.counters["migrations"] >= 1
        first = report.migrations[0]
        epoch = first.decided_at
        assert epoch == 1.0  # first health epoch after the queue builds
        same_epoch = [m for m in report.migrations if m.decided_at == epoch]
        assert len(same_epoch) == 1
        check_report(report)

    def test_victim_node_quarantined_then_released(self):
        report = run(self.flood_scenario(duration=14.0), seed=3)
        events = [e for e in report.node_events if e["node"] == report.migrations[0].from_node]
        kinds = [e["event"] for e in events]
        assert "quarantine" in kinds
        q = next(e["t"] for e in events if e["event"] == "quarantine")
        releases = [e["t"] for e in events if e["event"] == "release" and e["t"] > q]
        assert releases and releases[0] - q >= 5.0  # default cool-down


class TestOneVictimPerEpoch:
    def test_one_app_critical_instance_moves_per_node_and_epoch(self):
        # three streams on node-a; two are app-critical (>= 270 of 300 ms)
        # while the node's mean, 230 ms, is only in warning
        sim = Simulation(mini_scenario(n_nodes=2, n_devices=3, duration=10.0))
        for ts in sim.tasks.values():
            admit_task(sim.nodes["node-a"], ts.task)
            sim.profilers["node-a"].register_task(ts.task.task_id, ts.task.qos_ms)
        for tid, latency in zip(sorted(sim.tasks), (280.0, 290.0, 120.0)):
            sim.profilers["node-a"].record_inference(tid, latency, 0.0)
        sim.now = 1.0
        sim._on_health_epoch(1)
        assert sim.health["node-a"].system_state == "warning"
        assert sorted(sim.health["node-a"].app_states.values()) == ["critical", "critical", "pass"]
        # the slower of the two moves now; the other waits for a later epoch
        moves = [(e["decision"], e["reason"]) for e in sim.decision_log if e["kind"] == "migrate"]
        assert moves == [("node-a->node-b", "app-critical")]
        assert [tid for tid, ts in sorted(sim.tasks.items()) if ts.migration is not None] == ["task-dev-1"]


class TestMigrationMechanics:
    def test_handover_cost_is_link_plus_overhead(self):
        scenario = mini_scenario(n_nodes=2, n_devices=1, fps=20.0, duration=6.0, qos=300.0)
        scenario.devices = [mini_profile(f"node-{c}", cpu=40.0, accel=80.0) for c in "ab"]
        report = run(scenario, seed=3)
        first = report.migrations[0]
        # link pinned at 13 ms, default overhead 50 ms
        assert first.metadata_transfer_ms == pytest.approx(63.0, abs=1e-6)
        assert first.completed_at - first.decided_at == pytest.approx(0.063, abs=1e-6)

    def test_source_instance_count_drops_at_decision(self):
        scenario = mini_scenario(n_nodes=2, n_devices=1, fps=20.0, duration=6.0, qos=300.0)
        scenario.devices = [mini_profile(f"node-{c}", cpu=40.0, accel=80.0) for c in "ab"]
        report = run(scenario, seed=3)
        first = report.migrations[0]
        series = dict(report.instance_series[first.from_node])
        assert series[first.decided_at] == 0

    def flood_with_target_outage(self, n_nodes):
        # the flooded node migrates at t=1.0 with a ~63 ms handover; the
        # original target dies mid-transfer
        scenario = mini_scenario(n_nodes=n_nodes, n_devices=1, fps=20.0, duration=6.0, qos=300.0)
        scenario.devices = [
            mini_profile(f"node-{chr(97 + i)}", cpu=40.0, accel=80.0) for i in range(n_nodes)
        ]
        report = run(scenario, seed=3)
        target = report.migrations[0].to_node
        scenario.faults = [FaultSpec(node_id=target, at_s=1.02, duration_s=3.0)]
        return run(scenario, seed=3), target

    def test_unavailable_target_triggers_one_retry(self, monkeypatch):
        check_placement_after_every_entry(monkeypatch)
        report, failed_target = self.flood_with_target_outage(n_nodes=3)
        first = report.migrations[0]
        assert first.retried
        assert first.to_node != failed_target
        assert first.completed_at is not None
        retries = [e for e in report.decision_log if e["kind"] == "migration-retry"]
        assert len(retries) == 1

    def test_retry_without_candidates_abandons(self, monkeypatch):
        check_placement_after_every_entry(monkeypatch)
        report, _ = self.flood_with_target_outage(n_nodes=2)
        first = report.migrations[0]
        assert first.retried and first.abandoned
        assert first.completed_at is None
        assert report.counters["failed_offloads"] >= 1
        # while the target stays down, the instance is back on its original host
        during_fault = {f.node for f in report.frames if 1.1 < f.dispatched_at < 4.0}
        assert during_fault <= {first.from_node}

    def test_stream_follows_the_migrated_instance(self):
        # a heterogeneous hop: frames keep flowing to whichever board hosts
        # the instance after the handover
        report = run(presets.overload_scenario(), seed=1)
        assert report.migrations
        move = report.migrations[0]
        assert move.completed_at is not None
        later_moves = [
            m for m in report.migrations if m.task_id == move.task_id and m is not move
        ]
        if not later_moves:
            after = [
                f.node
                for f in report.frames
                if f.task_id == move.task_id and f.dispatched_at > move.completed_at
            ]
            assert after and set(after) == {move.to_node}

    def test_migration_trigger_reproducible_from_logs(self):
        report = run(presets.overload_scenario(), seed=1)
        assert report.migrations
        critical_since = {}
        for tr in report.health_transitions:
            if tr["scope"] == "system":
                critical_since.setdefault(tr["node"], []).append((tr["t"], tr["to"]))
        for m in report.migrations:
            if m.trigger == "system-critical":
                history = [s for t, s in critical_since.get(m.from_node, []) if t <= m.decided_at]
                fault_starts = [
                    e["t"]
                    for e in report.node_events
                    if e["node"] == m.from_node and e["event"] == "fault-start"
                ]
                was_faulted = any(t <= m.decided_at for t in fault_starts)
                assert was_faulted or (history and history[-1] == "critical"), m


class TestFaults:
    def test_fault_only_node_fails_window_frames(self):
        scenario = mini_scenario(n_nodes=1, n_devices=1, fps=1.0, duration=12.0)
        scenario.faults = [FaultSpec(node_id="node-a", at_s=3.0, duration_s=5.0)]
        report = run(scenario)
        # every frame emitted inside [3, 8) retries once and finds no node
        assert report.counters["assignment_failures"] == 5
        served = {round(f.emitted_at) for f in report.frames}
        assert served == {0, 1, 2, 8, 9, 10, 11}
        check_report(report)

    def test_fault_one_of_three_evacuates_its_tasks(self):
        scenario = mini_scenario(n_nodes=3, n_devices=3, fps=1.0, duration=20.0)
        report_before = run(scenario)
        hosted = {f.node for f in report_before.frames if f.emitted_at < 5.0}
        victim_node = sorted(hosted)[0]
        scenario.faults = [FaultSpec(node_id=victim_node, at_s=5.5, duration_s=8.0)]
        report = run(scenario)
        moved = [m for m in report.migrations if m.from_node == victim_node]
        tasks_on_victim = {
            f.task_id for f in report.frames if f.node == victim_node and f.emitted_at < 5.5
        }
        assert {m.task_id for m in moved} == tasks_on_victim
        assert all(m.decided_at == 6.0 for m in moved)  # next epoch after the fault
        check_report(report)

    def test_zero_duration_fault_is_invisible(self):
        scenario = mini_scenario(n_nodes=2, n_devices=2, duration=10.0)
        baseline = to_json(run(scenario))
        scenario.faults = [FaultSpec(node_id="node-a", at_s=5.0, duration_s=0.0)]
        assert to_json(run(scenario)) == baseline

    def test_window_whose_end_rounds_to_its_start_is_invisible(self):
        # 2.0 + 1e-300 == 2.0: the short window's end used to clear node-a's
        # fault at 2 s while the window [2, 5) still held
        scenario = mini_scenario(n_nodes=2, n_devices=1, duration=10.0)
        scenario.faults = [FaultSpec(node_id="node-a", at_s=2.0, duration_s=3.0)]
        baseline = to_json(run(scenario))
        scenario.faults.append(FaultSpec(node_id="node-a", at_s=2.0, duration_s=1e-300))
        report = run(scenario)
        assert to_json(report) == baseline
        check_report(report)

    def test_unknown_fault_node_rejected(self):
        scenario = mini_scenario()
        sim = Simulation(scenario)
        with pytest.raises(ConfigurationError):
            sim.inject_fault("ghost", 1.0, 1.0)

    def test_overlapping_fault_windows_rejected(self):
        # an inner window's end used to reopen the node while the outer
        # window still held: frames went to upsquared at 9-14 s
        scenario = presets.default_scenario()
        scenario.devices = [d for d in scenario.devices if d.name == "upsquared"]
        scenario.end_devices = scenario.end_devices[:1]
        scenario.faults = [
            FaultSpec(node_id="upsquared", at_s=5.0, duration_s=10.0),
            FaultSpec(node_id="upsquared", at_s=7.0, duration_s=2.0),
        ]
        with pytest.raises(ConfigurationError, match=r"faults\[1\]: overlaps faults\[0\]"):
            Simulation(scenario)

    def test_overlapping_injected_fault_windows_rejected(self):
        # windows injected by hand after construction never pass through
        # validate(); the inner end used to reopen upsquared at 10-14 s
        scenario = presets.default_scenario()
        scenario.devices = [d for d in scenario.devices if d.name == "upsquared"]
        scenario.end_devices = scenario.end_devices[:1]
        sim = Simulation(scenario)
        sim.inject_fault("upsquared", 5.0, 10.0)
        with pytest.raises(ConfigurationError, match=r"\[7\.0, 9\.0\) on node 'upsquared' overlaps \[5\.0, 15\.0\)"):
            sim.inject_fault("upsquared", 7.0, 2.0)
        sim.inject_fault("upsquared", 7.0, 0.0)  # a zero-length window is still a no-op
        sim.inject_fault("upsquared", 15.0, 1.0)  # back to back
        check_report(sim.run())

    def test_injected_window_checked_against_scenario_faults(self):
        scenario = mini_scenario(n_nodes=2)
        scenario.faults = [FaultSpec(node_id="node-a", at_s=2.0, duration_s=3.0)]
        sim = Simulation(scenario)
        sim.inject_fault("node-b", 3.0, 1.0)
        with pytest.raises(ConfigurationError, match="node 'node-a'"):
            sim.inject_fault("node-a", 4.0, 1.0)

    def test_nested_downtime_windows_close_with_the_outer_one(self):
        events = [
            {"t": 5.0, "node": "n", "event": "fault-start"},
            {"t": 7.0, "node": "n", "event": "fault-start"},
            {"t": 9.0, "node": "n", "event": "fault-end"},
            {"t": 15.0, "node": "n", "event": "fault-end"},
            {"t": 16.0, "node": "n", "event": "quarantine"},
        ]
        report = SimpleNamespace(node_events=events, duration_s=20.0)
        assert downtime_windows(report) == {"n": [(5.0, 15.0), (16.0, 21.0)]}

    def test_faulted_window_reconstruction(self):
        scenario = mini_scenario(n_nodes=2, n_devices=1, duration=10.0)
        scenario.faults = [FaultSpec(node_id="node-b", at_s=2.0, duration_s=3.0)]
        report = run(scenario)
        assert downtime_windows(report).get("node-b") == [(2.0, 5.0)]


class TestOffloadingComparison:
    def test_enabled_never_worse_on_overload(self):
        enabled = presets.overload_scenario()
        disabled = presets.overload_scenario()
        disabled.orchestrator.offloading_enabled = False
        r_on = run(enabled, seed=1)
        r_off = run(disabled, seed=1)
        assert r_on.counters["qos_violations"] <= r_off.counters["qos_violations"]
        assert r_on.counters["migrations"] >= 1
        check_report(r_on)
        check_report(r_off)

    def test_policies_make_different_choices_under_load(self):
        a = presets.overload_scenario()
        a.orchestrator.policy = "min-latency"
        b = presets.overload_scenario()
        b.orchestrator.policy = "weighted"
        r_a = run(a, seed=1)
        r_b = run(b, seed=1)
        assigns_a = [e["decision"] for e in r_a.decision_log if e["kind"] == "assign"]
        assigns_b = [e["decision"] for e in r_b.decision_log if e["kind"] == "assign"]
        assert assigns_a != assigns_b
        check_report(r_b)

    def test_weighted_policy_spreads_load(self):
        scenario = presets.overload_scenario()
        scenario.orchestrator.policy = "weighted"
        report = run(scenario, seed=1)
        final_counts = {node: series[-1][1] for node, series in report.instance_series.items()}
        assert max(final_counts.values()) <= 2


class TestValidationGate:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_override_out_of_range_rejected(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            Simulation(mini_scenario(), seed=seed)

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_seed_override_of_another_type_rejected(self, seed):
        with pytest.raises(ConfigurationError, match=f"got {re.escape(repr(seed))}"):
            Simulation(mini_scenario(), seed=seed)

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_scenario_seed_of_another_type_rejected(self, seed):
        scenario = mini_scenario()
        scenario.sim.seed = seed
        with pytest.raises(ConfigurationError, match="sim.seed"):
            Simulation(scenario)

    def test_numpy_integer_seed_writes_the_same_report(self, tmp_path):
        for seed in (3, np.int64(3)):
            sim = Simulation(mini_scenario(), seed=seed)
            assert type(sim.seed) is int
            (tmp_path / type(seed).__name__).mkdir()
            write_outputs(sim.run(), tmp_path / type(seed).__name__, "json")
        assert (tmp_path / "int" / "report.json").read_bytes() == (tmp_path / "int64" / "report.json").read_bytes()

    def test_invalid_scenario_rejected_before_any_event(self):
        scenario = mini_scenario()
        scenario.end_devices[0].fps = -1.0
        with pytest.raises(ConfigurationError, match="fps"):
            Simulation(scenario)


    def test_gossip_budget_in_report(self):
        report = run(mini_scenario())
        assert report.gossip_kbps_per_node == pytest.approx(7291.7, rel=1e-3)

    def test_registry_dump_lists_all_nodes(self):
        report = run(mini_scenario(n_nodes=2))
        assert {(r["service"], r["node"]) for r in report.registry_dump} == {
            ("objd", "node-a"),
            ("objd", "node-b"),
        }


def tied_streams_scenario():
    """Streams listed out of id order whose emissions tie with each other,
    with the epochs and with a fault start and end.

    dev-1 emits at 0.5, 0.75, ..., 5.75 (22 frames) and dev-0 at 1, ..., 5
    (5 frames; 6 s is the run end). Both emit at every whole second from 1
    s, where an epoch also runs; node-a's fault starts at 2 s and ends at
    3 s. dev-2 starts when the run ends and emits nothing.
    """
    scenario = mini_scenario(n_nodes=2, duration=6.0)
    scenario.end_devices = [
        EndDevice(id="dev-1", fps=4.0, frame_size_px=600, qos_ms=300.0, start_s=0.5),
        EndDevice(id="dev-0", fps=1.0, frame_size_px=600, qos_ms=300.0, start_s=1.0),
        EndDevice(id="dev-2", fps=2.0, frame_size_px=600, qos_ms=300.0, start_s=6.0),
    ]
    scenario.faults = [FaultSpec(node_id="node-a", at_s=2.0, duration_s=1.0)]
    return scenario


class TestLazyEmissions:
    """Each stream keeps one pending emission in the queue; the order of
    entries at a shared instant must not depend on when they were pushed."""

    def test_frame_ids_follow_emission_time_then_device_id(self, monkeypatch):
        frames = []
        dispatch_or_defer = Simulation._dispatch_or_defer

        def spy(sim, frame):
            frames.append(frame)
            return dispatch_or_defer(sim, frame)

        monkeypatch.setattr(Simulation, "_dispatch_or_defer", spy)
        report = run(tied_streams_scenario())
        assert [f.frame_id for f in frames] == list(range(27))
        keys = [(f.emitted_at, f.ts.device.id) for f in frames]
        assert keys == sorted(set(keys))
        assert [t for t, d in keys if d == "dev-1"] == [0.5 + k / 4.0 for k in range(22)]
        assert [t for t, d in keys if d == "dev-0"] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert report.counters["frames_generated"] == 27
        check_report(report)

    def test_equal_time_order(self, monkeypatch):
        kinds = {"_on_fault": 0, "_on_emit": 1, "_on_health_epoch": 2, "_on_run_end": 3}
        handled = []
        handle = Simulation._handle

        def spy(sim, time, handler, args):
            handled.append((time, kinds.get(handler.__name__, 4)))
            return handle(sim, time, handler, args)

        monkeypatch.setattr(Simulation, "_handle", spy)
        run(tied_streams_scenario())
        assert handled == sorted(handled)
        assert [k for t, k in handled if t == 2.0] == [0, 1, 1, 2]
        assert [k for t, k in handled if t == 3.0] == [0, 1, 1, 2]
        assert [k for t, k in handled if t == 6.0] == [2, 3]

    def test_queue_at_start_holds_one_entry_per_emitting_stream(self):
        sim = Simulation(tied_streams_scenario())
        # 2 emitting streams, the first epoch, the run end and 2 fault transitions
        assert len(sim._queue) == 2 + 1 + 1 + 2
        emitting = sorted(args[0].device.id for _, _, handler, args in sim._queue if handler == sim._on_emit)
        assert emitting == ["dev-0", "dev-1"]
        assert sim.counters["frames_generated"] == 22 + 5

    def test_no_emission_left_after_run(self):
        # a 2 s end-device link leaves arrivals queued at the run end
        scenario = tied_streams_scenario()
        scenario.network.edge_device = dataclasses.replace(scenario.network.edge_device, location=2000.0)
        sim = Simulation(scenario)
        report = sim.run()
        assert sim._queue
        assert all(handler != sim._on_emit for _, _, handler, _ in sim._queue)
        frames = [arg for *_, args in sim._queue for arg in args if isinstance(arg, _Frame)]
        assert frames and all(f.dispatched_at is not None for f in frames)
        check_report(report)


def literal_frame_count(start_s, fps, duration_s):
    k = 0
    while start_s + k / fps < duration_s - _TIME_EPS:
        k += 1
    return k


@st.composite
def streams(draw):
    """(start, fps, duration) with the start inside the run; half of the
    run ends fall on an emission instant or within 1e-9 of one, down to
    a few ulps either side."""
    fps = draw(st.one_of(st.sampled_from([1 / 3, 29.97, 1e-3, 240.0]), st.floats(1e-3, 240.0)))
    duration = draw(st.floats(1e-6, 100.0))
    start = draw(st.floats(0.0, duration))
    if draw(st.booleans()):
        instant = start + draw(st.integers(0, int((duration - start) * fps))) / fps
        offset = draw(st.one_of(st.sampled_from([0.0, _TIME_EPS, -_TIME_EPS]), st.floats(-1e-9, 1e-9)))
        duration = instant + offset
        ulps = draw(st.integers(-2, 2))
        for _ in range(abs(ulps)):
            duration = math.nextafter(duration, math.copysign(math.inf, ulps))
    return start, fps, duration


class TestFrameCount:
    """``frames_generated`` comes from the emission test in closed form, and
    the queue at construction does not grow with the run's duration."""

    @settings(max_examples=300, deadline=None)
    @given(stream=streams())
    # the real-valued count is one short here, and one over in the next
    @example(stream=(47.1085008411246, 1 / 3, 3731.108500842125))
    @example(stream=(31.635209947738506, 29.97, 54.4913994715947))
    @example(stream=(0.0, 1 / 3, 3.0))
    @example(stream=(0.0, 1 / 3, 3.0 + _TIME_EPS))
    @example(stream=(0.5, 29.97, 0.5 + 10 / 29.97 + _TIME_EPS))
    @example(stream=(0.0, 240.0, 1.0))
    @example(stream=(2.0, 1e-3, 2.0))
    def test_closed_form_equals_the_loop(self, stream):
        assert _frame_count(*stream) == literal_frame_count(*stream)

    def test_queue_at_start_does_not_grow_with_duration(self):
        sims = {}
        for duration in (10.0, 1e6):
            scenario = tied_streams_scenario()
            scenario.sim.duration_s = duration
            sims[duration] = Simulation(scenario)
        assert len(sims[10.0]._queue) == len(sims[1e6]._queue)
        # dev-1: 0.5 + k / 4 < 1e6; dev-0: 1 + k < 1e6; dev-2: 6 + k / 2 < 1e6
        assert sims[1e6].counters["frames_generated"] == 3_999_998 + 999_999 + 1_999_988


def exact(records):
    """Each record's values with their types, so that 150 and 150.0 or 0.0
    and -0.0 differ."""
    return [[(type(value), repr(value)) for value in vars(record).values()] for record in records]


finite = st.floats(allow_nan=False, allow_infinity=False)
#: the engine's own float columns get floats; every other column may hold
#: whatever the scenario gave, an int included
frame_records = st.builds(
    FrameRecord,
    frame_id=st.integers(-(2**63), 2**63 - 1),
    task_id=st.sampled_from(["task-a", "task-b"]),
    end_device=st.sampled_from(["cam-0", "cam-1"]),
    node=st.sampled_from(["edge-a", "edge-b"]),
    dispatched_to=st.sampled_from(["edge-a", "edge-b"]),
    frame_size_px=st.sampled_from([600, 1200]),
    n_instances=st.integers(1, 4),
    qos_ms=st.sampled_from([150, 150.0, 312.5]),
    emitted_at=finite,
    dispatched_at=st.integers(0, 5) | finite,
    # few distinct instants, so that rows tie on completed_at
    completed_at=st.sampled_from([-0.0, 0.5, 1.25, 1e9]),
    net_out_ms=finite,
    queueing_ms=finite,
    cpu_ms=st.integers(0, 50) | finite,
    accel_ms=finite,
    model_load_ms=st.sampled_from([0, 0.0, 2000.0]),
    processing_ms=finite,
    net_back_ms=finite,
    e2e_ms=finite,
    state=st.sampled_from(["pass", "warning", "critical"]),
)


def mean_by_addition(values):
    """The mean as the engine computes it: a running sum in order. Builtin
    ``sum`` compensates float rounding from Python 3.12 on."""
    values = list(values)
    return functools.reduce(operator.add, values, 0.0) / len(values)


class TestFrameTable:
    """Completed frames are kept as columns and read back as records."""

    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(frame_records, unique_by=lambda record: record.frame_id, max_size=40))
    def test_sort_orders_rows_like_sorted_and_changes_no_value(self, records):
        table = table_of(records)
        table.sort()
        assert exact(table) == exact(sorted(records, key=lambda r: (r.completed_at, r.frame_id)))

    @settings(max_examples=50, deadline=None)
    @given(records=st.lists(frame_records, min_size=5, max_size=5))
    def test_reads_like_the_list_of_its_records(self, records):
        table = table_of(records)
        assert len(table) == len(records) == 5
        for i in (0, 3, -1, -5):
            assert exact([table[i]]) == exact([records[i]])
        for part in (slice(None), slice(1, 4), slice(None, None, -2), slice(-2, None), slice(7, 9)):
            assert exact(table[part]) == exact(records[part])
        assert exact(table) == exact(records)
        for i in (5, -6):
            with pytest.raises(IndexError):
                table[i]

    @pytest.mark.parametrize("build", [presets.overload_scenario, presets.fault_scenario])
    def test_breakdown_equals_one_recomputed_from_the_records(self, build):
        report = run(build(), seed=1)
        groups = {}
        for f in list(report.frames):
            groups.setdefault((f.node, f.frame_size_px, f.n_instances), []).append(f)
        assert len(groups) > 1
        expected = [
            {
                "node": node,
                "frame_size_px": size,
                "n_instances": n,
                "count": len(frames),
                "mean_cpu_ms": mean_by_addition(f.cpu_ms for f in frames),
                "mean_accel_ms": mean_by_addition(f.accel_ms for f in frames),
                "mean_e2e_ms": mean_by_addition(f.e2e_ms for f in frames),
            }
            for (node, size, n), frames in sorted(groups.items())
        ]
        assert report.breakdown == expected

    def test_completed_frames_hold_few_bytes(self, workloads):
        # a frame kept as a frozen record held about 470 bytes; as columns
        # it holds about 180, its processing time being the node's shared
        # float once the model is loaded. The margin allows for object
        # sizes that vary between Python versions
        scenario = workloads.stream_steady()
        scenario.sim.duration_s = 300.0
        sim = Simulation(scenario, seed=5)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            # a full collection also empties the interpreter's free lists
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            report = sim.run()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert len(report.frames) > 7000
        assert held / len(report.frames) <= 300
