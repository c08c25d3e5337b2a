import random

import numpy as np
import pytest

from edgesim.device_model import DeviceProfile, NodeRuntime
from edgesim.errors import AssignmentUnavailableError, ConfigurationError
from edgesim.net_model import Nlm, StableParams
from edgesim.orchestrator import (
    AllocationWeights,
    MigrationRecord,
    NodeStatus,
    assign_node,
    assign_weighted,
    migration_cost_ms,
    node_weights,
    pick_victim,
    select_offload_target,
)
from edgesim.profiler_health import CRITICAL, PASS, ProfilerState

HEALTHY = NodeStatus(reachable=True, system_state=PASS)
CRIT = NodeStatus(reachable=True, system_state=CRITICAL)
DOWN = NodeStatus(reachable=False, system_state=PASS)


def nlm_with_scores(device_scores, inter_edge_scores=None):
    """Matrix with EMA state pinned to exact scores via first observations."""
    nlm = Nlm()
    for node, score in device_scores.items():
        nlm.add_link(node, "rpi-1", StableParams(alpha=2.0, scale=0.01, location=score))
        nlm.observe(node, "rpi-1", score, 0.0)
    for (a, b), score in (inter_edge_scores or {}).items():
        nlm.add_link(a, b, StableParams(alpha=2.0, scale=0.01, location=score))
        nlm.observe(a, b, score, 0.0)
    return nlm


class TestAssignNode:
    def test_strict_minimum(self):
        nlm = nlm_with_scores({"edge-a": 5.0, "edge-b": 9.0})
        statuses = {"edge-a": HEALTHY, "edge-b": HEALTHY}
        assert assign_node(statuses, "rpi-1", nlm) == "edge-a"

    def test_health_filter_beats_latency(self):
        nlm = nlm_with_scores({"edge-a": 5.0, "edge-b": 9.0})
        statuses = {"edge-a": CRIT, "edge-b": HEALTHY}
        assert assign_node(statuses, "rpi-1", nlm) == "edge-b"

    def test_all_critical_is_unavailable(self):
        nlm = nlm_with_scores({"edge-a": 5.0, "edge-b": 9.0})
        statuses = {"edge-a": CRIT, "edge-b": CRIT}
        with pytest.raises(AssignmentUnavailableError):
            assign_node(statuses, "rpi-1", nlm)

    def test_unreachable_filtered(self):
        nlm = nlm_with_scores({"edge-a": 5.0, "edge-b": 9.0})
        statuses = {"edge-a": DOWN, "edge-b": HEALTHY}
        assert assign_node(statuses, "rpi-1", nlm) == "edge-b"

    def test_ties_lexicographic(self):
        nlm = nlm_with_scores({"edge-b": 5.0, "edge-a": 5.0})
        statuses = {"edge-a": HEALTHY, "edge-b": HEALTHY}
        assert assign_node(statuses, "rpi-1", nlm) == "edge-a"

    def test_matches_exhaustive_scan_on_random_clusters(self):
        rnd = random.Random(1337)
        for _ in range(1000):
            n = rnd.randint(1, 10)
            names = [f"edge-{chr(97 + i)}" for i in range(n)]
            scores = {name: round(rnd.uniform(1.0, 99.0), 3) for name in names}
            statuses = {
                name: NodeStatus(
                    reachable=rnd.random() > 0.2,
                    system_state=CRITICAL if rnd.random() < 0.3 else PASS,
                )
                for name in names
            }
            nlm = nlm_with_scores(scores)
            eligible = [
                (scores[name], name)
                for name in names
                if statuses[name].reachable and statuses[name].system_state != CRITICAL
            ]
            if not eligible:
                with pytest.raises(AssignmentUnavailableError):
                    assign_node(statuses, "rpi-1", nlm)
                continue
            expected = min(eligible)[1]
            assert assign_node(statuses, "rpi-1", nlm) == expected


class TestVictimSelection:
    def test_highest_latest_latency_wins(self):
        profiler = ProfilerState()
        for tid, latency in [("t1", 140.0), ("t2", 160.0)]:
            profiler.register_task(tid, 150.0)
            profiler.record_inference(tid, latency, 0.0)
        assert pick_victim(profiler) == "t2"

    def test_empty_profiler_has_no_victim(self):
        assert pick_victim(ProfilerState()) is None

    def test_sampleless_tasks_skipped(self):
        profiler = ProfilerState()
        profiler.register_task("t1", 150.0)
        profiler.register_task("t2", 150.0)
        profiler.record_inference("t2", 10.0, 0.0)
        assert pick_victim(profiler) == "t2"

    def test_matches_max_scan_on_random_states(self):
        rnd = random.Random(99)
        for _ in range(1000):
            profiler = ProfilerState()
            latest = {}
            for i in range(rnd.randint(1, 8)):
                tid = f"t{i}"
                profiler.register_task(tid, 150.0)
                for _ in range(rnd.randint(0, 4)):
                    value = round(rnd.uniform(1.0, 300.0), 1)
                    profiler.record_inference(tid, value, 0.0)
                    latest[tid] = value
            if not latest:
                assert pick_victim(profiler) is None
                continue
            best = max(latest.values())
            expected = min(tid for tid, v in latest.items() if v == best)
            assert pick_victim(profiler) == expected


class TestOffloadTarget:
    def test_accounts_for_both_link_legs(self):
        nlm = nlm_with_scores(
            {"edge-a": 5.0, "edge-b": 6.0, "edge-c": 20.0},
            inter_edge_scores={("edge-a", "edge-b"): 50.0, ("edge-a", "edge-c"): 1.0},
        )
        statuses = {"edge-a": CRIT, "edge-b": HEALTHY, "edge-c": HEALTHY}
        # b wins on the device leg alone, c wins once the handover leg counts
        assert select_offload_target(statuses, "rpi-1", "edge-a", nlm) == "edge-c"

    def test_source_excluded(self):
        nlm = nlm_with_scores({"edge-a": 1.0, "edge-b": 9.0}, {("edge-a", "edge-b"): 2.0})
        statuses = {"edge-a": HEALTHY, "edge-b": HEALTHY}
        assert select_offload_target(statuses, "rpi-1", "edge-a", nlm) == "edge-b"

    def test_no_candidates_returns_none(self):
        nlm = nlm_with_scores({"edge-a": 1.0})
        statuses = {"edge-a": CRIT}
        assert select_offload_target(statuses, "rpi-1", "edge-a", nlm) is None

    def test_matches_brute_force_sum_metric(self):
        rnd = random.Random(4242)
        for _ in range(300):
            n = rnd.randint(2, 8)
            names = [f"edge-{chr(97 + i)}" for i in range(n)]
            dev = {name: round(rnd.uniform(1, 50), 2) for name in names}
            inter = {}
            for i, a in enumerate(names):
                for b in names[i + 1 :]:
                    inter[(a, b)] = round(rnd.uniform(1, 50), 2)
            statuses = {
                name: NodeStatus(rnd.random() > 0.2, CRITICAL if rnd.random() < 0.25 else PASS)
                for name in names
            }
            source = names[0]
            nlm = nlm_with_scores(dev, inter)
            candidates = [
                name
                for name in names[1:]
                if statuses[name].reachable and statuses[name].system_state != CRITICAL
            ]
            got = select_offload_target(statuses, "rpi-1", source, nlm)
            if not candidates:
                assert got is None
                continue
            pair_score = lambda a, b: inter.get((a, b), inter.get((b, a)))
            expected = min(candidates, key=lambda c: (dev[c] + pair_score(source, c), c))
            assert got == expected


def single_point_profile(name, cpu, accel):
    return DeviceProfile(
        name=name,
        accelerator_kind="GPU",
        calibration={(600, 1): (cpu, accel)},
        model_load_ms=0.0,
    )


class TestNodeWeights:
    def _nodes(self, spec):
        return {
            name: NodeRuntime(profile=single_point_profile(name, cpu, accel))
            for name, (cpu, accel) in spec.items()
        }

    def test_hand_computed_example(self):
        nodes = self._nodes({"node1": (10.0, 30.0), "node2": (20.0, 30.0)})
        nlm = nlm_with_scores({"node1": 5.0, "node2": 5.0})
        weights = node_weights(
            nodes, ["node1", "node2"], 600, "rpi-1", nlm, AllocationWeights(0.3, 0.4, 0.3)
        )
        # node2's normalized CPU term is 0.5: 0.3 * 0.5 + 0.4 + 0.3 = 0.85
        assert weights == pytest.approx({"node1": 1.0, "node2": 0.85})

    def test_identical_nodes_tie(self):
        nodes = self._nodes({"n1": (10.0, 20.0), "n2": (10.0, 20.0)})
        nlm = nlm_with_scores({"n1": 7.0, "n2": 7.0})
        weights = node_weights(nodes, ["n1", "n2"], 600, "rpi-1", nlm, AllocationWeights())
        assert weights["n1"] == pytest.approx(weights["n2"])

    def test_degenerate_coefficients_isolate_cpu(self):
        nodes = self._nodes({"slowcpu": (40.0, 10.0), "fastcpu": (10.0, 40.0)})
        nlm = nlm_with_scores({"slowcpu": 5.0, "fastcpu": 5.0})
        weights = node_weights(
            nodes, ["fastcpu", "slowcpu"], 600, "rpi-1", nlm, AllocationWeights(1.0, 0.0, 0.0)
        )
        assert weights["fastcpu"] > weights["slowcpu"]

    def test_common_scaling_cancels(self):
        for k in (1.0, 3.5):
            nodes = self._nodes({"n1": (10.0 * k, 30.0 * k), "n2": (20.0 * k, 30.0 * k)})
            nlm = nlm_with_scores({"n1": 5.0 * k, "n2": 5.0 * k})
            weights = node_weights(
                nodes, ["n1", "n2"], 600, "rpi-1", nlm, AllocationWeights(0.3, 0.4, 0.3)
            )
            assert weights == pytest.approx({"n1": 1.0, "n2": 0.85})

    def test_empty_candidates_rejected(self):
        with pytest.raises(AssignmentUnavailableError):
            node_weights({}, [], 600, "rpi-1", nlm_with_scores({}), AllocationWeights())


class TestAssignWeighted:
    def test_maximum_weight_wins(self):
        nodes = {
            "node1": NodeRuntime(profile=single_point_profile("node1", 10.0, 30.0)),
            "node2": NodeRuntime(profile=single_point_profile("node2", 20.0, 30.0)),
        }
        nlm = nlm_with_scores({"node1": 5.0, "node2": 5.0})
        statuses = {"node1": HEALTHY, "node2": HEALTHY}
        chosen = assign_weighted(nodes, statuses, 600, "rpi-1", nlm, AllocationWeights(0.3, 0.4, 0.3))
        assert chosen == "node1"

    def test_health_filter_precedes_ranking(self):
        nodes = {
            "node1": NodeRuntime(profile=single_point_profile("node1", 10.0, 30.0)),
            "node2": NodeRuntime(profile=single_point_profile("node2", 20.0, 30.0)),
        }
        nlm = nlm_with_scores({"node1": 5.0, "node2": 5.0})
        statuses = {"node1": CRIT, "node2": HEALTHY}
        chosen = assign_weighted(nodes, statuses, 600, "rpi-1", nlm, AllocationWeights(0.3, 0.4, 0.3))
        assert chosen == "node2"

    def test_ties_lexicographic(self):
        nodes = {
            "nb": NodeRuntime(profile=single_point_profile("nb", 10.0, 30.0)),
            "na": NodeRuntime(profile=single_point_profile("na", 10.0, 30.0)),
        }
        nlm = nlm_with_scores({"na": 5.0, "nb": 5.0})
        statuses = {"na": HEALTHY, "nb": HEALTHY}
        assert assign_weighted(nodes, statuses, 600, "rpi-1", nlm, AllocationWeights()) == "na"

    def test_ties_lexicographic_when_one_id_prefixes_another(self):
        nodes = {
            "node-b": NodeRuntime(profile=single_point_profile("node-b", 10.0, 30.0)),
            "node": NodeRuntime(profile=single_point_profile("node", 10.0, 30.0)),
        }
        nlm = nlm_with_scores({"node": 5.0, "node-b": 5.0})
        statuses = {"node": HEALTHY, "node-b": HEALTHY}
        assert assign_weighted(nodes, statuses, 600, "rpi-1", nlm, AllocationWeights()) == "node"


class TestAllocationWeights:
    def test_default_valid(self):
        AllocationWeights().validate()

    def test_sum_enforced(self):
        with pytest.raises(ConfigurationError):
            AllocationWeights(0.5, 0.5, 0.5).validate()

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            AllocationWeights(-0.1, 0.6, 0.5).validate()


class TestMigrationCost:
    def test_fixed_link_plus_overhead(self):
        # near-deterministic link pinned at 13 ms
        nlm = Nlm()
        nlm.add_link(
            "edge-a", "edge-b", StableParams(alpha=2.0, scale=1e-12, location=13.0), rng=np.random.default_rng(0)
        )
        cost = migration_cost_ms(nlm, "edge-a", "edge-b", 50.0)
        assert cost == pytest.approx(63.0, abs=1e-6)

    def test_degenerate_costs_vanish(self):
        nlm = Nlm(floor_ms=0.0)
        nlm.add_link(
            "edge-a", "edge-b", StableParams(alpha=2.0, scale=1e-12, location=0.0), rng=np.random.default_rng(0)
        )
        cost = migration_cost_ms(nlm, "edge-a", "edge-b", 0.0)
        assert cost == pytest.approx(0.0, abs=1e-9)

    def test_record_requires_distinct_nodes(self):
        record = MigrationRecord("t1", "edge-a", "edge-a", "system-critical", 10.0, 0.0)
        with pytest.raises(ConfigurationError):
            record.validate()
