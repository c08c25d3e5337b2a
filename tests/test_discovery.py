import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesim.discovery import ServiceRegistry, gossip_bandwidth, resolve
from edgesim.errors import ConfigurationError
from edgesim.net_model import Nlm, StableParams


def build_registry(nodes=("edge-a", "edge-b", "edge-c")):
    registry = ServiceRegistry()
    for node in nodes:
        registry.register("objd", node)
    return registry


def build_nlm(scores):
    nlm = Nlm(seed=0)
    for node, score in scores.items():
        nlm.add_link(node, "rpi-1", StableParams(alpha=2.0, scale=0.01, location=score))
        nlm.observe(node, "rpi-1", score, 0.0)
    return nlm


class TestResolve:
    def test_all_healthy(self):
        registry = build_registry()
        nlm = build_nlm({"edge-a": 12.0, "edge-b": 10.0, "edge-c": 11.0})
        reachable = {n: True for n in ("edge-a", "edge-b", "edge-c")}
        assert resolve(registry, "objd", "rpi-1", nlm, reachable) == [
            "edge-b",
            "edge-c",
            "edge-a",
        ]

    def test_critical_node_filtered(self):
        registry = build_registry()
        registry.set_health("objd", "edge-b", False)
        nlm = build_nlm({"edge-a": 12.0, "edge-b": 10.0, "edge-c": 11.0})
        reachable = {n: True for n in ("edge-a", "edge-b", "edge-c")}
        assert resolve(registry, "objd", "rpi-1", nlm, reachable) == ["edge-c", "edge-a"]

    def test_unreachable_node_filtered(self):
        registry = build_registry()
        nlm = build_nlm({"edge-a": 12.0, "edge-b": 10.0, "edge-c": 11.0})
        reachable = {"edge-a": True, "edge-b": False, "edge-c": True}
        assert resolve(registry, "objd", "rpi-1", nlm, reachable) == ["edge-c", "edge-a"]

    def test_all_unhealthy_resolves_empty(self):
        registry = build_registry()
        for node in ("edge-a", "edge-b", "edge-c"):
            registry.set_health("objd", node, False)
        nlm = build_nlm({"edge-a": 12.0, "edge-b": 10.0, "edge-c": 11.0})
        reachable = {n: True for n in ("edge-a", "edge-b", "edge-c")}
        assert resolve(registry, "objd", "rpi-1", nlm, reachable) == []

    def test_unknown_service_is_empty_not_error(self):
        registry = build_registry()
        nlm = build_nlm({"edge-a": 12.0})
        assert resolve(registry, "nope", "rpi-1", nlm, {"edge-a": True}) == []

    def test_ties_break_lexicographically(self):
        registry = build_registry(("edge-b", "edge-a"))
        nlm = build_nlm({"edge-a": 10.0, "edge-b": 10.0})
        reachable = {"edge-a": True, "edge-b": True}
        assert resolve(registry, "objd", "rpi-1", nlm, reachable) == ["edge-a", "edge-b"]

    def test_deterministic_for_equal_state(self):
        registry = build_registry()
        nlm = build_nlm({"edge-a": 12.0, "edge-b": 10.0, "edge-c": 11.0})
        reachable = {n: True for n in ("edge-a", "edge-b", "edge-c")}
        runs = {tuple(resolve(registry, "objd", "rpi-1", nlm, reachable)) for _ in range(5)}
        assert len(runs) == 1

    def test_health_change_is_visible_to_the_next_query(self):
        registry = ServiceRegistry()
        registry.register("objd", "edge-a")
        registry.set_health("objd", "edge-a", False)
        assert registry.nodes_for("objd") == [("edge-a", "unhealthy")]
        registry.set_health("objd", "edge-a", True)
        assert registry.dump() == [{"service": "objd", "node": "edge-a", "status": "healthy"}]


class TestGossipBandwidth:
    def test_reported_control_plane_budget(self):
        # 13.672-byte messages at a 0.015 ms interval
        assert gossip_bandwidth(13.672, 1.5e-5) == pytest.approx(7291.7, rel=1e-3)

    def test_zero_message(self):
        assert gossip_bandwidth(0.0, 1.0) == 0.0

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            gossip_bandwidth(10.0, 0.0)

    @given(size=st.floats(0, 1e6), interval=st.floats(1e-9, 1e3))
    @settings(max_examples=200)
    def test_linearity(self, size, interval):
        single = gossip_bandwidth(size, interval)
        assert gossip_bandwidth(2 * size, interval) == pytest.approx(2 * single, rel=1e-12)
