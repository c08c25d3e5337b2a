"""Engine invariants over randomly generated small scenarios."""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgesim import presets
from edgesim.discovery import UNHEALTHY
from edgesim.errors import ConfigurationError
from edgesim.orchestrator import POLICIES
from edgesim.profiler_health import CRITICAL
from edgesim.scenario import EndDevice, FaultSpec, Scenario
from edgesim.sim_engine import Simulation

from engine_checks import check_placement_after_every_entry, check_report


@st.composite
def small_scenarios(draw):
    """1-4 nodes cycling the preset boards, 1-4 streams, both policies,
    offloading on or off, 0-3 faults (some overlapping on one node), at
    most 20 s."""
    boards = presets.default_profiles()
    n_nodes = draw(st.integers(1, 4))
    scenario = Scenario()
    scenario.devices = [
        dataclasses.replace(boards[i % len(boards)], name=f"{boards[i % len(boards)].name}-{i}")
        for i in range(n_nodes)
    ]
    scenario.end_devices = [
        EndDevice(
            id=f"dev-{i}",
            fps=draw(st.sampled_from([0.5, 1.0, 2.0, 5.0])),
            frame_size_px=draw(st.sampled_from([600, 900, 1200])),
            qos_ms=draw(st.sampled_from([100.0, 150.0, 250.0, 400.0])),
            start_s=draw(st.sampled_from([0.0, 0.5, 3.0])),
        )
        for i in range(draw(st.integers(1, 4)))
    ]
    duration = draw(st.sampled_from([2.0, 7.5, 20.0]))
    scenario.sim.duration_s = duration
    scenario.sim.seed = draw(st.integers(0, 2**32))
    scenario.orchestrator.policy = draw(st.sampled_from(POLICIES))
    scenario.orchestrator.offloading_enabled = draw(st.booleans())
    scenario.faults = [
        FaultSpec(
            node_id=draw(st.sampled_from([d.name for d in scenario.devices])),
            at_s=draw(st.floats(0.0, duration)),
            duration_s=draw(st.floats(0.0, duration)),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    return scenario


def overlapping_faults(faults) -> bool:
    """Whether two non-empty fault windows on one node share an instant."""
    windows: dict[str, list[tuple[float, float]]] = {}
    for f in faults:
        if f.at_s + f.duration_s > f.at_s:
            windows.setdefault(f.node_id, []).append((f.at_s, f.at_s + f.duration_s))
    for spans in windows.values():
        spans.sort()
        if any(later[0] < earlier[1] for earlier, later in zip(spans, spans[1:])):
            return True
    return False


@given(scenario=small_scenarios())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_engine_invariants_hold_on_random_scenarios(scenario):
    if overlapping_faults(scenario.faults):
        # one fault flag per node cannot represent nested windows
        with pytest.raises(ConfigurationError, match=r"faults\[\d\]: overlaps faults\[\d\]"):
            Simulation(scenario)
        return
    sim = Simulation(scenario)
    with pytest.MonkeyPatch.context() as mp:
        check_placement_after_every_entry(mp)
        report = sim.run()
    check_report(report)

    # a health change is visible to discovery at once: a node advertises
    # as unhealthy exactly while its system state is critical
    for entry in report.registry_dump:
        critical = sim.health[entry["node"]].system_state == CRITICAL
        assert (entry["status"] == UNHEALTHY) == critical, entry

    assert Simulation(scenario).run().to_dict() == report.to_dict()
