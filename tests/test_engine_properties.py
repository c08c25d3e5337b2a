"""Engine invariants and output relations over randomly generated small
scenarios."""

import copy
import dataclasses
import io

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from edgesim import presets
from edgesim.cli import write_decisions_log, write_frames_csv, write_report_json
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


def outputs(scenario) -> dict[str, str]:
    """The text of ``report.json``, ``frames.csv`` and ``decisions.log``
    of one run of ``scenario``."""
    report = Simulation(scenario).run()
    writers = {
        "report.json": write_report_json,
        "frames.csv": write_frames_csv,
        "decisions.log": lambda report, handle: write_decisions_log(report.decision_log, handle),
    }
    texts = {}
    for name, write in writers.items():
        handle = io.StringIO()
        write(report, handle)
        texts[name] = handle.getvalue()
    return texts


def check_output_relations(scenario):
    """Two relations between runs that must hold for every scenario.

    Stream isolation: one more end device, starting as the run ends, emits
    nothing, so it changes no frame and no decision, though its links are
    drawn at every epoch. Its id sorts before every other id, so its links
    are numbered ahead of the other end devices' links: a link's stream
    must come from its endpoints, not from its number.

    Input-order invariance: the order of ``devices``, ``end_devices`` and
    ``faults`` is not part of a scenario's meaning, so reversing them
    changes no byte of any output.
    """
    base = outputs(scenario)

    late = copy.deepcopy(scenario)
    assert all(d.id > "aa-late" for d in late.end_devices)
    late.end_devices.append(
        EndDevice(id="aa-late", fps=1.0, frame_size_px=600, qos_ms=150.0, start_s=late.sim.duration_s)
    )
    isolated = outputs(late)
    assert isolated["report.json"] != base["report.json"]  # it has the device's links
    for name in ("frames.csv", "decisions.log"):
        assert isolated[name] == base[name], name

    flipped = copy.deepcopy(scenario)
    for items in (flipped.devices, flipped.end_devices, flipped.faults):
        items.reverse()
    assert outputs(flipped) == base


@pytest.mark.parametrize(
    "preset", [presets.default_scenario, presets.overload_scenario, presets.fault_scenario]
)
def test_output_relations_hold_on_presets(preset):
    scenario = preset()
    scenario.sim.seed = 1
    check_output_relations(scenario)


@given(scenario=small_scenarios())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_output_relations_hold_on_random_scenarios(scenario):
    assume(not overlapping_faults(scenario.faults))
    check_output_relations(scenario)
