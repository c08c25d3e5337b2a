"""The benchmark's synthetic cluster workloads and their shape checks.

Every workload cycles the three calibrated boards of
``presets.default_profiles()``, so no calibration data is invented. The
only input that varies with the benchmark seed is the simulation seed;
the cluster shape is fixed, so every seed asks for the same kind of work.

Why these three:

- ``stream-steady``: few nodes, many frames. The per-frame path
  dominates (two link draws per frame, the latency surface with an
  off-grid 800 px size, the profiler, an up-front event queue of every
  emission, a large frames table in the report). Epoch probes are light.
- ``cluster-scale``: many nodes, few frames. Every health epoch probes
  every link, so the stable-law sampler and the link matrix dominate;
  the frame path and report writing are nearly idle.
- ``control-churn``: sustained overload under the weighted policy with
  node faults, so placement, offload-target and victim selection,
  migrations, quarantines, discovery and decision digests all run.
"""

from __future__ import annotations

import dataclasses

from edgesim import presets
from edgesim.scenario import EndDevice, FaultSpec, Scenario

#: Share of generated frames that must complete, per workload, for the
#: run to count as the shape it was chosen for.
MIN_COMPLETED_SHARE = {"stream-steady": 0.90, "cluster-scale": 0.90}

#: Workloads that must complete frames in every tenth of the run.
LIVE_EVERY_TENTH = ("control-churn",)


def _nodes(count: int) -> list:
    boards = presets.default_profiles()
    return [
        dataclasses.replace(boards[i % len(boards)], name=f"edge-{i:02d}")
        for i in range(count)
    ]


def _streams(count: int, shapes: list[tuple[int, float, float]]) -> list[EndDevice]:
    """``count`` streams cycling (frame_size_px, fps, qos_ms) shapes."""
    out = []
    for j in range(count):
        size, fps, qos = shapes[j % len(shapes)]
        out.append(EndDevice(id=f"cam-{j:03d}", fps=fps, frame_size_px=size, qos_ms=qos))
    return out


def stream_steady() -> Scenario:
    # Rates and budgets leave room for four instances on any board, so no
    # seed tips the cluster into cascading quarantines. At 8/6/4 fps with
    # 200/250/300 ms budgets some seeds lock most nodes in quarantine.
    scenario = Scenario()
    scenario.devices = _nodes(6)
    scenario.end_devices = _streams(9, [(600, 4.0, 280.0), (800, 3.0, 350.0), (1200, 2.0, 400.0)])
    scenario.sim.duration_s = 1200.0
    return scenario


def cluster_scale() -> Scenario:
    scenario = Scenario()
    scenario.devices = _nodes(48)
    scenario.end_devices = _streams(96, [(600, 0.5, 400.0), (1200, 0.5, 500.0)])
    scenario.sim.duration_s = 40.0
    return scenario


def control_churn() -> Scenario:
    scenario = Scenario()
    scenario.devices = _nodes(16)
    scenario.end_devices = _streams(
        36,
        [(600, 4.0, 160.0), (800, 3.0, 180.0), (1000, 3.0, 200.0), (1200, 2.0, 220.0)],
    )
    scenario.orchestrator.policy = "weighted"
    scenario.faults = [
        FaultSpec(node_id="edge-01", at_s=60.0, duration_s=30.0),
        FaultSpec(node_id="edge-06", at_s=140.0, duration_s=30.0),
        FaultSpec(node_id="edge-11", at_s=220.0, duration_s=30.0),
    ]
    scenario.sim.duration_s = 300.0
    return scenario


BUILDERS = {
    "stream-steady": stream_steady,
    "cluster-scale": cluster_scale,
    "control-churn": control_churn,
}


def build(workload: str, seed: int) -> Scenario:
    """The scenario of a workload, seeded from the benchmark seed."""
    scenario = BUILDERS[workload]()
    scenario.sim.seed = seed % 2**64
    return scenario


def shape_errors(workload: str, report: dict) -> list[str]:
    """Reasons the run no longer has the shape the workload was chosen for."""
    counters = report["counters"]
    generated = counters["frames_generated"]
    completed = counters["frames_completed"]
    errors = []
    floor = MIN_COMPLETED_SHARE.get(workload)
    if floor is not None and completed < floor * generated:
        errors.append(f"only {completed} of {generated} frames completed (floor {floor:.0%})")
    if workload in LIVE_EVERY_TENTH:
        duration = report["duration_s"]
        tenths = [0] * 10
        for frame in report["frames"]:
            tenths[min(int(frame["completed_at"] / duration * 10), 9)] += 1
        idle = [i for i, n in enumerate(tenths) if n == 0]
        if idle:
            errors.append(f"no frame completed in tenth(s) {idle} of the run")
    return errors
