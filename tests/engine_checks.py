"""Cross-cutting report validators shared by engine and acceptance tests."""

from __future__ import annotations

from edgesim.sim_engine import DecisionTable, FrameTable, MetricsReport, Simulation

_EPS = 1e-9


def table_of(records) -> FrameTable:
    """A frame table holding ``records``, in order."""
    table = FrameTable()
    for record in records:
        table.append(*vars(record).values())
    return table


def decisions_of(rows) -> DecisionTable:
    """A decision table holding ``rows``, dicts with its five keys, in order."""
    table = DecisionTable()
    for row in rows:
        table.append(*map(row.__getitem__, table.FIELDS))
    return table


def check_frame_identities(report: MetricsReport) -> None:
    """Each frame's end-to-end time equals the sum of its parts."""
    for f in report.frames:
        total = f.net_out_ms + f.queueing_ms + f.processing_ms + f.net_back_ms
        assert abs(f.e2e_ms - total) <= _EPS, f
        assert abs(f.processing_ms - (f.cpu_ms + f.accel_ms + f.model_load_ms)) <= _EPS, f
        assert f.completed_at >= f.emitted_at


def check_counters_recompute(report: MetricsReport) -> None:
    """Counters must equal recomputation from the per-frame records."""
    c = report.counters
    assert c["frames_completed"] == len(report.frames)
    violations = sum(1 for f in report.frames if f.e2e_ms > f.qos_ms)
    assert c["qos_violations"] == violations
    completed_migrations = sum(1 for m in report.migrations if m.completed_at is not None)
    assert c["migrations"] == completed_migrations
    failures = report.decision_log.columns["kind"].count("assign-failed")
    assert c["assignment_failures"] == failures


def check_conservation(report: MetricsReport) -> None:
    c = report.counters
    assert (
        c["frames_generated"]
        == c["frames_completed"] + c["frames_in_flight_at_end"] + c["assignment_failures"]
    )
    assert c["frames_in_flight_at_end"] >= 0


def downtime_windows(report: MetricsReport) -> dict[str, list[tuple[float, float]]]:
    """Per node, the half-open intervals in which it was unavailable.

    Opens and closes of one kind nest: a window runs from the open that
    takes a node's depth from 0 to 1 until the close that takes it back
    to 0, so an inner window's end does not end an outer one.
    """
    windows: dict[str, list[tuple[float, float]]] = {}
    depth: dict[tuple[str, str], int] = {}
    opened_at: dict[tuple[str, str], float] = {}
    pairing = {"quarantine": "release", "fault-start": "fault-end"}
    closers = {v: k for k, v in pairing.items()}
    for event in report.node_events:
        node, kind, t = event["node"], event["event"], event["t"]
        if kind in pairing:
            key = (node, kind)
            if depth.get(key, 0) == 0:
                opened_at[key] = t
            depth[key] = depth.get(key, 0) + 1
        elif kind in closers and depth.get((node, closers[kind]), 0) > 0:
            key = (node, closers[kind])
            depth[key] -= 1
            if depth[key] == 0:
                windows.setdefault(node, []).append((opened_at.pop(key), t))
    for (node, _), start in opened_at.items():
        windows.setdefault(node, []).append((start, report.duration_s + 1.0))
    return windows


def critical_windows(report: MetricsReport) -> dict[str, list[tuple[float, float]]]:
    """Per node, intervals in which its system state was critical."""
    windows: dict[str, list[tuple[float, float]]] = {}
    open_since: dict[str, float] = {}
    for tr in report.health_transitions:
        if tr["scope"] != "system":
            continue
        node = tr["node"]
        if tr["to"] == "critical":
            open_since[node] = tr["t"]
        elif node in open_since:
            windows.setdefault(node, []).append((open_since.pop(node), tr["t"]))
    for node, start in open_since.items():
        windows.setdefault(node, []).append((start, report.duration_s + 1.0))
    return windows


def check_no_dispatch_to_unavailable(report: MetricsReport) -> None:
    """No frame may leave for a node that was quarantined, faulted, or
    system-critical at its dispatch instant (managed runs)."""
    assert report.counters["frames_dispatched_to_unavailable"] == 0
    down = downtime_windows(report)
    crit = critical_windows(report)
    for f in report.frames:
        for start, end in down.get(f.dispatched_to, []):
            assert not (start + _EPS < f.dispatched_at < end - _EPS), (f, start, end)
        for start, end in crit.get(f.dispatched_to, []):
            assert not (start + _EPS < f.dispatched_at < end - _EPS), (f, start, end)


def check_one_victim_per_critical_node_per_epoch(report: MetricsReport) -> None:
    """Health-triggered offloads move at most one instance per node per
    epoch; mass evacuation is reserved for hard faults."""
    fault_windows = {
        node: spans
        for node, spans in downtime_windows(report).items()
    }
    fault_events = {
        (e["node"], e["t"]) for e in report.node_events if e["event"] == "fault-start"
    }
    seen: dict[tuple[float, str], int] = {}
    for m in report.migrations:
        key = (m.decided_at, m.from_node)
        seen[key] = seen.get(key, 0) + 1
    for (t, node), count in seen.items():
        faulted = any(
            start <= t < end
            for start, end in fault_windows.get(node, [])
            if (node, start) in fault_events
        )
        if not faulted:
            assert count <= 1, (t, node, count)


def check_task_placement(sim: Simulation) -> None:
    """A task hosted on a node is in its ``active_tasks`` and its profiler,
    and has no migration in flight; a task with one in flight has no host."""
    for name, node in sim.nodes.items():
        assert set(node.active_tasks) == set(sim.profilers[name].task_ids()), name
        for tid in node.active_tasks:
            ts = sim.tasks[tid]
            assert ts.task.host_node == name, (tid, name, ts.task.host_node)
            assert ts.migration is None, (tid, ts.migration)
    for tid, ts in sim.tasks.items():
        if ts.migration is not None:
            assert ts.task.host_node is None, (tid, ts.task.host_node)


def check_placement_after_every_entry(monkeypatch) -> None:
    """Make every ``Simulation`` run ``check_task_placement`` after each
    entry it handles."""
    handle = Simulation._handle

    def checked(sim, time, handler, args):
        handle(sim, time, handler, args)
        check_task_placement(sim)

    monkeypatch.setattr(Simulation, "_handle", checked)


def check_report(report: MetricsReport) -> None:
    check_frame_identities(report)
    check_counters_recompute(report)
    check_conservation(report)
    check_one_victim_per_critical_node_per_epoch(report)
    if report.offloading_enabled:
        check_no_dispatch_to_unavailable(report)
