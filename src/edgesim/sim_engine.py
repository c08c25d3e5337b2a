"""Deterministic discrete-event core.

One single-threaded event loop per run: frame arrivals from end-device
streams, per-instance service on the hosting node, periodic health
epochs driving the offload loop, fault windows, and metrics capture.
Runs are bit-reproducible for a fixed (scenario, seed): random streams
are split per purpose (one per link) from the master seed, so changes in
one component never perturb another's draws.
"""

from __future__ import annotations

import heapq
import itertools
import math
import typing
from array import array
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field, fields

import numpy as np

# numpy 2 loads numpy.random (about 16 ms) on first use, and the link table
# draws on a PCG64: imported with the engine, it stays out of a run's
# setup. Importing it from net_model instead, ahead of the package's other
# modules, raised stream-steady's peak RSS by 0.6 MB.
import numpy.random  # noqa: F401

from . import discovery
from .device_model import (
    InferenceTask,
    NodeRuntime,
    admit_task,
    preload_model,
    remove_task,
    service_request,
)
from .errors import AssignmentUnavailableError, ConfigurationError
from .net_model import Nlm
from .orchestrator import (
    DIGEST_CHARS,
    POLICY_WEIGHTED,
    TRIGGER_APP,
    TRIGGER_SYSTEM,
    MigrationRecord,
    NodeStatus,
    assign_node,
    assign_weighted,
    decision_digest,
    migration_cost_ms,
    pick_victim,
    select_offload_target,
)
from .profiler_health import (
    CRITICAL,
    PASS,
    HealthState,
    ProfilerState,
    classify,
    evaluate_health,
    merge_since,
)
from .scenario import EndDevice, Scenario, _decoded, is_seed

__all__ = [
    "EndDevice",
    "DecisionTable",
    "FrameRecord",
    "FrameTable",
    "MetricsReport",
    "Simulation",
    "run",
]

_TIME_EPS = 1e-9


def _emits(start_s: float, fps: float, k: int, duration_s: float) -> bool:
    """Whether a stream's k-th frame, at start + k / fps, falls inside the run."""
    return start_s + k / fps < duration_s - _TIME_EPS


def _frame_count(start_s: float, fps: float, duration_s: float) -> int:
    """The number of frames a stream emits: the first k that ``_emits``
    rejects.

    ``_emits`` is monotone in k, because ``k / fps`` and ``start + x``
    both round monotonically, so stepping from the real-valued count to
    where the test turns gives exactly that k in a few steps.
    """
    k = max(0, math.ceil((duration_s - _TIME_EPS - start_s) * fps))
    while _emits(start_s, fps, k, duration_s):
        k += 1
    while k > 0 and not _emits(start_s, fps, k - 1, duration_s):
        k -= 1
    return k


@dataclass
class _Frame:
    frame_id: int
    ts: _TaskState
    emitted_at: float
    dispatched_at: float | None = None
    dispatched_to: str | None = None
    arrived_at: float | None = None
    node: str | None = None
    engine_wait_ms: float = 0.0
    queue_node_ms: float = 0.0
    net_out_ms: float = 0.0
    outcome: tuple[int, float, float, float, float] | None = None


@dataclass
class _TaskState:
    task: InferenceTask
    device: EndDevice
    emit_rank: int  # the queue rank of every emission of the stream
    queue: deque = field(default_factory=deque)
    busy_frame: _Frame | None = None
    migration: MigrationRecord | None = None


@dataclass(frozen=True)
class FrameRecord:
    """One completed frame, all durations in ms."""

    frame_id: int
    task_id: str
    end_device: str
    node: str
    dispatched_to: str
    frame_size_px: int
    n_instances: int
    qos_ms: float
    emitted_at: float
    dispatched_at: float
    completed_at: float
    net_out_ms: float
    queueing_ms: float
    cpu_ms: float
    accel_ms: float
    model_load_ms: float
    processing_ms: float
    net_back_ms: float
    e2e_ms: float
    state: str


class ColumnTable(Sequence):
    """Rows as columns, one per ``FIELDS`` name, each made by ``_column``. An
    item is ``_row`` of a row's values (a dict by default); a slice, a list."""

    FIELDS: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.columns: dict[str, Sequence] = {name: self._column(name) for name in self.FIELDS}
        self._appends = tuple(column.append for column in self.columns.values())

    def _row(self, *values: object) -> object:
        return dict(zip(self.FIELDS, values))

    def append(self, *values: object) -> None:
        """Add one row: a value per field, in field order."""
        for add, value in zip(self._appends, values):
            add(value)

    def __len__(self) -> int:
        return len(self.columns[self.FIELDS[0]])

    def __getitem__(self, index: int | slice) -> object:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return self._row(*(column[index] for column in self.columns.values()))

    def __iter__(self) -> Iterator:
        return map(self._row, *self.columns.values())


class FrameTable(ColumnTable):
    """Completed frames as columns, one per ``FrameRecord`` field, typed by
    its annotation: ``array('q')`` for an int, ``array('d')`` for a float
    and a list for a str."""

    FIELDS = tuple(f.name for f in fields(FrameRecord))
    _TYPES = typing.get_type_hints(FrameRecord)
    _row = FrameRecord

    @classmethod
    def _column(cls, name: str) -> Sequence:
        code = {int: "q", float: "d"}.get(cls._TYPES[name])
        return [] if code is None else array(code)

    def sort(self) -> None:
        """Order the rows by ``(completed_at, frame_id)`` in place, one
        column at a time, so no more than one column is ever copied."""
        columns = self.columns
        # the last key is the primary one
        order = np.lexsort([_view(columns["frame_id"]), _view(columns["completed_at"])])
        for column in columns.values():
            if type(column) is array:
                view = _view(column)
                view[:] = view[order]
            else:
                # a memoryview yields the positions as ints one at a time,
                # without a list of them all
                column[:] = [column[i] for i in memoryview(order)]


def _view(column: array) -> np.ndarray:
    """A typed column as a numpy array sharing its memory. The column cannot
    grow while the view is alive."""
    return np.frombuffer(column, dtype=column.typecode)


class _Digests(Sequence):
    """Digests packed into one bytearray, ``DIGEST_CHARS`` ASCII bytes each, read back as ``str``."""

    def __init__(self) -> None:
        self._bytes = bytearray()

    def append(self, digest: str) -> None:
        data = digest.encode("ascii")
        if len(data) != DIGEST_CHARS:
            raise ValueError(f"a digest is {DIGEST_CHARS} ASCII characters, got {digest!r}")
        self._bytes += data

    def __len__(self) -> int:
        return len(self._bytes) // DIGEST_CHARS

    def __getitem__(self, index: int | slice) -> str | list[str]:
        rows, width = range(len(self))[index], DIGEST_CHARS
        if type(rows) is int:
            return self._bytes[rows * width : (rows + 1) * width].decode()
        if rows.step != 1:
            return [self[i] for i in rows]
        text = self._bytes[rows.start * width : rows.stop * width].decode()
        return [text[i : i + width] for i in range(0, len(text), width)]


class DecisionTable(ColumnTable):
    """The decision log as columns: lists that keep the objects they are
    given, and the digests packed. An item is the dict ``to_dict()`` holds."""

    FIELDS = ("t", "kind", "digest", "decision", "reason")

    @staticmethod
    def _column(name: str) -> Sequence:
        return _Digests() if name == "digest" else []


@dataclass
class MetricsReport:
    """Everything a run emits; serializable and deterministic."""

    seed: int
    policy: str
    offloading_enabled: bool
    duration_s: float
    frames: FrameTable
    migrations: list[MigrationRecord]
    counters: dict
    instance_series: dict[str, list[tuple[float, int]]]
    utilization: dict[str, float]
    breakdown: list[dict]
    health_transitions: list[dict]
    node_events: list[dict]
    decision_log: DecisionTable
    nlm_snapshot: dict
    registry_dump: list[dict]
    gossip_kbps_per_node: float

    def sections(self) -> dict:
        """The top-level sections of ``to_dict()``, except that ``frames`` and
        ``decision_log`` are the tables, whose columns a writer formats."""
        return {
            "seed": self.seed,
            "policy": self.policy,
            "offloading_enabled": self.offloading_enabled,
            "duration_s": self.duration_s,
            "counters": dict(sorted(self.counters.items())),
            "gossip_kbps_per_node": self.gossip_kbps_per_node,
            "frames": self.frames,
            "migrations": [dict(vars(m)) for m in self.migrations],
            "instance_series": {k: [list(p) for p in v] for k, v in sorted(self.instance_series.items())},
            "utilization": dict(sorted(self.utilization.items())),
            "breakdown": self.breakdown,
            "health_transitions": self.health_transitions,
            "node_events": self.node_events,
            "decision_log": self.decision_log,
            "nlm": self.nlm_snapshot,
            "registry": self.registry_dump,
        }

    def to_dict(self) -> dict:
        frames = [dict(vars(f)) for f in self.frames]
        return {**self.sections(), "frames": frames, "decision_log": list(self.decision_log)}


class Simulation:
    """One deterministic run of a scenario."""

    def __init__(self, scenario: Scenario, seed: int | None = None):
        # the run reads only its decoded copy, which runs as its saved file does
        scenario, errors = _decoded(scenario)
        if errors:
            raise ConfigurationError("invalid scenario:\n  " + "\n  ".join(errors))
        self.scenario = scenario
        seed = scenario.sim.seed if seed is None else seed
        if not is_seed(seed):
            raise ConfigurationError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
        self.seed = int(seed)
        self.now = 0.0
        self._frame_ids = itertools.count()
        # entries are (time, rank, handler, args) and pop in (time, rank)
        # order; no two entries share both, so handlers are never compared.
        # An entry drawing its rank from _ranks pops after every entry
        # already scheduled at its instant
        self._ranks = itertools.count()
        self._queue: list[tuple[float, int, Callable[..., None], tuple]] = []

        orch = scenario.orchestrator
        self.policy = orch.policy
        self.offloading = orch.offloading_enabled
        self.warn_fraction = orch.warn_fraction
        self.critical_fraction = orch.critical_fraction

        self.nodes: dict[str, NodeRuntime] = {}
        self.profilers: dict[str, ProfilerState] = {}
        self.health: dict[str, HealthState] = {}
        self._ok_since: dict[str, float | None] = {}
        self.tasks: dict[str, _TaskState] = {}
        # at most one undispatched frame per task: a live stream's stale
        # frames are superseded by newer ones, never replayed as a burst
        self.pending: dict[str, _Frame] = {}
        self.records = FrameTable()
        self.migrations: list[MigrationRecord] = []
        self.decision_log = DecisionTable()
        self.health_transitions: list[dict] = []
        self.node_events: list[dict] = []
        self.instance_series: dict[str, list[tuple[float, int]]] = {}
        self.busy_ms: dict[str, float] = {}
        self.counters = {
            "frames_generated": 0,
            "frames_completed": 0,
            "qos_violations": 0,
            "migrations": 0,
            "assignment_failures": 0,
            "failed_offloads": 0,
            "deferred_frames": 0,
            "frames_dispatched_to_unavailable": 0,
        }
        self._finished = False

        self.services = sorted({d.service for d in scenario.end_devices})
        net = scenario.network
        self.nlm = Nlm(net.ema_weights, net.floor_ms, net.link_budget_ms, seed=self.seed)
        self.registry = discovery.ServiceRegistry()
        self._setup()

    # -- construction -------------------------------------------------

    def _setup(self) -> None:
        scenario = self.scenario
        for profile in sorted(scenario.devices, key=lambda p: p.name):
            self.nodes[profile.name] = NodeRuntime(profile=profile)
            self.profilers[profile.name] = ProfilerState()
            self.health[profile.name] = HealthState(app_states={}, system_state=PASS)
            self._ok_since[profile.name] = 0.0
            self.instance_series[profile.name] = [(0.0, 0)]
            self.busy_ms[profile.name] = 0.0
            for service in self.services:
                self.registry.register(service, profile.name)
                if scenario.sim.preload_models:
                    preload_model(self.nodes[profile.name], service)

        node_names = sorted(self.nodes)
        net = scenario.network
        links = [(a, b, net.edge_edge) for i, a in enumerate(node_names) for b in node_names[i + 1 :]]
        links += [
            (name, device.id, net.edge_device)
            for device in sorted(scenario.end_devices, key=lambda d: d.id)
            for name in node_names
        ]
        self.nlm.add_links(links)

        # prime every link with one probe so the matrix is total from t=0
        self.nlm.probe_all(0.0)

        # fault transitions first: at a shared instant the unavailability
        # window [at, at + duration) must already be in force for emissions
        # and epochs. A window whose end rounds to its start holds no
        # instant; its end would clear the fault of a window starting with it
        for fault in sorted(scenario.faults, key=lambda f: (f.at_s, f.node_id)):
            end = fault.at_s + fault.duration_s
            if end > fault.at_s:
                self._schedule(fault.at_s, next(self._ranks), self._on_fault, fault.node_id, "start")
                self._schedule(end, next(self._ranks), self._on_fault, fault.node_id, "end")

        # One pending emission per stream and one pending epoch: each
        # schedules the next. All of a stream's emissions share one rank,
        # drawn here in device-id order, and all epochs the next one, so at
        # a shared instant the fault transitions run first, then the
        # emissions in device-id order (also the frame-id order), the epoch,
        # the run end and every entry scheduled later.
        duration = scenario.sim.duration_s
        for device in sorted(scenario.end_devices, key=lambda d: d.id):
            task = InferenceTask(
                task_id=f"task-{device.id}",
                frame_size_px=device.frame_size_px,
                qos_ms=device.qos_ms,
                service=device.service,
            )
            ts = self.tasks[task.task_id] = _TaskState(task, device, next(self._ranks))
            n_frames = _frame_count(device.start_s, device.fps, duration)
            self.counters["frames_generated"] += n_frames
            if n_frames:
                self._schedule(device.start_s, ts.emit_rank, self._on_emit, ts, 0)

        self._epoch_rank = next(self._ranks)
        self._schedule_epoch(1)
        self._schedule(duration, next(self._ranks), self._on_run_end)

    def _schedule(self, time: float, rank: int, handler: Callable[..., None], *args) -> None:
        heapq.heappush(self._queue, (time, rank, handler, args))

    # -- status helpers -----------------------------------------------

    def _statuses(self) -> dict[str, NodeStatus]:
        return {
            name: NodeStatus(node.reachable, self.health[name].system_state)
            for name, node in self.nodes.items()
        }

    def _dispatchable(self, name: str) -> bool:
        """Per-frame gate: managed clusters hold traffic from critical
        nodes; the unmanaged baseline only stops at hard faults."""
        if not self.nodes[name].reachable:
            return False
        return not self.offloading or self.health[name].system_state != CRITICAL

    def _log(self, kind: str, decision: str, reason: str, inputs: dict) -> None:
        self.decision_log.append(self.now, kind, decision_digest(inputs), decision, reason)

    # -- event loop ----------------------------------------------------

    def run(self) -> MetricsReport:
        while self._queue and not self._finished:
            time, _, handler, args = heapq.heappop(self._queue)
            self._handle(time, handler, args)
        return self._report()

    def _handle(self, time: float, handler: Callable[..., None], args: tuple) -> None:
        """Run one popped entry: advance the clock to it, then its handler."""
        if time < self.now - _TIME_EPS:
            raise AssertionError(f"event at t={time} precedes clock t={self.now}")
        self.now = max(self.now, time)
        handler(*args)

    def _on_run_end(self) -> None:
        self._finished = True

    # -- frame path ----------------------------------------------------

    def _on_emit(self, ts: _TaskState, k: int) -> None:
        """Emit the stream's k-th frame, at start + k / fps, and schedule
        the next one if it falls inside the run."""
        device = ts.device
        frame = _Frame(next(self._frame_ids), ts, device.start_s + k / device.fps)
        if _emits(device.start_s, device.fps, k + 1, self.scenario.sim.duration_s):
            self._schedule(device.start_s + (k + 1) / device.fps, ts.emit_rank, self._on_emit, ts, k + 1)
        if ts.task.host_node is None and ts.migration is None:
            self._try_assign(ts)
        self._dispatch_or_defer(frame)

    def _try_assign(self, ts: _TaskState) -> str | None:
        """Session establishment: resolve the service, pick a node, admit."""
        statuses = self._statuses()
        reachable = {name: s.reachable for name, s in statuses.items()}
        candidates = discovery.resolve(self.registry, ts.task.service, ts.device.id, self.nlm, reachable)
        # placement filters health itself: the registry's flags come from the
        # same system states, so it keeps exactly the nodes resolved here
        chosen = self._place(ts, statuses)
        if chosen is None:
            return None
        admit_task(self.nodes[chosen], ts.task)
        self.profilers[chosen].register_task(ts.task.task_id, ts.task.qos_ms)
        self._record_instances(chosen)
        self._log(
            "assign",
            chosen,
            "initial-provisioning",
            {"task": ts.task.task_id, "candidates": candidates, "policy": self.policy},
        )
        return chosen

    def _dispatch_or_defer(self, frame: _Frame) -> None:
        ts = frame.ts
        host = ts.task.host_node
        if ts.migration is None and host is not None and self._dispatchable(host):
            self._dispatch(frame)
            return
        self.counters["deferred_frames"] += 1
        superseded = self.pending.get(ts.task.task_id)
        if superseded is not None:
            self._fail_frame(superseded, "superseded-by-newer-frame")
        self.pending[ts.task.task_id] = frame

    def _dispatch(self, frame: _Frame) -> None:
        host = frame.ts.task.host_node
        if not self._dispatchable(host):
            # engine invariant: never dispatch to an unavailable node
            raise AssertionError(f"dispatch of frame {frame.frame_id} to unavailable node {host!r}")
        frame.dispatched_at = self.now
        frame.dispatched_to = host
        frame.engine_wait_ms = (self.now - frame.emitted_at) * 1000.0
        frame.net_out_ms = self.nlm.sample_and_observe(host, frame.ts.device.id, self.now)
        self._schedule(self.now + frame.net_out_ms / 1000.0, next(self._ranks), self._on_at_node, frame)

    def _on_at_node(self, frame: _Frame) -> None:
        frame.arrived_at = self.now
        frame.ts.queue.append(frame)
        self._try_start(frame.ts)

    def _try_start(self, ts: _TaskState) -> None:
        if (
            ts.busy_frame is not None
            or ts.migration is not None
            or ts.task.host_node is None
            or not ts.queue
        ):
            return
        node = self.nodes[ts.task.host_node]
        frame = ts.queue.popleft()
        frame.outcome = service_request(node, ts.task)
        ts.busy_frame = frame
        frame.queue_node_ms = (self.now - frame.arrived_at) * 1000.0
        frame.node = node.name
        processing_ms = frame.outcome[-1]
        self.busy_ms[node.name] += processing_ms
        done_at = self.now + processing_ms / 1000.0
        self._schedule(done_at, next(self._ranks), self._on_processing_complete, frame)

    def _on_processing_complete(self, frame: _Frame) -> None:
        ts = frame.ts
        task = ts.task
        # a stray completion from before a migration leaves the instance
        # serving at its new host
        if ts.busy_frame is frame:
            ts.busy_frame = None
        n_instances, cpu_ms, accel_ms, model_load_ms, processing_ms = frame.outcome
        net_back_ms = self.nlm.sample_and_observe(frame.node, ts.device.id, self.now)
        queueing = frame.engine_wait_ms + frame.queue_node_ms
        e2e = frame.net_out_ms + queueing + processing_ms + net_back_ms
        state = classify(e2e, task.qos_ms, self.warn_fraction, self.critical_fraction)
        completed_at = self.now + net_back_ms / 1000.0
        # one value per FrameRecord field, in field order
        self.records.append(
            frame.frame_id,
            task.task_id,
            ts.device.id,
            frame.node,
            frame.dispatched_to,
            task.frame_size_px,
            n_instances,
            task.qos_ms,
            frame.emitted_at,
            frame.dispatched_at,
            completed_at,
            frame.net_out_ms,
            queueing,
            cpu_ms,
            accel_ms,
            model_load_ms,
            processing_ms,
            net_back_ms,
            e2e,
            state,
        )
        self.counters["frames_completed"] += 1
        if e2e > task.qos_ms:
            self.counters["qos_violations"] += 1
        # The profiler's latency signal covers everything the node and the
        # network did to this frame: transfer legs, waiting at the node,
        # and processing. Pre-dispatch engine wait stays in the
        # user-perceived e2e (and the violation counter) but not in the
        # health signal: it measures the outage the orchestrator is
        # already reacting to, not the node receiving the retried frame.
        if task.task_id in self.nodes[frame.node].active_tasks:
            service_latency = e2e - frame.engine_wait_ms
            self.profilers[frame.node].record_inference(task.task_id, service_latency, self.now)
        self._try_start(ts)

    # -- health epochs and the offload loop -----------------------------

    def _schedule_epoch(self, k: int) -> None:
        """Schedule the k-th health epoch, at k * interval, if it falls
        inside the run; the product keeps the instants from drifting."""
        at = k * self.scenario.sim.health_epoch_interval_s
        if at <= self.scenario.sim.duration_s + _TIME_EPS:
            self._schedule(at, self._epoch_rank, self._on_health_epoch, k)

    def _on_health_epoch(self, k: int) -> None:
        self._schedule_epoch(k + 1)
        self.nlm.probe_all(self.now)

        for name in sorted(self.nodes):
            new = evaluate_health(self.profilers[name], self.warn_fraction, self.critical_fraction)
            prev = self.health[name]
            self._log_transitions(name, prev, new)
            self.health[name] = merge_since(prev, new, self.now)
            healthy = new.system_state != CRITICAL
            for service in self.services:
                self.registry.set_health(service, name, healthy)

        if self.offloading:
            self._manage_quarantine()
            self._offload_pass()
        self._drain_pending()

    def _log_transitions(self, name: str, prev: HealthState, new: HealthState) -> None:
        if new.system_state != prev.system_state:
            self.health_transitions.append(
                {"t": self.now, "node": name, "scope": "system", "from": prev.system_state, "to": new.system_state}
            )
        for tid in sorted(new.app_states):
            before = prev.app_states.get(tid, PASS)
            if new.app_states[tid] != before:
                self.health_transitions.append(
                    {"t": self.now, "node": name, "scope": tid, "from": before, "to": new.app_states[tid]}
                )

    def _manage_quarantine(self) -> None:
        cool_down = self.scenario.orchestrator.cool_down_s
        for name in sorted(self.nodes):
            node = self.nodes[name]
            state = self.health[name].system_state
            if state == CRITICAL:
                self._ok_since[name] = None
                if not node.quarantined and not node.faulted:
                    node.quarantined = True
                    self.node_events.append({"t": self.now, "node": name, "event": "quarantine"})
                    self._log("quarantine", name, "system-critical", {"node": name, "t": self.now})
            else:
                if self._ok_since[name] is None:
                    self._ok_since[name] = self.now
                if (
                    node.quarantined
                    and self.now - self._ok_since[name] >= cool_down - _TIME_EPS
                ):
                    node.quarantined = False
                    self.node_events.append({"t": self.now, "node": name, "event": "release"})
                    self._log("release", name, "cool-down-elapsed", {"node": name, "t": self.now})

    def _offload_pass(self) -> None:
        for name in sorted(self.nodes):
            node = self.nodes[name]
            if node.faulted and node.active_tasks:
                # a dead node loses all its instances at once
                for tid in sorted(node.active_tasks):
                    self._migrate_or_count(self.tasks[tid], name, TRIGGER_SYSTEM)
            elif self.health[name].system_state == CRITICAL and not node.faulted:
                victim = pick_victim(self.profilers[name])
                if victim is not None:
                    self._migrate_or_count(self.tasks[victim], name, TRIGGER_SYSTEM)
        for name in sorted(self.nodes):
            node, health = self.nodes[name], self.health[name]
            if node.faulted or health.system_state == CRITICAL:
                continue
            # one app-critical instance per node and epoch; the rest wait
            critical = [
                tid for tid, state in health.app_states.items() if state == CRITICAL and tid in node.active_tasks
            ]
            victim = pick_victim(self.profilers[name], critical)
            if victim is not None:
                self._migrate_or_count(self.tasks[victim], name, TRIGGER_APP)

    def _place(
        self,
        ts: _TaskState,
        statuses: dict[str, NodeStatus],
        source: str | None = None,
        exclude: tuple[str, ...] = (),
    ) -> str | None:
        """The node the policy picks for a task, or None when none qualifies:
        an initial placement, or with ``source`` an offload target away
        from it."""
        try:
            if self.policy == POLICY_WEIGHTED:
                return assign_weighted(
                    self.nodes,
                    statuses,
                    ts.task.frame_size_px,
                    ts.device.id,
                    self.nlm,
                    self.scenario.orchestrator.allocation_weights,
                    exclude=exclude if source is None else (source, *exclude),
                )
            if source is None:
                return assign_node(statuses, ts.device.id, self.nlm)
            return select_offload_target(statuses, ts.device.id, source, self.nlm, exclude=exclude)
        except AssignmentUnavailableError:
            return None

    def _migrate_or_count(self, ts: _TaskState, source: str, trigger: str) -> None:
        target = self._place(ts, self._statuses(), source)
        if target is None:
            self.counters["failed_offloads"] += 1
            self._log(
                "offload-failed",
                ts.task.task_id,
                f"{trigger}: no healthy target",
                {"task": ts.task.task_id, "source": source},
            )
            return
        cost = migration_cost_ms(
            self.nlm,
            source,
            target,
            self.scenario.orchestrator.handover_overhead_ms,
            self.now,
        )
        record = MigrationRecord(
            task_id=ts.task.task_id,
            from_node=source,
            to_node=target,
            trigger=trigger,
            metadata_transfer_ms=cost,
            decided_at=self.now,
        )
        record.validate()
        remove_task(self.nodes[source], ts.task.task_id)
        self.profilers[source].forget_task(ts.task.task_id)
        ts.task.host_node = None
        ts.migration = record
        self._record_instances(source)
        self._schedule(self.now + cost / 1000.0, next(self._ranks), self._on_migration_complete, record)
        self._log(
            "migrate",
            f"{source}->{target}",
            trigger,
            {"task": ts.task.task_id, "source": source, "target": target, "cost_ms": cost},
        )

    def _on_migration_complete(self, record: MigrationRecord) -> None:
        ts = self.tasks[record.task_id]
        target = record.to_node
        node = self.nodes[target]
        if node.reachable and self.health[target].system_state != CRITICAL:
            admit_task(node, ts.task)
            self.profilers[target].register_task(ts.task.task_id, ts.task.qos_ms)
            ts.migration = None
            record.completed_at = self.now
            self.migrations.append(record)
            self.counters["migrations"] += 1
            self._record_instances(target)
            self._rebase_queue(ts)
            # frames still processing at the source finish there; the
            # instance at the new host starts fresh
            ts.busy_frame = None
            self._log(
                "migration-complete",
                target,
                record.trigger,
                {"task": record.task_id, "target": target},
            )
            self._drain_pending()
            self._try_start(ts)
            return
        if not record.retried:
            record.retried = True
            fallback = self._place(ts, self._statuses(), record.from_node, exclude=(target,))
            if fallback is not None:
                extra = migration_cost_ms(
                    self.nlm,
                    record.from_node,
                    fallback,
                    self.scenario.orchestrator.handover_overhead_ms,
                    self.now,
                )
                record.to_node = fallback
                record.metadata_transfer_ms += extra
                retry_at = self.now + extra / 1000.0
                self._schedule(retry_at, next(self._ranks), self._on_migration_complete, record)
                self._log(
                    "migration-retry",
                    f"{record.from_node}->{fallback}",
                    "target-became-unavailable",
                    {"task": record.task_id, "failed_target": target, "fallback": fallback},
                )
                return
        # no target left: the instance returns to where it was
        record.abandoned = True
        self.migrations.append(record)
        self.counters["failed_offloads"] += 1
        source = self.nodes[record.from_node]
        source.active_tasks[record.task_id] = ts.task
        ts.task.host_node = record.from_node
        self.profilers[record.from_node].register_task(ts.task.task_id, ts.task.qos_ms)
        ts.migration = None
        self._record_instances(record.from_node)
        self._rebase_queue(ts)
        self._log(
            "migration-abandoned",
            record.from_node,
            "no-healthy-target-on-retry",
            {"task": record.task_id},
        )
        self._try_start(ts)

    def _rebase_queue(self, ts: _TaskState) -> None:
        """Re-admission resets queued frames' waiting clocks: time spent in
        the handover is attributed to the outage, not to the new host."""
        for frame in ts.queue:
            frame.engine_wait_ms += (self.now - frame.arrived_at) * 1000.0
            frame.arrived_at = self.now

    def _on_fault(self, name: str, action: str) -> None:
        self.nodes[name].faulted = action == "start"
        self.node_events.append({"t": self.now, "node": name, "event": f"fault-{action}"})
        self._log("fault", name, f"fault-{action}", {"node": name, "t": self.now})

    # -- deferred frames -------------------------------------------------

    def _drain_pending(self) -> None:
        if not self.pending:
            return
        statuses = self._statuses()
        healthy_exists = any(s.assignable for s in statuses.values())
        for task_id in sorted(self.pending):
            frame = self.pending[task_id]
            ts = self.tasks[task_id]
            if ts.migration is not None:
                continue
            host = ts.task.host_node
            if host is None:
                del self.pending[task_id]
                if self._try_assign(ts) is not None:
                    self._dispatch(frame)
                else:
                    self._fail_frame(frame, "no-healthy-node")
            elif self._dispatchable(host):
                del self.pending[task_id]
                self._dispatch(frame)
            elif not healthy_exists:
                del self.pending[task_id]
                self._fail_frame(frame, "no-healthy-node")

    def _fail_frame(self, frame: _Frame, reason: str) -> None:
        self.counters["assignment_failures"] += 1
        self._log(
            "assign-failed",
            f"frame-{frame.frame_id}",
            reason,
            {"frame": frame.frame_id, "task": frame.ts.task.task_id},
        )

    # -- bookkeeping -----------------------------------------------------

    def _record_instances(self, name: str) -> None:
        self.instance_series[name].append((self.now, self.nodes[name].n_instances))

    def _frames_in_flight(self) -> int:
        """Frames neither completed nor failed, counted where they sit: in a
        queued entry, the deferred slot, a task queue or an instance's busy
        slot."""
        ids = {arg.frame_id for *_, args in self._queue for arg in args if isinstance(arg, _Frame)}
        ids.update(frame.frame_id for frame in self.pending.values())
        for ts in self.tasks.values():
            ids.update(frame.frame_id for frame in ts.queue)
            if ts.busy_frame is not None:
                ids.add(ts.busy_frame.frame_id)
        return len(ids)

    def _report(self) -> MetricsReport:
        frames = self.records
        frames.sort()
        self.counters["frames_in_flight_at_end"] = self._frames_in_flight()
        # one [count, cpu, accel, e2e] total per (node, frame size, instances)
        totals: dict[tuple[str, int, int], list] = {}
        names = ("node", "frame_size_px", "n_instances", "cpu_ms", "accel_ms", "e2e_ms")
        rows = zip(*map(frames.columns.__getitem__, names))
        for node, frame_size_px, n_instances, cpu_ms, accel_ms, e2e_ms in rows:
            agg = totals.setdefault((node, frame_size_px, n_instances), [0, 0.0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += cpu_ms
            agg[2] += accel_ms
            agg[3] += e2e_ms
        breakdown = [
            {"node": node, "frame_size_px": frame_size_px, "n_instances": n_instances, "count": count,
             "mean_cpu_ms": cpu / count, "mean_accel_ms": accel / count, "mean_e2e_ms": e2e / count}
            for (node, frame_size_px, n_instances), (count, cpu, accel, e2e) in sorted(totals.items())
        ]
        duration_ms = self.scenario.sim.duration_s * 1000.0
        utilization = {name: self.busy_ms[name] / duration_ms for name in sorted(self.nodes)}
        gossip = self.scenario.network.gossip
        return MetricsReport(
            seed=self.seed,
            policy=self.policy,
            offloading_enabled=self.offloading,
            duration_s=self.scenario.sim.duration_s,
            frames=frames,
            migrations=self.migrations,
            counters=self.counters,
            instance_series=self.instance_series,
            utilization=utilization,
            breakdown=breakdown,
            health_transitions=self.health_transitions,
            node_events=self.node_events,
            decision_log=self.decision_log,
            nlm_snapshot=self.nlm.snapshot(),
            registry_dump=self.registry.dump(),
            gossip_kbps_per_node=discovery.gossip_bandwidth(gossip.message_bytes, gossip.interval_s),
        )


def run(scenario: Scenario, seed: int | None = None) -> MetricsReport:
    """Simulate one scenario; fully deterministic for fixed inputs."""
    return Simulation(scenario, seed=seed).run()
