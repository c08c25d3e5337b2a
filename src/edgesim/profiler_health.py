"""Per-node performance profiling and health classification.

Tracks recent end-to-end latency per running instance, the node-level
average over the instances' latest samples, and derives pass/warning/
critical states against fractional shares of each task's latency budget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import ConfigurationError, RegistrationError

PASS = "pass"
WARNING = "warning"
CRITICAL = "critical"

DEFAULT_WINDOW = 20
DEFAULT_WARN_FRACTION = 0.75
DEFAULT_CRITICAL_FRACTION = 0.90


def classify(
    latency_ms: float,
    budget_ms: float,
    warn_fraction: float = DEFAULT_WARN_FRACTION,
    critical_fraction: float = DEFAULT_CRITICAL_FRACTION,
) -> str:
    """Map a latency against its budget: pass below 75% of it, critical
    above 90%, warning in between (boundaries included in warning). The
    budget is a task's QoS or, for a link, its latency budget."""
    if budget_ms <= 0:
        raise ConfigurationError(f"budget must be > 0, got {budget_ms}")
    if latency_ms < warn_fraction * budget_ms:
        return PASS
    if latency_ms > critical_fraction * budget_ms:
        return CRITICAL
    return WARNING


@dataclass
class TaskStats:
    qos_ms: float
    samples: deque = field(default_factory=lambda: deque(maxlen=DEFAULT_WINDOW))

    @property
    def latest(self) -> float | None:
        return self.samples[-1] if self.samples else None


class ProfilerState:
    """Latency bookkeeping for the instances hosted on one node.

    Keeps a bounded ring of recent end-to-end latencies per task; the
    node-level average is the arithmetic mean of each active instance's
    latest sample.
    """

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self.window = window
        self._tasks: dict[str, TaskStats] = {}

    def register_task(self, task_id: str, qos_ms: float) -> None:
        if qos_ms <= 0:
            raise ConfigurationError(f"task {task_id!r}: qos must be > 0")
        self._tasks[task_id] = TaskStats(qos_ms=qos_ms, samples=deque(maxlen=self.window))

    def forget_task(self, task_id: str) -> None:
        self._tasks.pop(task_id, None)

    def _stats(self, task_id: str) -> TaskStats:
        try:
            return self._tasks[task_id]
        except KeyError:
            raise RegistrationError(f"task {task_id!r} was never registered") from None

    def record_inference(self, task_id: str, latency_ms: float, now_s: float) -> None:
        self._stats(task_id).samples.append(latency_ms)

    def task_ids(self) -> list[str]:
        return sorted(self._tasks)

    def latest(self, task_id: str) -> float | None:
        return self._stats(task_id).latest

    def qos(self, task_id: str) -> float:
        return self._stats(task_id).qos_ms

    def samples(self, task_id: str) -> list[float]:
        return list(self._stats(task_id).samples)

    def avg_inf_lat(self) -> float | None:
        """Mean of the latest latency across instances that have reported."""
        latest = [t.latest for t in self._tasks.values() if t.latest is not None]
        if not latest:
            return None
        return sum(latest) / len(latest)

    def qos_reference(self) -> float | None:
        """Node-level budget: the strictest hosted task governs."""
        if not self._tasks:
            return None
        return min(t.qos_ms for t in self._tasks.values())


@dataclass
class HealthState:
    """Snapshot of application and system classifications for one node."""

    app_states: dict[str, str]
    system_state: str
    app_since: dict[str, float] = field(default_factory=dict)
    system_since: float = 0.0


def evaluate_health(
    profiler: ProfilerState,
    warn_fraction: float = DEFAULT_WARN_FRACTION,
    critical_fraction: float = DEFAULT_CRITICAL_FRACTION,
) -> HealthState:
    """Classify every hosted instance and the node as a whole.

    Instances with no samples yet are pass. An idle node is pass by
    definition. Pure: the same profiler contents give the same states.
    """
    app_states: dict[str, str] = {}
    for task_id in profiler.task_ids():
        latest = profiler.latest(task_id)
        if latest is None:
            app_states[task_id] = PASS
        else:
            app_states[task_id] = classify(
                latest, profiler.qos(task_id), warn_fraction, critical_fraction
            )
    avg = profiler.avg_inf_lat()
    qos_ref = profiler.qos_reference()
    if avg is None or qos_ref is None:
        system_state = PASS
    else:
        system_state = classify(avg, qos_ref, warn_fraction, critical_fraction)
    return HealthState(app_states=app_states, system_state=system_state)


def merge_since(prev: HealthState, new: HealthState, now_s: float) -> HealthState:
    """Carry over transition timestamps: `since` changes only when the
    classification does."""
    new.system_since = prev.system_since if new.system_state == prev.system_state else now_s
    since: dict[str, float] = {}
    for tid, state in new.app_states.items():
        if prev.app_states.get(tid) == state:
            since[tid] = prev.app_since.get(tid, now_s)
        else:
            since[tid] = now_s
    new.app_since = since
    return new
