"""Edge node inference lifecycle model.

Each node carries a calibration table mapping (frame size, concurrent
instance count) to the CPU-side latency (pre/post processing) and the
accelerator-side latency (the inference stages). One-time model loading
is charged separately, the first time a model is used on a node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import AssignmentError, ConfigurationError

MIN_FRAME_SIZE_PX = 300


@dataclass(frozen=True)
class DeviceProfile:
    """Calibrated latency surfaces for one edge node.

    ``calibration`` maps (frame_size_px, n_instances) to (cpu_ms, accel_ms).
    The grid must be complete (every frame size crossed with every
    instance count) and non-decreasing along both axes.
    """

    name: str
    accelerator_kind: str
    calibration: dict[tuple[int, int], tuple[float, float]]
    model_load_ms: float = 2000.0

    def validate(self) -> None:
        if not self.calibration:
            raise ConfigurationError(f"device {self.name!r}: empty calibration table")
        if self.accelerator_kind not in ("VPU", "TPU", "GPU"):
            raise ConfigurationError(
                f"device {self.name!r}: unknown accelerator kind {self.accelerator_kind!r}"
            )
        if self.model_load_ms < 0:
            raise ConfigurationError(f"device {self.name!r}: model_load_ms must be >= 0")
        frames = self.frame_sizes()
        counts = self.instance_counts()
        for f in frames:
            for n in counts:
                if (f, n) not in self.calibration:
                    raise ConfigurationError(
                        f"device {self.name!r}: calibration grid incomplete, missing ({f}, {n})"
                    )
                cpu, accel = self.calibration[(f, n)]
                if cpu <= 0 or accel <= 0:
                    raise ConfigurationError(
                        f"device {self.name!r}: non-positive latency at ({f}, {n})"
                    )
        for f in frames:
            for lo, hi in zip(counts, counts[1:]):
                if not _pairwise_le(self.calibration[(f, lo)], self.calibration[(f, hi)]):
                    raise ConfigurationError(
                        f"device {self.name!r}: latencies must be non-decreasing in "
                        f"instance count at frame {f}"
                    )
        for n in counts:
            for lo, hi in zip(frames, frames[1:]):
                if not _pairwise_le(self.calibration[(lo, n)], self.calibration[(hi, n)]):
                    raise ConfigurationError(
                        f"device {self.name!r}: latencies must be non-decreasing in "
                        f"frame size at {n} instances"
                    )

    def frame_sizes(self) -> list[int]:
        return sorted({f for f, _ in self.calibration})

    def instance_counts(self) -> list[int]:
        return sorted({n for _, n in self.calibration})


def _pairwise_le(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return a[0] <= b[0] and a[1] <= b[1]


def _interp_axis(xs: list[float], vals: list[float], x: float) -> float:
    """1-D lookup: linear between grid points, multiplicative beyond edges.

    Extrapolation applies the nearest edge ratio per grid interval, so a
    monotone row stays monotone and positive outside the calibrated range.
    """
    if len(xs) == 1:
        return vals[0]
    if x <= xs[0]:
        ratio = vals[0] / vals[1]
        return vals[0] * ratio ** ((xs[0] - x) / (xs[1] - xs[0]))
    if x >= xs[-1]:
        ratio = vals[-1] / vals[-2]
        return vals[-1] * ratio ** ((x - xs[-1]) / (xs[-1] - xs[-2]))
    for i in range(len(xs) - 1):
        if xs[i] <= x <= xs[i + 1]:
            t = (x - xs[i]) / (xs[i + 1] - xs[i])
            return vals[i] + t * (vals[i + 1] - vals[i])
    raise AssertionError("unreachable")


def predict_components(
    profile: DeviceProfile, frame_size: float, n: float
) -> tuple[float, float]:
    """Predicted (cpu_ms, accel_ms) at a frame size and instance count.

    Exact at calibration points; bilinear in (log2 frame size, n) inside
    the grid; multiplicative edge-ratio extrapolation outside. The frame
    axis is resolved first, then the instance axis.
    """
    if not profile.calibration:
        raise ConfigurationError(f"device {profile.name!r}: empty calibration table")
    if frame_size <= 0:
        raise ConfigurationError(f"frame_size must be > 0, got {frame_size}")
    if n < 1:
        raise ConfigurationError(f"instance count must be >= 1, got {n}")
    key = (int(frame_size), int(n))
    if frame_size == int(frame_size) and n == int(n) and key in profile.calibration:
        return profile.calibration[key]
    frames = profile.frame_sizes()
    counts = profile.instance_counts()
    log_frames = [math.log2(f) for f in frames]
    x = math.log2(frame_size)
    out = []
    for comp in (0, 1):
        by_count = []
        for cnt in counts:
            row = [profile.calibration[(f, cnt)][comp] for f in frames]
            by_count.append(_interp_axis(log_frames, row, x))
        out.append(_interp_axis([float(c) for c in counts], by_count, float(n)))
    return out[0], out[1]


@dataclass
class InferenceTask:
    """One continuously running detection instance bound to a stream."""

    task_id: str
    frame_size_px: int
    qos_ms: float
    service: str = "objd"
    host_node: str | None = None


@dataclass
class NodeRuntime:
    """Per-node mutable state, owned by the event loop.

    ``profile`` is fixed for the node's life: ``served`` memoizes the
    latencies read from it.
    """

    profile: DeviceProfile
    loaded_models: set[str] = field(default_factory=set)
    active_tasks: dict[str, InferenceTask] = field(default_factory=dict)
    faulted: bool = False
    quarantined: bool = False
    _served: dict[tuple[int, int], tuple[int, float, float, float, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def served(self, frame_size: int, n: int) -> tuple[int, float, float, float, float]:
        """``(n, cpu_ms, accel_ms, 0.0, cpu_ms + accel_ms)`` from
        ``predict_components(self.profile, frame_size, n)``, computed once
        per (frame size, instance count): a run asks for few distinct keys.
        A call that raises stores nothing, so it raises again."""
        key = (frame_size, n)
        value = self._served.get(key)
        if value is None:
            cpu_ms, accel_ms = predict_components(self.profile, frame_size, n)
            value = self._served[key] = (n, cpu_ms, accel_ms, 0.0, cpu_ms + accel_ms)
        return value

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def reachable(self) -> bool:
        return not (self.faulted or self.quarantined)

    @property
    def n_instances(self) -> int:
        return len(self.active_tasks)


def admit_task(node: NodeRuntime, task: InferenceTask) -> None:
    """Attach a task to a node. Unreachable nodes take no new assignments."""
    if not node.reachable:
        raise AssignmentError(
            f"node {node.name!r} is unreachable and cannot accept task {task.task_id!r}"
        )
    node.active_tasks[task.task_id] = task
    task.host_node = node.name


def remove_task(node: NodeRuntime, task_id: str) -> InferenceTask:
    try:
        return node.active_tasks.pop(task_id)
    except KeyError:
        raise AssignmentError(f"task {task_id!r} is not active on node {node.name!r}") from None


def service_request(node: NodeRuntime, task: InferenceTask) -> tuple[int, float, float, float, float]:
    """Process one frame of an admitted task on a node: its ``(n_instances,
    cpu_ms, accel_ms, model_load_ms, processing_ms)``, in ``FrameRecord``
    field order.

    Components are read from the calibration surface at the node's current
    instance count (the serviced task included). Model load is charged
    once per (node, model), first in the sum; later requests skip it and
    get the node's one tuple for their (frame size, instance count).
    Reachability is enforced at admission, so frames already at the node
    complete even if it was quarantined after dispatch.
    """
    if task.task_id not in node.active_tasks:
        raise AssignmentError(
            f"task {task.task_id!r} is not admitted on node {node.name!r}"
        )
    key = (task.frame_size_px, node.n_instances)
    served = node._served.get(key) or node.served(*key)
    if task.service in node.loaded_models:
        return served
    n, cpu_ms, accel_ms, _, _ = served
    node.loaded_models.add(task.service)
    load_ms = node.profile.model_load_ms
    return n, cpu_ms, accel_ms, load_ms, load_ms + cpu_ms + accel_ms


def preload_model(node: NodeRuntime, service: str) -> None:
    """Load a model ahead of traffic so no request pays the one-time cost."""
    node.loaded_models.add(service)
