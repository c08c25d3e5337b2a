"""Provisioning and offload decisions.

Two placement policies are provided: the min-latency rule (healthy node
with the best composite link score to the requesting device) and the
weighted rule combining normalized CPU, accelerator, and network-latency
fitness. Victim selection on an overloaded node takes the instance with
the highest latest latency. Every ranking takes the lowest (key, id), so
ties go to the smaller id. All functions here are pure over snapshots;
the simulation engine owns the mutation and scheduling around them.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .device_model import NodeRuntime
from .errors import AssignmentUnavailableError, ConfigurationError
from .net_model import Nlm
from .profiler_health import CRITICAL, ProfilerState

DEFAULT_HANDOVER_OVERHEAD_MS = 50.0
DIGEST_CHARS = 12  # the length of a decision_digest text

POLICY_MIN_LATENCY = "min-latency"
POLICY_WEIGHTED = "weighted"
POLICIES = (POLICY_MIN_LATENCY, POLICY_WEIGHTED)

TRIGGER_SYSTEM = "system-critical"
TRIGGER_APP = "app-critical"


@dataclass(frozen=True)
class AllocationWeights:
    """Factors for the CPU, accelerator, and network fitness terms."""

    alpha: float = 0.3
    beta: float = 0.4
    gamma: float = 0.3

    def validate(self) -> None:
        ws = (self.alpha, self.beta, self.gamma)
        if any(w < 0 for w in ws):
            raise ConfigurationError(f"allocation weights must be >= 0, got {ws}")
        if abs(sum(ws) - 1.0) > 1e-9:
            raise ConfigurationError(f"allocation weights must sum to 1, got {sum(ws)}")


@dataclass
class MigrationRecord:
    """One instance move between nodes, including its transfer cost."""

    task_id: str
    from_node: str
    to_node: str
    trigger: str
    metadata_transfer_ms: float
    decided_at: float
    completed_at: float | None = None
    retried: bool = False
    abandoned: bool = False

    def validate(self) -> None:
        if self.from_node == self.to_node:
            raise ConfigurationError(
                f"migration of {self.task_id!r} must change nodes, got {self.from_node!r} twice"
            )


@dataclass(frozen=True)
class NodeStatus:
    """Decision-time view of a node's availability."""

    reachable: bool
    system_state: str

    @property
    def assignable(self) -> bool:
        return self.reachable and self.system_state != CRITICAL


def _eligible(statuses: dict[str, NodeStatus], exclude: tuple[str, ...] = ()) -> list[str]:
    return sorted(
        node_id
        for node_id, status in statuses.items()
        if status.assignable and node_id not in exclude
    )


def _lowest(candidates: Iterable[str], key: Callable[[str], float]) -> str | None:
    """The candidate with the lowest (key, id), so ties take the smaller
    id; None when there is no candidate."""
    return min(candidates, key=lambda c: (key(c), c), default=None)


def assign_node(statuses: dict[str, NodeStatus], end_device_id: str, nlm: Nlm) -> str:
    """Healthy, reachable node with the lowest link score to the device.

    Ties break lexicographically by node id. Links with no samples yet
    rank last (score +inf) but remain eligible.
    """
    chosen = _lowest(_eligible(statuses), lambda n: nlm.score(n, end_device_id))
    if chosen is None:
        raise AssignmentUnavailableError(
            f"no healthy reachable node available for device {end_device_id!r}"
        )
    return chosen


def select_offload_target(
    statuses: dict[str, NodeStatus],
    end_device_id: str,
    source_node: str,
    nlm: Nlm,
    exclude: tuple[str, ...] = (),
) -> str | None:
    """Best relocation target for an instance leaving ``source_node``.

    Ranks candidates by the sum of the candidate<->device and the
    candidate<->source link scores: the first leg carries the ongoing
    stream, the second the metadata handover. Returns None when no
    healthy node remains.
    """
    return _lowest(
        _eligible(statuses, exclude=(source_node, *exclude)),
        lambda n: nlm.score(n, end_device_id) + nlm.score(n, source_node),
    )


def pick_victim(profiler: ProfilerState, among: Iterable[str] | None = None) -> str | None:
    """Instance with the highest latest latency, of ``among`` if given;
    ties take the smaller id."""
    latest = {tid: profiler.latest(tid) for tid in (profiler.task_ids() if among is None else among)}
    return _lowest((tid for tid, ms in latest.items() if ms is not None), lambda t: -latest[t])


def node_weights(
    nodes: dict[str, NodeRuntime],
    candidates: list[str],
    frame_size: int,
    end_device_id: str,
    nlm: Nlm,
    coeffs: AllocationWeights,
) -> dict[str, float]:
    """Combined normalized fitness of each candidate for one pending request.

    Raw factors are inverse predicted CPU and accelerator latency at the
    post-admission instance count, and the inverse link score to the
    requesting device; each factor is divided by its maximum over the
    candidate set, so a common scaling of the raw inputs cancels.
    """
    coeffs.validate()
    if not candidates:
        raise AssignmentUnavailableError("no candidate nodes for weighting")
    raw: dict[str, tuple[float, float, float]] = {}
    for node_id in candidates:
        node = nodes[node_id]
        _, cpu_ms, accel_ms, _, _ = node.served(frame_size, node.n_instances + 1)
        score = max(nlm.score(node_id, end_device_id), 1e-9)
        raw[node_id] = (1.0 / cpu_ms, 1.0 / accel_ms, 0.0 if math.isinf(score) else 1.0 / score)
    maxima = [max(r[i] for r in raw.values()) for i in range(3)]
    out: dict[str, float] = {}
    for node_id in candidates:
        normed = [
            (raw[node_id][i] / maxima[i]) if maxima[i] > 0 else 1.0 for i in range(3)
        ]
        out[node_id] = coeffs.alpha * normed[0] + coeffs.beta * normed[1] + coeffs.gamma * normed[2]
    return out


def assign_weighted(
    nodes: dict[str, NodeRuntime],
    statuses: dict[str, NodeStatus],
    frame_size: int,
    end_device_id: str,
    nlm: Nlm,
    coeffs: AllocationWeights,
    exclude: tuple[str, ...] = (),
) -> str:
    """Healthy node with the highest combined weight; ties lexicographic."""
    candidates = _eligible(statuses, exclude=exclude)
    if not candidates:
        raise AssignmentUnavailableError(
            f"no healthy reachable node available for device {end_device_id!r}"
        )
    weights = node_weights(nodes, candidates, frame_size, end_device_id, nlm, coeffs)
    return _lowest(candidates, lambda n: -weights[n])


def migration_cost_ms(
    nlm: Nlm,
    source: str,
    target: str,
    handover_overhead_ms: float = DEFAULT_HANDOVER_OVERHEAD_MS,
    now_s: float = 0.0,
) -> float:
    """Metadata transfer cost: one inter-node link draw plus fixed overhead."""
    return nlm.sample_and_observe(source, target, now_s) + handover_overhead_ms


def decision_digest(payload: dict) -> str:
    """Short stable digest of a decision's inputs, for the decision log."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:DIGEST_CHARS]
