"""Simulated service networking: registry, service lookups, gossip accounting.

The registry is a single authoritative map standing in for a full
control plane; consensus and membership gossip are abstracted to a
bandwidth accounting formula.
"""

from __future__ import annotations

from .errors import ConfigurationError
from .net_model import Nlm

HEALTHY = "healthy"
UNHEALTHY = "unhealthy"


class ServiceRegistry:
    """Authoritative map of advertised services: (service, node) to status.

    A health change is visible to the next query.
    """

    def __init__(self):
        self._status: dict[tuple[str, str], str] = {}

    def register(self, service_name: str, node_id: str) -> None:
        self._status.setdefault((service_name, node_id), HEALTHY)

    def set_health(self, service_name: str, node_id: str, healthy: bool) -> None:
        key = (service_name, node_id)
        if key not in self._status:
            raise ConfigurationError(
                f"service {service_name!r} is not registered on node {node_id!r}"
            )
        self._status[key] = HEALTHY if healthy else UNHEALTHY

    def nodes_for(self, service_name: str) -> list[tuple[str, str]]:
        """All (node_id, status) pairs advertising a service."""
        return [
            (node_id, status)
            for (svc, node_id), status in sorted(self._status.items())
            if svc == service_name
        ]

    def dump(self) -> list[dict]:
        return [
            {"service": svc, "node": node, "status": status}
            for (svc, node), status in sorted(self._status.items())
        ]


def resolve(
    registry: ServiceRegistry,
    service_name: str,
    querying_id: str,
    nlm: Nlm,
    reachable: dict[str, bool],
) -> list[str]:
    """Healthy, reachable providers of a service, best link first.

    Ordering is ascending composite link score from the querying device,
    ties broken by node id, so results are a stable total order for equal
    state. Unknown services resolve to an empty list.
    """
    candidates = [
        node_id
        for node_id, status in registry.nodes_for(service_name)
        if status == HEALTHY and reachable.get(node_id, False)
    ]
    return sorted(candidates, key=lambda n: (nlm.score(n, querying_id), n))


def gossip_bandwidth(message_bytes: float, interval_s: float) -> float:
    """Control-plane bandwidth in kbps for one message per interval."""
    if interval_s <= 0:
        raise ConfigurationError(f"gossip interval must be > 0, got {interval_s}")
    if message_bytes < 0:
        raise ConfigurationError(f"message size must be >= 0, got {message_bytes}")
    return message_bytes * 8.0 / interval_s / 1000.0
