"""Scenario configuration: schema, strict JSON parsing, and validation.

A scenario is a single hierarchical document. Parsing rejects unknown
keys so typos fail loudly, and ``validate`` reports every violated
invariant with a path and a reason before any event runs.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .device_model import MIN_FRAME_SIZE_PX, DeviceProfile
from .errors import ConfigurationError
from .net_model import (
    DEFAULT_FLOOR_MS,
    DEFAULT_LINK_BUDGET_MS,
    EmaWeights,
    StableParams,
)
from .orchestrator import POLICIES, POLICY_MIN_LATENCY, AllocationWeights

_SERVICE_RE = re.compile(r"^[a-z0-9-]+$")


@dataclass
class EndDevice:
    """A stream source requesting inference from the cluster."""

    id: str
    fps: float
    frame_size_px: int
    qos_ms: float
    service: str = "objd"
    start_s: float = 0.0

    def validate(self) -> None:
        if not self.id:
            raise ConfigurationError("end-device id must be non-empty")
        if self.fps <= 0:
            raise ConfigurationError(f"end-device {self.id!r}: fps must be > 0")
        if self.qos_ms <= 0:
            raise ConfigurationError(f"end-device {self.id!r}: qos_ms must be > 0")
        if self.frame_size_px < MIN_FRAME_SIZE_PX:
            raise ConfigurationError(
                f"end-device {self.id!r}: frame_size_px must be >= {MIN_FRAME_SIZE_PX}"
            )
        if not _SERVICE_RE.match(self.service):
            raise ConfigurationError(
                f"end-device {self.id!r}: service {self.service!r} must be lowercase "
                "alphanumeric or hyphen"
            )
        if self.start_s < 0:
            raise ConfigurationError(f"end-device {self.id!r}: start_s must be >= 0")


@dataclass
class GossipConfig:
    message_bytes: float = 13.672
    interval_s: float = 1.5e-5

    def validate(self) -> None:
        if self.interval_s <= 0:
            raise ConfigurationError("gossip.interval_s must be > 0")
        if self.message_bytes < 0:
            raise ConfigurationError("gossip.message_bytes must be >= 0")


@dataclass
class NetworkConfig:
    edge_edge: StableParams = field(
        default_factory=lambda: StableParams(alpha=1.6878, beta=0.0, scale=0.0980, location=13.405)
    )
    edge_device: StableParams = field(
        default_factory=lambda: StableParams(alpha=1.6878, beta=0.0, scale=0.0980, location=13.405)
    )
    ema_weights: EmaWeights = field(default_factory=EmaWeights)
    link_budget_ms: float = DEFAULT_LINK_BUDGET_MS
    floor_ms: float = DEFAULT_FLOOR_MS
    gossip: GossipConfig = field(default_factory=GossipConfig)

    def validate(self) -> None:
        self.edge_edge.validate()
        self.edge_device.validate()
        self.ema_weights.validate()
        if self.link_budget_ms <= 0:
            raise ConfigurationError("network.link_budget_ms must be > 0")
        if self.floor_ms < 0:
            raise ConfigurationError("network.floor_ms must be >= 0")
        self.gossip.validate()


@dataclass
class OrchestratorConfig:
    policy: str = POLICY_MIN_LATENCY
    allocation_weights: AllocationWeights = field(default_factory=AllocationWeights)
    warn_fraction: float = 0.75
    critical_fraction: float = 0.90
    cool_down_s: float = 5.0
    handover_overhead_ms: float = 50.0
    offloading_enabled: bool = True

    def validate(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"orchestrator.policy must be one of {POLICIES}, got {self.policy!r}"
            )
        self.allocation_weights.validate()
        if not (0 < self.warn_fraction < self.critical_fraction <= 1.0):
            raise ConfigurationError(
                "thresholds must satisfy 0 < warn_fraction < critical_fraction <= 1"
            )
        if self.cool_down_s < 0:
            raise ConfigurationError("orchestrator.cool_down_s must be >= 0")
        if self.handover_overhead_ms < 0:
            raise ConfigurationError("orchestrator.handover_overhead_ms must be >= 0")


@dataclass
class SimConfig:
    duration_s: float = 30.0
    seed: int = 42
    health_epoch_interval_s: float = 1.0
    preload_models: bool = True
    profiler_window: int = 20

    def validate(self) -> None:
        if not (0 < self.duration_s < math.inf):
            raise ConfigurationError("sim.duration_s must be finite and > 0")
        if not (0 <= self.seed < 2**64):
            raise ConfigurationError("sim.seed must be an unsigned 64-bit integer")
        if self.health_epoch_interval_s <= 0:
            raise ConfigurationError("sim.health_epoch_interval_s must be > 0")
        if self.profiler_window < 1:
            raise ConfigurationError("sim.profiler_window must be >= 1")


@dataclass
class FaultSpec:
    node_id: str
    at_s: float
    duration_s: float

    def validate(self) -> None:
        if self.at_s < 0:
            raise ConfigurationError(f"fault on {self.node_id!r}: at_s must be >= 0")
        if self.duration_s < 0:
            raise ConfigurationError(f"fault on {self.node_id!r}: duration_s must be >= 0")


@dataclass
class Scenario:
    devices: list[DeviceProfile] = field(default_factory=list)
    end_devices: list[EndDevice] = field(default_factory=list)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    orchestrator: OrchestratorConfig = field(default_factory=OrchestratorConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    faults: list[FaultSpec] = field(default_factory=list)


def validate(scenario: Scenario) -> list[str]:
    """Every violated invariant as ``path: reason``; empty means ok."""
    errors: list[str] = []

    def check(path: str, fn) -> None:
        try:
            fn()
        except ConfigurationError as exc:
            errors.append(f"{path}: {exc}")

    if not scenario.devices:
        errors.append("devices: at least one edge node is required")
    if not scenario.end_devices:
        errors.append("end_devices: at least one end-device is required")
    names = [d.name for d in scenario.devices]
    if len(set(names)) != len(names):
        errors.append("devices: node names must be unique")
    for i, profile in enumerate(scenario.devices):
        check(f"devices[{i}]", profile.validate)
    ids = [d.id for d in scenario.end_devices]
    if len(set(ids)) != len(ids):
        errors.append("end_devices: ids must be unique")
    overlap = set(names) & set(ids)
    if overlap:
        errors.append(f"end_devices: ids collide with node names: {sorted(overlap)}")
    for i, device in enumerate(scenario.end_devices):
        check(f"end_devices[{i}] ({device.id})", device.validate)
    check("network", scenario.network.validate)
    check("orchestrator", scenario.orchestrator.validate)
    check("sim", scenario.sim.validate)
    for i, fault in enumerate(scenario.faults):
        check(f"faults[{i}]", fault.validate)
        if fault.node_id not in names:
            errors.append(f"faults[{i}]: unknown node {fault.node_id!r}")
    return errors


# ---------------------------------------------------------------------------
# strict dict <-> dataclass conversion


def _strict(section: dict, path: str, known: set[str]) -> None:
    if not isinstance(section, dict):
        raise ConfigurationError(f"{path}: expected an object, got {type(section).__name__}")
    unknown = set(section) - known
    if unknown:
        raise ConfigurationError(f"{path}: unknown keys {sorted(unknown)}")


def _num(section: dict, path: str, key: str, default=None, required: bool = False):
    if key not in section:
        if required:
            raise ConfigurationError(f"{path}.{key}: required")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{path}.{key}: expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(f"{path}.{key}: expected a finite number, got {value!r}")
    return value


def _text(section: dict, path: str, key: str, default=None, required: bool = False):
    if key not in section:
        if required:
            raise ConfigurationError(f"{path}.{key}: required")
        return default
    value = section[key]
    if not isinstance(value, str):
        raise ConfigurationError(f"{path}.{key}: expected a string, got {value!r}")
    return value


def _flag(section: dict, path: str, key: str, default: bool) -> bool:
    value = section.get(key, default)
    if not isinstance(value, bool):
        raise ConfigurationError(f"{path}.{key}: expected true/false, got {value!r}")
    return value


def _stable_params(section: dict, path: str) -> StableParams:
    _strict(section, path, {"alpha", "beta", "scale", "location"})
    return StableParams(
        alpha=_num(section, path, "alpha", required=True),
        beta=_num(section, path, "beta", 0.0),
        scale=_num(section, path, "scale", required=True),
        location=_num(section, path, "location", 0.0),
    )


def _device_profile(section: dict, path: str) -> DeviceProfile:
    _strict(
        section,
        path,
        {"name", "accelerator_kind", "calibration", "model_load_ms", "max_instances", "cpu_pre_fraction"},
    )
    raw = section.get("calibration")
    if not isinstance(raw, list):
        raise ConfigurationError(f"{path}.calibration: expected a list of entries")
    table: dict[tuple[int, int], tuple[float, float]] = {}
    for j, entry in enumerate(raw):
        epath = f"{path}.calibration[{j}]"
        _strict(entry, epath, {"frame_size_px", "n_instances", "cpu_ms", "accel_ms"})
        key = (
            int(_num(entry, epath, "frame_size_px", required=True)),
            int(_num(entry, epath, "n_instances", required=True)),
        )
        if key in table:
            raise ConfigurationError(f"{epath}: duplicate calibration point {key}")
        table[key] = (
            float(_num(entry, epath, "cpu_ms", required=True)),
            float(_num(entry, epath, "accel_ms", required=True)),
        )
    return DeviceProfile(
        name=_text(section, path, "name", required=True),
        accelerator_kind=_text(section, path, "accelerator_kind", required=True),
        calibration=table,
        model_load_ms=float(_num(section, path, "model_load_ms", 2000.0)),
        max_instances=int(_num(section, path, "max_instances", 4)),
        cpu_pre_fraction=float(_num(section, path, "cpu_pre_fraction", 0.7)),
    )


def from_dict(doc: dict) -> Scenario:
    """Build a scenario from a parsed document, rejecting unknown keys."""
    _strict(doc, "scenario", {"devices", "end_devices", "network", "orchestrator", "sim", "faults"})
    scenario = Scenario()

    devices = doc.get("devices", [])
    if not isinstance(devices, list):
        raise ConfigurationError("devices: expected a list")
    scenario.devices = [_device_profile(d, f"devices[{i}]") for i, d in enumerate(devices)]

    end_devices = doc.get("end_devices", [])
    if not isinstance(end_devices, list):
        raise ConfigurationError("end_devices: expected a list")
    parsed = []
    for i, section in enumerate(end_devices):
        path = f"end_devices[{i}]"
        _strict(section, path, {"id", "fps", "frame_size_px", "qos_ms", "service", "start_s"})
        parsed.append(
            EndDevice(
                id=_text(section, path, "id", required=True),
                fps=float(_num(section, path, "fps", required=True)),
                frame_size_px=int(_num(section, path, "frame_size_px", required=True)),
                qos_ms=float(_num(section, path, "qos_ms", required=True)),
                service=_text(section, path, "service", "objd"),
                start_s=float(_num(section, path, "start_s", 0.0)),
            )
        )
    scenario.end_devices = parsed

    if "network" in doc:
        section = doc["network"]
        path = "network"
        _strict(
            section,
            path,
            {"edge_edge", "edge_device", "ema_weights", "link_budget_ms", "floor_ms", "gossip"},
        )
        network = NetworkConfig()
        if "edge_edge" in section:
            network.edge_edge = _stable_params(section["edge_edge"], f"{path}.edge_edge")
        if "edge_device" in section:
            network.edge_device = _stable_params(section["edge_device"], f"{path}.edge_device")
        if "ema_weights" in section:
            wpath = f"{path}.ema_weights"
            _strict(section["ema_weights"], wpath, {"w_1m", "w_5m", "w_15m"})
            network.ema_weights = EmaWeights(
                w_1m=_num(section["ema_weights"], wpath, "w_1m", required=True),
                w_5m=_num(section["ema_weights"], wpath, "w_5m", required=True),
                w_15m=_num(section["ema_weights"], wpath, "w_15m", required=True),
            )
        network.link_budget_ms = float(_num(section, path, "link_budget_ms", network.link_budget_ms))
        network.floor_ms = float(_num(section, path, "floor_ms", network.floor_ms))
        if "gossip" in section:
            gpath = f"{path}.gossip"
            _strict(section["gossip"], gpath, {"message_bytes", "interval_s"})
            network.gossip = GossipConfig(
                message_bytes=float(_num(section["gossip"], gpath, "message_bytes", required=True)),
                interval_s=float(_num(section["gossip"], gpath, "interval_s", required=True)),
            )
        scenario.network = network

    if "orchestrator" in doc:
        section = doc["orchestrator"]
        path = "orchestrator"
        _strict(
            section,
            path,
            {
                "policy",
                "allocation_weights",
                "warn_fraction",
                "critical_fraction",
                "cool_down_s",
                "handover_overhead_ms",
                "offloading_enabled",
            },
        )
        orch = OrchestratorConfig()
        orch.policy = _text(section, path, "policy", orch.policy)
        if "allocation_weights" in section:
            wpath = f"{path}.allocation_weights"
            _strict(section["allocation_weights"], wpath, {"alpha", "beta", "gamma"})
            orch.allocation_weights = AllocationWeights(
                alpha=_num(section["allocation_weights"], wpath, "alpha", required=True),
                beta=_num(section["allocation_weights"], wpath, "beta", required=True),
                gamma=_num(section["allocation_weights"], wpath, "gamma", required=True),
            )
        orch.warn_fraction = float(_num(section, path, "warn_fraction", orch.warn_fraction))
        orch.critical_fraction = float(
            _num(section, path, "critical_fraction", orch.critical_fraction)
        )
        orch.cool_down_s = float(_num(section, path, "cool_down_s", orch.cool_down_s))
        orch.handover_overhead_ms = float(
            _num(section, path, "handover_overhead_ms", orch.handover_overhead_ms)
        )
        orch.offloading_enabled = _flag(section, path, "offloading_enabled", orch.offloading_enabled)
        scenario.orchestrator = orch

    if "sim" in doc:
        section = doc["sim"]
        path = "sim"
        _strict(
            section,
            path,
            {"duration_s", "seed", "health_epoch_interval_s", "preload_models", "profiler_window"},
        )
        sim = SimConfig()
        sim.duration_s = float(_num(section, path, "duration_s", sim.duration_s))
        sim.seed = int(_num(section, path, "seed", sim.seed))
        sim.health_epoch_interval_s = float(
            _num(section, path, "health_epoch_interval_s", sim.health_epoch_interval_s)
        )
        sim.preload_models = _flag(section, path, "preload_models", sim.preload_models)
        sim.profiler_window = int(_num(section, path, "profiler_window", sim.profiler_window))
        scenario.sim = sim

    faults = doc.get("faults", [])
    if not isinstance(faults, list):
        raise ConfigurationError("faults: expected a list")
    parsed_faults = []
    for i, section in enumerate(faults):
        path = f"faults[{i}]"
        _strict(section, path, {"node_id", "at_s", "duration_s"})
        parsed_faults.append(
            FaultSpec(
                node_id=_text(section, path, "node_id", required=True),
                at_s=float(_num(section, path, "at_s", required=True)),
                duration_s=float(_num(section, path, "duration_s", required=True)),
            )
        )
    scenario.faults = parsed_faults
    return scenario


def to_dict(scenario: Scenario) -> dict:
    """Inverse of ``from_dict``; the pair round-trips."""
    return {
        "devices": [
            {
                "name": p.name,
                "accelerator_kind": p.accelerator_kind,
                "calibration": [
                    {
                        "frame_size_px": f,
                        "n_instances": n,
                        "cpu_ms": cpu,
                        "accel_ms": accel,
                    }
                    for (f, n), (cpu, accel) in sorted(p.calibration.items())
                ],
                "model_load_ms": p.model_load_ms,
                "max_instances": p.max_instances,
                "cpu_pre_fraction": p.cpu_pre_fraction,
            }
            for p in scenario.devices
        ],
        "end_devices": [
            {
                "id": d.id,
                "fps": d.fps,
                "frame_size_px": d.frame_size_px,
                "qos_ms": d.qos_ms,
                "service": d.service,
                "start_s": d.start_s,
            }
            for d in scenario.end_devices
        ],
        "network": {
            "edge_edge": _params_dict(scenario.network.edge_edge),
            "edge_device": _params_dict(scenario.network.edge_device),
            "ema_weights": {
                "w_1m": scenario.network.ema_weights.w_1m,
                "w_5m": scenario.network.ema_weights.w_5m,
                "w_15m": scenario.network.ema_weights.w_15m,
            },
            "link_budget_ms": scenario.network.link_budget_ms,
            "floor_ms": scenario.network.floor_ms,
            "gossip": {
                "message_bytes": scenario.network.gossip.message_bytes,
                "interval_s": scenario.network.gossip.interval_s,
            },
        },
        "orchestrator": {
            "policy": scenario.orchestrator.policy,
            "allocation_weights": {
                "alpha": scenario.orchestrator.allocation_weights.alpha,
                "beta": scenario.orchestrator.allocation_weights.beta,
                "gamma": scenario.orchestrator.allocation_weights.gamma,
            },
            "warn_fraction": scenario.orchestrator.warn_fraction,
            "critical_fraction": scenario.orchestrator.critical_fraction,
            "cool_down_s": scenario.orchestrator.cool_down_s,
            "handover_overhead_ms": scenario.orchestrator.handover_overhead_ms,
            "offloading_enabled": scenario.orchestrator.offloading_enabled,
        },
        "sim": {
            "duration_s": scenario.sim.duration_s,
            "seed": scenario.sim.seed,
            "health_epoch_interval_s": scenario.sim.health_epoch_interval_s,
            "preload_models": scenario.sim.preload_models,
            "profiler_window": scenario.sim.profiler_window,
        },
        "faults": [
            {"node_id": f.node_id, "at_s": f.at_s, "duration_s": f.duration_s}
            for f in scenario.faults
        ],
    }


def _params_dict(params: StableParams) -> dict:
    return {
        "alpha": params.alpha,
        "beta": params.beta,
        "scale": params.scale,
        "location": params.location,
    }


def load_scenario(path: str | Path) -> Scenario:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from None
    return from_dict(doc)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_dict(scenario), indent=2, sort_keys=True) + "\n")
