"""Scenario configuration: schema, strict JSON parsing, and validation.

A scenario is a single hierarchical document. Parsing rejects unknown
keys so typos fail loudly, and ``validate`` reports every violated
invariant with a path and a reason before any event runs.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .device_model import MIN_FRAME_SIZE_PX, DeviceProfile
from .errors import ConfigurationError
from .net_model import (
    DEFAULT_FLOOR_MS,
    DEFAULT_LINK_BUDGET_MS,
    EmaWeights,
    StableParams,
)
from .orchestrator import (
    DEFAULT_HANDOVER_OVERHEAD_MS,
    POLICIES,
    POLICY_MIN_LATENCY,
    AllocationWeights,
)
from .profiler_health import DEFAULT_CRITICAL_FRACTION, DEFAULT_WARN_FRACTION

_SERVICE_RE = re.compile(r"^[a-z0-9-]+$")
# frames.csv writes ids unquoted, a link's stream is labelled
# ``link:<lo>:<hi>`` and its nlm key is ``<a>|<b>``: an id holding one of
# these characters splits a row or gives two links one label or key
_ID_FORBIDDEN_RE = re.compile(r'[,"|:\x00-\x1f\x7f]')


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
    warn_fraction: float = DEFAULT_WARN_FRACTION
    critical_fraction: float = DEFAULT_CRITICAL_FRACTION
    cool_down_s: float = 5.0
    handover_overhead_ms: float = DEFAULT_HANDOVER_OVERHEAD_MS
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


def is_seed(value) -> bool:
    """Whether ``value`` is an unsigned 64-bit integer: an int or numpy
    integer in [0, 2**64), not a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer)) and 0 <= value < 2**64


@dataclass
class SimConfig:
    duration_s: float = 30.0
    seed: int = 42
    health_epoch_interval_s: float = 1.0
    preload_models: bool = True

    def validate(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError("sim.duration_s must be > 0")
        if not is_seed(self.seed):
            raise ConfigurationError("sim.seed must be an unsigned 64-bit integer")
        if self.health_epoch_interval_s <= 0:
            raise ConfigurationError("sim.health_epoch_interval_s must be > 0")


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

    def overlaps(self, other: FaultSpec) -> bool:
        """Whether both windows [at, at + duration) fault one node at some
        instant: the later start comes before the earlier end. A node is
        faulted or not, so such windows may not both hold. A window whose
        end is its start in floats is empty and overlaps nothing."""
        return self.node_id == other.node_id and max(self.at_s, other.at_s) < min(
            self.at_s + self.duration_s, other.at_s + other.duration_s
        )


@dataclass
class Scenario:
    devices: list[DeviceProfile] = field(default_factory=list)
    end_devices: list[EndDevice] = field(default_factory=list)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    orchestrator: OrchestratorConfig = field(default_factory=OrchestratorConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    faults: list[FaultSpec] = field(default_factory=list)


def validate(scenario: Scenario) -> list[str]:
    """Every violated invariant as ``path: reason``; empty means ok. The
    scenario is checked as the codec decodes it, so a wrong type or a
    non-finite number is one error, the one its saved file would give."""
    return _decoded(scenario)[1]


def _decoded(scenario: Scenario) -> tuple[Scenario | None, list[str]]:
    """The copy of ``scenario`` that its saved file decodes to, and every
    invariant that copy violates; no copy if it does not decode."""
    try:
        scenario = from_dict(to_dict(scenario))
    except ConfigurationError as exc:
        return None, [str(exc)]
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
    for path, values in (("devices[{}].name", names), ("end_devices[{}].id", ids)):
        for i, value in enumerate(values):
            if not value:
                errors.append(f"{path.format(i)}: must be non-empty")
            elif _ID_FORBIDDEN_RE.search(value):
                errors.append(
                    f"{path.format(i)}: {value!r} may not contain ',', '\"', '|', ':' "
                    "or a control character"
                )
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
        for j, other in enumerate(scenario.faults[:i]):
            if fault.overlaps(other):
                errors.append(f"faults[{i}]: overlaps faults[{j}] on node {fault.node_id!r}")
    return scenario, errors


# ---------------------------------------------------------------------------
# strict dict <-> dataclass conversion, driven by the dataclass fields


@dataclass
class _CalibrationPoint:
    """One JSON entry of ``DeviceProfile.calibration``."""

    frame_size_px: int
    n_instances: int
    cpu_ms: float
    accel_ms: float


# The type of DeviceProfile.calibration, kept in JSON as a list of points.
_CALIBRATION = dict[tuple[int, int], tuple[float, float]]


@functools.cache
def _schema(cls: type) -> tuple[dict[str, object], tuple[str, ...]]:
    """Resolved field types of a dataclass, in field order, and the names with no default."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    required = tuple(
        f.name
        for f in fields
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    )
    return {f.name: hints[f.name] for f in fields}, required


def _decode_object(cls: type, value, path: str):
    """A ``cls`` from a JSON object; ``path`` is empty at the document root."""
    if not isinstance(value, dict):
        raise ConfigurationError(
            f"{path or 'scenario'}: expected an object, got {type(value).__name__}"
        )
    types, required = _schema(cls)
    if not types.keys() >= value.keys():
        unknown = sorted(value.keys() - types.keys())
        raise ConfigurationError(f"{path or 'scenario'}: unknown keys {unknown}")
    prefix = f"{path}." if path else ""
    for name in required:
        if name not in value:
            raise ConfigurationError(f"{prefix}{name}: required")
    return cls(**{name: _decode(types[name], item, prefix + name) for name, item in value.items()})


def _number(value, path: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{path}: expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(f"{path}: expected a finite number, got {value!r}")
    return value


def _decode(tp, value, path: str):
    """``value`` parsed from JSON as the resolved field type ``tp``."""
    if tp is float:
        try:
            return float(_number(value, path))
        except OverflowError:  # an integer beyond the float range
            raise ConfigurationError(f"{path}: expected a finite number, got {value!r}") from None
    if tp is int:
        value = _number(value, path)
        if isinstance(value, float):
            if not value.is_integer():
                raise ConfigurationError(f"{path}: expected an integer, got {value!r}")
            value = int(value)
        return value
    if tp is str:
        if not isinstance(value, str):
            raise ConfigurationError(f"{path}: expected a string, got {value!r}")
        return value
    if tp is bool:
        if not isinstance(value, bool):
            raise ConfigurationError(f"{path}: expected true/false, got {value!r}")
        return value
    if tp == _CALIBRATION:
        table = {}
        for j, point in enumerate(_decode(list[_CalibrationPoint], value, path)):
            key = (point.frame_size_px, point.n_instances)
            if key in table:
                raise ConfigurationError(f"{path}[{j}]: duplicate calibration point {key}")
            table[key] = (point.cpu_ms, point.accel_ms)
        return table
    if typing.get_origin(tp) is list:
        if not isinstance(value, list):
            raise ConfigurationError(f"{path}: expected a list, got {type(value).__name__}")
        (item_type,) = typing.get_args(tp)
        return [_decode(item_type, item, f"{path}[{i}]") for i, item in enumerate(value)]
    if dataclasses.is_dataclass(tp):
        return _decode_object(tp, value, path)
    raise TypeError(f"{path}: no decoder for field type {tp!r}")


def _encode(value):
    """Inverse of ``_decode``: dataclasses become objects in field order.
    A value of no field type is kept as it is, for ``_decode`` to reject."""
    if isinstance(value, (str, int, float)):
        return value
    if isinstance(value, np.integer):  # a seed, which is_seed accepts as one
        return int(value)
    if isinstance(value, list):
        return [_encode(item) for item in value]
    if isinstance(value, dict):  # the only dict field is DeviceProfile.calibration
        try:
            return [vars(_CalibrationPoint(f, n, *ms)) for (f, n), ms in sorted(value.items())]
        except (TypeError, ValueError):  # keys or latencies that are no pairs, or keys that do not sort
            return value
    if not dataclasses.is_dataclass(value):
        return value
    return {name: _encode(getattr(value, name)) for name in _schema(type(value))[0]}


def from_dict(doc: dict) -> Scenario:
    """Build a scenario from a parsed document, rejecting unknown keys."""
    return _decode_object(Scenario, doc, "")


def to_dict(scenario: Scenario) -> dict:
    """Inverse of ``from_dict``; the pair round-trips."""
    return _encode(scenario)


def load_scenario(path: str | Path) -> Scenario:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from None
    return from_dict(doc)


def scenario_text(scenario: Scenario) -> str:
    """The canonical text of a scenario: its document, keys sorted and
    indented by two, and a newline. ``save_scenario`` writes it."""
    return json.dumps(to_dict(scenario), indent=2, sort_keys=True) + "\n"


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(scenario_text(scenario))
