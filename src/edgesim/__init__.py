"""edgesim: deterministic simulation of heterogeneous edge AI inference clusters.

Models a cluster of accelerator-equipped edge nodes serving video
inference streams: heavy-tailed link latency, per-node lifecycle latency
surfaces, health-check states, service discovery, and QoS-driven
offloading, all driven by a reproducible discrete-event loop.
"""

from .device_model import DeviceProfile, InferenceTask, NodeRuntime, predict_components
from .net_model import EmaWeights, Nlm, StableParams, sample_stable
from .orchestrator import AllocationWeights, MigrationRecord
from .profiler_health import HealthState, ProfilerState, classify, evaluate_health
from .scenario import EndDevice, Scenario, load_scenario, save_scenario, validate
from .sim_engine import MetricsReport, Simulation, run

__version__ = "0.1.0"

__all__ = [
    "AllocationWeights",
    "DeviceProfile",
    "EmaWeights",
    "EndDevice",
    "HealthState",
    "InferenceTask",
    "MetricsReport",
    "MigrationRecord",
    "Nlm",
    "NodeRuntime",
    "ProfilerState",
    "Scenario",
    "Simulation",
    "StableParams",
    "classify",
    "evaluate_health",
    "load_scenario",
    "predict_components",
    "run",
    "sample_stable",
    "save_scenario",
    "validate",
    "__version__",
]
