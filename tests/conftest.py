import importlib.util
from pathlib import Path

import numpy as np
import pytest

from edgesim import presets


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def profiles():
    return {p.name: p for p in presets.default_profiles()}


def _perfbench_module(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's workload builders, ``perfbench/workloads.py``."""
    return _perfbench_module("workloads")


@pytest.fixture(scope="session")
def tracer():
    """The benchmark's tracer, ``perfbench/tracer.py``."""
    return _perfbench_module("tracer")
