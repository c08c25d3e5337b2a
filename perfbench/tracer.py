"""Outside-in tracer: spans around edgesim's public functions, from outside.

``Tracer.install()`` replaces each function named in ``SPANS`` with a
wrapper that records one span (name, start, end, parent) per call. The
function is replaced in its home module and in every ``edgesim`` module
that imported it by name, because a name is looked up where it is used
(``sim_engine`` calls its own ``service_request`` binding, not
``device_model``'s). Nothing under ``src/`` changes. A name that is
missing makes ``install()`` raise, so a refactor cannot silently zero a
layer: the benchmark must be updated with it.

Spans are kept in flat in-memory arrays and written once, at the end.
A span's self time is its duration minus the durations of its direct
children; spans nest strictly because the simulator is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

#: (home module, attribute path) of every traced function. The span name
#: is ``<layer>.<attribute path>``, the layer being the home module.
SPANS = [
    ("edgesim.scenario", "load_scenario"),
    ("edgesim.scenario", "validate"),
    ("edgesim.sim_engine", "Simulation.__init__"),
    ("edgesim.sim_engine", "Simulation.run"),
    ("edgesim.net_model", "sample_stable"),
    ("edgesim.net_model", "sample_stable_many"),
    ("edgesim.net_model", "Nlm.add_link"),
    ("edgesim.net_model", "Nlm.observe"),
    ("edgesim.net_model", "Nlm.pairs"),
    ("edgesim.net_model", "Nlm.snapshot"),
    ("edgesim.device_model", "service_request"),
    ("edgesim.device_model", "predict_components"),
    ("edgesim.device_model", "admit_task"),
    ("edgesim.device_model", "remove_task"),
    ("edgesim.device_model", "preload_model"),
    ("edgesim.profiler_health", "classify"),
    ("edgesim.profiler_health", "evaluate_health"),
    ("edgesim.profiler_health", "merge_since"),
    ("edgesim.profiler_health", "ProfilerState.register_task"),
    ("edgesim.profiler_health", "ProfilerState.forget_task"),
    ("edgesim.profiler_health", "ProfilerState.record_inference"),
    ("edgesim.discovery", "resolve"),
    ("edgesim.discovery", "gossip_bandwidth"),
    ("edgesim.discovery", "ServiceRegistry.register"),
    ("edgesim.discovery", "ServiceRegistry.set_health"),
    ("edgesim.discovery", "ServiceRegistry.dump"),
    ("edgesim.orchestrator", "assign_node"),
    ("edgesim.orchestrator", "assign_weighted"),
    ("edgesim.orchestrator", "select_offload_target"),
    ("edgesim.orchestrator", "pick_victim"),
    ("edgesim.orchestrator", "migration_cost_ms"),
    ("edgesim.orchestrator", "decision_digest"),
    ("edgesim.cli", "write_outputs"),
]

#: Functions whose calls are counted without a span: the event handler
#: runs once per event, and a span there would only add overhead.
COUNTED = [("edgesim.sim_engine", "Simulation._handle")]

#: Counters fed from a call's result: the number of latencies a sampler
#: call returned, and the number of providers a lookup resolved to.
RESULT_COUNTS = {
    "net_model.sample_stable_many": ("net_model.draws", np.size),
    "discovery.resolve": ("discovery.candidates", len),
}

_SAMPLERS = ("net_model.sample_stable", "net_model.sample_stable_many")
_DECISIONS = tuple(
    f"orchestrator.{name}"
    for name in ("assign_node", "assign_weighted", "select_offload_target", "pick_victim")
)


class TracerError(RuntimeError):
    """A traced name is missing; the benchmark no longer matches the code."""


def _resolve(module_name: str, path: str):
    """(owner, attribute, function) for a dotted attribute of a module."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TracerError(f"{module_name}.{path}: {part!r} is missing")
    fn = getattr(owner, attr, None)
    if not callable(fn):
        raise TracerError(f"{module_name}.{path} is missing or not callable")
    return owner, attr, fn


class Tracer:
    """Records spans for the functions in ``SPANS`` until ``uninstall()``."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function; raise ``TracerError`` if one is missing."""
        plan = []
        for targets, make in ((SPANS, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for module_name, path in targets:
                owner, attr, fn = _resolve(module_name, path)
                plan.append((owner, attr, fn, make(fn, f"{module_name.split('.')[-1]}.{path}")))
        for owner, attr, fn, wrapper in plan:
            self._replace(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            # bindings made by ``from home import name`` elsewhere in the package
            for module_name, module in sorted(sys.modules.items()):
                if module_name.startswith("edgesim") and module is not owner:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._replace(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, clock = self._stack, time.perf_counter
        counted = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counted is not None:
                self.counts[counted[0]] += int(counted[1](result))
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.uint16),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }

    def write(self, path) -> None:
        """Save every span (name id, parent index, start, end) and the names."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and self time in s.

        ``net_model.sampling`` holds the samplers' outermost calls, so a
        sampler that calls the other is timed once.
        """
        a = self.arrays()
        duration = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child_time = np.bincount(a["parent"][nested], weights=duration[nested], minlength=len(duration))
        self_time = duration - child_time
        sampler = np.isin(a["name"], [self.names.index(n) for n in _SAMPLERS])
        parent_is_sampler = np.zeros_like(sampler)
        parent_is_sampler[nested] = sampler[a["parent"][nested]]
        out = {}
        for name, mask in [(n, a["name"] == i) for i, n in enumerate(self.names)] + [
            ("net_model.sampling", sampler & ~parent_is_sampler)
        ]:
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(duration[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return out


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced run.

    ``extra`` carries what the run knows outside the spans: the queue
    length after construction, node count, and report-derived ratios.
    """
    spans = tracer.by_name()
    counts = tracer.counts

    def total(name: str) -> float:
        return spans[name]["total_s"]

    def calls(*names: str) -> int:
        return sum(spans[n]["calls"] for n in names)

    layer_self = Counter()
    for name in tracer.names:
        layer_self[name.split(".", 1)[0]] += spans[name]["self_s"]
    draws = counts["net_model.draws"]
    sample_s = total("net_model.sampling")
    resolves = calls("discovery.resolve")
    return {
        "net_model.draws": draws,
        "net_model.draw_us": sample_s / draws * 1e6 if draws else 0.0,
        "net_model.sample_s": sample_s,
        "net_model.observe_s": total("net_model.Nlm.observe"),
        "net_model.pairs_calls": calls("net_model.Nlm.pairs"),
        "net_model.pairs_s": total("net_model.Nlm.pairs"),
        "device_model.service_calls": calls("device_model.service_request"),
        "device_model.predict_calls": calls("device_model.predict_components"),
        "device_model.predict_s": total("device_model.predict_components"),
        "device_model.self_s": layer_self["device_model"],
        "sim_engine.events": counts["sim_engine.Simulation._handle"],
        "sim_engine.queued_at_start": extra["queued_at_start"],
        "sim_engine.self_s": layer_self["sim_engine"],
        "sim_engine.frames_completed_ratio": extra["frames_completed_ratio"],
        "profiler_health.evaluate_calls": calls("profiler_health.evaluate_health"),
        "profiler_health.self_s": layer_self["profiler_health"],
        "discovery.resolve_calls": resolves,
        "discovery.self_s": layer_self["discovery"],
        "discovery.candidate_ratio": (
            counts["discovery.candidates"] / (resolves * extra["nodes"]) if resolves else 0.0
        ),
        "orchestrator.decisions": calls(*_DECISIONS),
        "orchestrator.digest_calls": calls("orchestrator.decision_digest"),
        "orchestrator.self_s": layer_self["orchestrator"],
        "orchestrator.migration_ok_ratio": extra["migration_ok_ratio"],
        "orchestrator.offload_fail_ratio": extra["offload_fail_ratio"],
        "scenario.load_s": total("scenario.load_scenario"),
        "cli.write_s": total("cli.write_outputs"),
        "cli.report_bytes": extra["report_bytes"],
    }
