import csv
import dataclasses
import enum
import hashlib
import io
import json
import math
import re
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesim import presets
from edgesim import cli
from edgesim.cli import FRAME_COLUMNS, PRESET_SCENARIOS, main
from edgesim.device_model import DeviceProfile
from edgesim.errors import ConfigurationError
from edgesim.net_model import EmaWeights, StableParams
from edgesim.orchestrator import AllocationWeights, MigrationRecord
from edgesim.scenario import (
    EndDevice,
    FaultSpec,
    GossipConfig,
    NetworkConfig,
    OrchestratorConfig,
    Scenario,
    SimConfig,
    _CalibrationPoint,
    from_dict,
    load_scenario,
    save_scenario,
    scenario_text,
    to_dict,
    validate,
)
from edgesim.sim_engine import FrameRecord, FrameTable, MetricsReport, Simulation, run

from engine_checks import check_report, decisions_of, table_of

#: the files a run writes with ``--format all``
OUTPUT_FILES = ("report.json", "frames.csv", "decisions.log", "summary.txt")


class TestValidate:
    def test_bundled_scenarios_validate(self):
        for build in (presets.default_scenario, presets.overload_scenario, presets.fault_scenario):
            assert validate(build()) == []

    def test_decreasing_ema_weights_reported(self):
        scenario = presets.default_scenario()
        doc = to_dict(scenario)
        doc["network"]["ema_weights"] = {"w_1m": 0.5, "w_5m": 0.3, "w_15m": 0.2}
        errors = validate(from_dict(doc))
        assert any("non-decreasing" in e for e in errors)

    def test_negative_qos_names_the_device(self):
        scenario = presets.default_scenario()
        scenario.end_devices[1].qos_ms = -5.0
        errors = validate(scenario)
        assert any("rpi-2" in e and "qos" in e for e in errors)

    def test_frame_below_model_input_minimum_names_the_device(self):
        scenario = presets.default_scenario()
        scenario.end_devices[1].frame_size_px = 299
        assert validate(scenario) == [
            "end_devices[1] (rpi-2): end-device 'rpi-2': frame_size_px must be >= 300"
        ]
        scenario.end_devices[1].frame_size_px = 300
        assert validate(scenario) == []

    def test_unknown_fault_node_reported(self):
        doc = to_dict(presets.default_scenario())
        doc["faults"] = [{"node_id": "ghost", "at_s": 1.0, "duration_s": 1.0}]
        errors = validate(from_dict(doc))
        assert any("ghost" in e for e in errors)

    def test_overlapping_fault_windows_on_one_node_reported_with_both_paths(self):
        scenario = presets.default_scenario()
        scenario.faults = [
            FaultSpec(node_id="upsquared", at_s=5.0, duration_s=10.0),
            FaultSpec(node_id="coral", at_s=6.0, duration_s=10.0),
            FaultSpec(node_id="upsquared", at_s=7.0, duration_s=2.0),
        ]
        assert validate(scenario) == ["faults[2]: overlaps faults[0] on node 'upsquared'"]

    @pytest.mark.parametrize(
        "windows",
        [
            [(5.0, 5.0), (10.0, 2.0)],  # back to back: one ends as the next starts
            [(5.0, 10.0), (7.0, 0.0)],  # a zero-length window is empty
        ],
    )
    def test_disjoint_fault_windows_accepted(self, windows):
        scenario = presets.default_scenario()
        scenario.faults = [FaultSpec(node_id="upsquared", at_s=a, duration_s=d) for a, d in windows]
        assert validate(scenario) == []

    def test_non_finite_floats_set_in_python_reported_with_path(self):
        # validate decodes first, and the codec stops at the first value it
        # rejects, so each field is checked on its own
        scenario = presets.default_scenario()
        scenario.end_devices[0].qos_ms = math.nan
        assert validate(scenario) == ["end_devices[0].qos_ms: expected a finite number, got nan"]
        scenario = presets.default_scenario()
        scenario.network.edge_edge = dataclasses.replace(scenario.network.edge_edge, alpha=math.nan)
        assert validate(scenario) == ["network.edge_edge.alpha: expected a finite number, got nan"]

    def test_duplicate_node_names_reported(self):
        scenario = presets.default_scenario()
        scenario.devices.append(scenario.devices[0])
        errors = validate(scenario)
        assert any("unique" in e for e in errors)

    @pytest.mark.parametrize(
        "names, ids, paths",
        [
            # frames.csv writes ids unquoted: rows of 3, 10 and 11 fields
            (["upsquared"], ['rpi,"1'], ["end_devices[0].id"]),
            # the links a to b:c and a:b to c would share the stream label link:a:b:c
            (["a", "c"], ["a:b", "b:c"], ["end_devices[0].id", "end_devices[1].id"]),
            # the links a to b|c and a|b to c would share the nlm key a|b|c
            (["a", "c"], ["a|b", "b|c"], ["end_devices[0].id", "end_devices[1].id"]),
            (["edge\x7f1", "edge\t2"], ["rpi-1"], ["devices[0].name", "devices[1].name"]),
        ],
        ids=["comma-quote", "colon", "pipe", "control"],
    )
    def test_id_that_breaks_outputs_or_link_streams_rejected_with_path(self, names, ids, paths):
        scenario = presets.default_scenario()
        scenario.devices = [dataclasses.replace(scenario.devices[0], name=n) for n in names]
        scenario.end_devices = [dataclasses.replace(scenario.end_devices[0], id=i) for i in ids]
        errors = validate(scenario)
        assert [e.split(": ", 1)[0] for e in errors] == paths
        with pytest.raises(ConfigurationError, match=re.escape(paths[0])):
            Simulation(scenario)

    def test_empty_node_name_rejected_with_path(self):
        # an empty name used to run, reporting a node "" and links like "link::rpi-1"
        scenario = presets.default_scenario()
        scenario.devices[0] = dataclasses.replace(scenario.devices[0], name="")
        assert validate(scenario) == ["devices[0].name: must be non-empty"]
        with pytest.raises(ConfigurationError, match=re.escape("devices[0].name")):
            Simulation(scenario)

    def test_empty_end_device_id_rejected_with_path(self):
        scenario = presets.default_scenario()
        scenario.end_devices[0] = dataclasses.replace(scenario.end_devices[0], id="")
        assert validate(scenario) == ["end_devices[0].id: must be non-empty"]


class TestStrictParsing:
    def test_unknown_top_level_key_rejected(self):
        doc = to_dict(presets.default_scenario())
        doc["devcies"] = []
        with pytest.raises(ConfigurationError, match="devcies"):
            from_dict(doc)

    def test_unknown_nested_key_rejected(self):
        doc = to_dict(presets.default_scenario())
        doc["network"]["edge_edge"]["shape"] = 1.5
        with pytest.raises(ConfigurationError, match="shape"):
            from_dict(doc)

    def test_wrong_type_rejected_with_path(self):
        doc = to_dict(presets.default_scenario())
        doc["sim"]["duration_s"] = "forever"
        with pytest.raises(ConfigurationError, match="sim.duration_s"):
            from_dict(doc)

    def test_infinite_duration_rejected_with_path(self, tmp_path):
        path = tmp_path / "forever.json"
        path.write_text('{"sim": {"duration_s": Infinity}}')
        with pytest.raises(ConfigurationError, match="sim.duration_s"):
            load_scenario(path)

    def test_nan_qos_rejected_with_path(self):
        doc = to_dict(presets.default_scenario())
        doc["end_devices"][0]["qos_ms"] = math.nan
        with pytest.raises(ConfigurationError, match=r"end_devices\[0\]\.qos_ms"):
            from_dict(doc)

    def test_infinite_duration_fails_validation(self):
        scenario = presets.default_scenario()
        scenario.sim.duration_s = math.inf
        assert any("sim.duration_s" in e for e in validate(scenario))

    def test_round_trip(self, tmp_path):
        scenario = presets.overload_scenario()
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        loaded = load_scenario(path)
        assert to_dict(loaded) == to_dict(scenario)

    def test_duplicate_calibration_point_rejected_with_path(self):
        doc = to_dict(presets.default_scenario())
        points = doc["devices"][0]["calibration"]
        points.append(dict(points[0]))
        path = re.escape(f"devices[0].calibration[{len(points) - 1}]")
        with pytest.raises(ConfigurationError, match=rf"^{path}: duplicate calibration point"):
            from_dict(doc)

    def test_integer_beyond_float_range_rejected_with_path(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"sim": {"duration_s": 1%s}}' % ("0" * 400))
        with pytest.raises(ConfigurationError, match="sim.duration_s: expected a finite number"):
            load_scenario(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            load_scenario(path)

    def test_overlong_integer_literal_rejected(self, tmp_path):
        path = tmp_path / "digits.json"
        path.write_text('{"sim": {"seed": 1%s}}' % ("0" * 5000))
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            load_scenario(path)


# Every dataclass in the document, keyed by where its first instance sits
# in ``to_dict(presets.fault_scenario())``.
SECTIONS = {
    (): Scenario,
    ("devices", 0): DeviceProfile,
    ("devices", 0, "calibration", 0): _CalibrationPoint,
    ("end_devices", 0): EndDevice,
    ("network",): NetworkConfig,
    ("network", "edge_edge"): StableParams,
    ("network", "ema_weights"): EmaWeights,
    ("network", "gossip"): GossipConfig,
    ("orchestrator",): OrchestratorConfig,
    ("orchestrator", "allocation_weights"): AllocationWeights,
    ("sim",): SimConfig,
    ("faults", 0): FaultSpec,
}

INT_FIELDS = [
    (("devices", 0, "calibration", 0), "frame_size_px"),
    (("devices", 0, "calibration", 0), "n_instances"),
    (("end_devices", 0), "frame_size_px"),
    (("sim",), "seed"),
]

# sha256 of ``json.dumps(to_dict(preset), indent=2, sort_keys=True)``: the
# document written before the codec was derived from the dataclasses, less
# the two device fields and ``sim.profiler_window``, since deleted as unread.
PRESET_SHA256 = {
    "default": "669d7a069e810ce03f918248c31dd912bed8558548ccd7ee9fe51ac694e916a9",
    "overload": "8ff6d27bf39c107d402eda8058798f12f3ad862c789087d900ed249d68cb0788",
    "fault": "1d5db327b61459f932bdfbad982c1df27e0f08f24b4f4afe35045fc05f938d77",
}


def _path(steps) -> str:
    return "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in steps).lstrip(".")


def _section(doc, steps):
    for step in steps:
        doc = doc[step]
    return doc


def _values(tp):
    """Hypothesis strategy for any value the codec accepts as type ``tp``."""
    if tp is float:
        return st.floats(allow_nan=False, allow_infinity=False)
    if tp is int:
        return st.integers(min_value=0, max_value=2**64 - 1)
    if tp is str:
        return st.text(max_size=6)
    if tp is bool:
        return st.booleans()
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is list:
        return st.lists(_values(args[0]), max_size=2)
    if origin is dict:
        return st.dictionaries(_values(args[0]), _values(args[1]), max_size=3)
    if origin is tuple:
        return st.tuples(*map(_values, args))
    hints = typing.get_type_hints(tp)
    return st.builds(tp, **{f.name: _values(hints[f.name]) for f in dataclasses.fields(tp)})


# One mutation of the default preset's document per rule, and the one
# error it must give: through from_dict for a codec rule, validate otherwise.
RULE_MUTATIONS = [
    (("end_devices", 0, "service"), "Obj_D",
     "end_devices[0] (rpi-1): end-device 'rpi-1': service 'Obj_D' must be lowercase alphanumeric or hyphen"),
    (("end_devices", 0, "start_s"), -0.5, "end_devices[0] (rpi-1): end-device 'rpi-1': start_s must be >= 0"),
    (("network", "gossip", "interval_s"), 0.0, "network: gossip.interval_s must be > 0"),
    (("network", "gossip", "message_bytes"), -1.0, "network: gossip.message_bytes must be >= 0"),
    (("network", "link_budget_ms"), 0.0, "network: network.link_budget_ms must be > 0"),
    (("network", "floor_ms"), -1.0, "network: network.floor_ms must be >= 0"),
    (("network", "ema_weights"), {"w_1m": -0.1, "w_5m": 0.3, "w_15m": 0.8},
     "network: EMA weights must be >= 0, got (-0.1, 0.3, 0.8)"),
    (("orchestrator", "policy"), "fastest",
     "orchestrator: orchestrator.policy must be one of ('min-latency', 'weighted'), got 'fastest'"),
    (("orchestrator", "warn_fraction"), 0.9,
     "orchestrator: thresholds must satisfy 0 < warn_fraction < critical_fraction <= 1"),
    (("orchestrator", "cool_down_s"), -1.0, "orchestrator: orchestrator.cool_down_s must be >= 0"),
    (("orchestrator", "handover_overhead_ms"), -1.0,
     "orchestrator: orchestrator.handover_overhead_ms must be >= 0"),
    (("faults",), [{"node_id": "coral", "at_s": -1.0, "duration_s": 1.0}],
     "faults[0]: fault on 'coral': at_s must be >= 0"),
    (("faults",), [{"node_id": "coral", "at_s": 1.0, "duration_s": -1.0}],
     "faults[0]: fault on 'coral': duration_s must be >= 0"),
    (("devices",), [], "devices: at least one edge node is required"),
    (("end_devices",), [], "end_devices: at least one end-device is required"),
    (("end_devices", 1, "id"), "rpi-1", "end_devices: ids must be unique"),
    (("end_devices", 0, "id"), "coral", "end_devices: ids collide with node names: ['coral']"),
    (("devices", 0, "model_load_ms"), -1.0, "devices[0]: device 'upsquared': model_load_ms must be >= 0"),
    (("devices", 0, "calibration", 0, "accel_ms"), 0.0,
     "devices[0]: device 'upsquared': non-positive latency at (600, 1)"),
    # (1200, 1) below (600, 1), still below (1200, 2)
    (("devices", 0, "calibration", 4, "cpu_ms"), 1.0,
     "devices[0]: device 'upsquared': latencies must be non-decreasing in frame size at 1 instances"),
    (("sim",), 1, "sim: expected an object, got int"),
    (("devices", 0, "name"), 1, "devices[0].name: expected a string, got 1"),
    (("sim", "preload_models"), "no", "sim.preload_models: expected true/false, got 'no'"),
    (("faults",), {}, "faults: expected a list, got dict"),
]


@pytest.mark.parametrize(
    "steps, value, message", RULE_MUTATIONS, ids=[f"{_path(s)}={v!r}" for s, v, _ in RULE_MUTATIONS]
)
def test_each_rule_gives_its_exact_message(steps, value, message):
    doc = to_dict(presets.default_scenario())
    _section(doc, steps[:-1])[steps[-1]] = value
    try:
        errors = validate(from_dict(doc))
    except ConfigurationError as exc:
        errors = [str(exc)]
    assert errors == [message]


class TestCodec:
    @settings(max_examples=150, deadline=None)
    @given(_values(Scenario))
    def test_round_trip_through_json(self, scenario):
        assert from_dict(json.loads(json.dumps(to_dict(scenario)))) == scenario

    @pytest.mark.parametrize("steps", list(SECTIONS), ids=_path)
    def test_unknown_key_rejected_with_path(self, steps):
        doc = to_dict(presets.fault_scenario())
        _section(doc, steps)["bogus"] = 1
        where = re.escape(_path(steps) or "scenario")
        with pytest.raises(ConfigurationError, match=rf"^{where}: unknown keys \['bogus'\]$"):
            from_dict(doc)

    @pytest.mark.parametrize("steps", list(SECTIONS), ids=_path)
    def test_field_required_exactly_when_it_has_no_default(self, steps):
        for f in dataclasses.fields(SECTIONS[steps]):
            doc = to_dict(presets.fault_scenario())
            del _section(doc, steps)[f.name]
            path = re.escape(_path((*steps, f.name)))
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                with pytest.raises(ConfigurationError, match=rf"^{path}: required$"):
                    from_dict(doc)
            else:
                parsed = from_dict(doc)
                for step in steps:
                    parsed = parsed[step] if isinstance(step, int) else getattr(parsed, step)
                default = f.default_factory() if f.default is dataclasses.MISSING else f.default
                assert getattr(parsed, f.name) == default

    @pytest.mark.parametrize("steps, name", INT_FIELDS, ids=[_path((*s, n)) for s, n in INT_FIELDS])
    def test_int_field_rejects_fractional_and_accepts_integral_float(self, steps, name):
        doc = to_dict(presets.fault_scenario())
        section = _section(doc, steps)
        section[name] = float(section[name]) + 0.5
        path = re.escape(_path((*steps, name)))
        with pytest.raises(ConfigurationError, match=rf"^{path}: expected an integer"):
            from_dict(doc)
        section[name] -= 0.5
        parsed = to_dict(from_dict(doc))
        assert type(_section(parsed, steps)[name]) is int

    def test_numpy_seed_is_written_as_an_int(self, tmp_path):
        # is_seed accepts numpy integers, so the codec must encode one
        scenario = presets.default_scenario()
        scenario.sim.seed = np.uint64(5)
        assert validate(scenario) == []
        save_scenario(scenario, tmp_path / "scenario.json")
        assert '"seed": 5\n' in (tmp_path / "scenario.json").read_text()
        cli.write_outputs(Simulation(scenario).run(), tmp_path / "numpy", "json")
        scenario.sim.seed = 5
        cli.write_outputs(Simulation(scenario).run(), tmp_path / "int", "json")
        assert (tmp_path / "numpy" / "report.json").read_bytes() == (tmp_path / "int" / "report.json").read_bytes()

    @pytest.mark.parametrize("name", sorted(PRESET_SHA256))
    def test_preset_documents_are_unchanged(self, name):
        text = json.dumps(to_dict(PRESET_SCENARIOS[name]()), indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == PRESET_SHA256[name]

    @pytest.mark.parametrize("name", sorted(PRESET_SHA256))
    def test_scenario_command_prints_and_saves_the_canonical_text(self, name, capsys, tmp_path):
        text = scenario_text(PRESET_SCENARIOS[name]())
        assert hashlib.sha256(text.removesuffix("\n").encode()).hexdigest() == PRESET_SHA256[name]
        assert main(["scenario", "--name", name]) == 0
        assert capsys.readouterr().out == text
        assert main(["scenario", "--name", name, "--out", str(tmp_path / "saved.json")]) == 0
        assert (tmp_path / "saved.json").read_text() == text


def run_cli(*args):
    return main(list(args))


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestRunCommand:
    def test_writes_all_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--scenario", "default", "--seed", "42", "--out", str(out)) == 0
        for name in OUTPUT_FILES:
            assert (out / name).exists(), name

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("run", "--scenario", "overload", "--seed", "42", "--out", str(a))
        run_cli("run", "--scenario", "overload", "--seed", "42", "--out", str(b))
        for name in OUTPUT_FILES:
            assert digest(a / name) == digest(b / name), name

    def test_scenario_file_path_accepted(self, tmp_path):
        spath = tmp_path / "custom.json"
        save_scenario(presets.default_scenario(), spath)
        out = tmp_path / "out"
        assert run_cli("run", "--scenario", str(spath), "--out", str(out)) == 0

    def test_frames_csv_schema_and_order(self, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--scenario", "overload", "--seed", "1", "--out", str(out))
        with open(out / "frames.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0].keys()) == FRAME_COLUMNS
        times = [float(r["time"]) for r in rows]
        assert times == sorted(times)

    def test_report_totals_match_frames_csv(self, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--scenario", "overload", "--seed", "1", "--out", str(out))
        report = json.loads((out / "report.json").read_text())
        with open(out / "frames.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert report["counters"]["frames_completed"] == len(rows)
        csv_violations = sum(1 for r in rows if float(r["e2e_ms"]) > 150.0)
        assert report["counters"]["qos_violations"] == csv_violations
        per_frame = {}
        for f in report["frames"]:
            assert f["net_out_ms"] + f["net_back_ms"] >= 0
            per_frame[f["frame_id"]] = f
        assert len(per_frame) == len(rows)

    def test_sweep_writes_one_directory_per_seed(self, tmp_path):
        # each seed's directory holds the bytes of a single run at that seed
        out = tmp_path / "sweep"
        assert run_cli("run", "--scenario", "fault", "--out", str(out), "--sweep", "seeds=1..3") == 0
        dirs = sorted(p.name for p in out.iterdir())
        assert dirs == [f"seed-{i}" for i in range(1, 4)]
        for seed in range(1, 4):
            single = tmp_path / f"single-{seed}"
            assert run_cli("run", "--scenario", "fault", "--seed", str(seed), "--out", str(single)) == 0
            assert sorted(p.name for p in (out / f"seed-{seed}").iterdir()) == sorted(OUTPUT_FILES)
            for name in OUTPUT_FILES:
                assert (out / f"seed-{seed}" / name).read_bytes() == (single / name).read_bytes(), name

    def test_bad_sweep_spec_is_validation_error(self, tmp_path, capsys):
        assert (
            run_cli("run", "--scenario", "default", "--out", str(tmp_path), "--sweep", "oops")
            == 1
        )
        assert capsys.readouterr().err.startswith("error: --sweep must look like seeds=a..b")

    def test_policy_flag_changes_decisions(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("run", "--scenario", "overload", "--seed", "1", "--out", str(a), "--policy", "min-latency")
        run_cli("run", "--scenario", "overload", "--seed", "1", "--out", str(b), "--policy", "weighted")
        assert digest(a / "decisions.log") != digest(b / "decisions.log")
        for path in (a, b):
            report = json.loads((path / "report.json").read_text())
            assert report["counters"]["frames_completed"] > 0

    def test_format_json_skips_csv(self, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--scenario", "default", "--out", str(out), "--format", "json")
        assert (out / "report.json").exists()
        assert not (out / "frames.csv").exists()
        assert (out / "summary.txt").exists()

    def test_format_csv_skips_json(self, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--scenario", "default", "--out", str(out), "--format", "csv")
        assert not (out / "report.json").exists()
        assert (out / "frames.csv").exists()

    def test_missing_scenario_file_exits_one(self, tmp_path, capsys):
        assert run_cli("run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_invalid_scenario_exits_one(self, tmp_path, capsys):
        doc = to_dict(presets.default_scenario())
        doc["end_devices"][0]["qos_ms"] = -1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "rpi-1" in err

    @pytest.mark.parametrize("flags", [(), ("--sweep", "seeds=1..3")])
    def test_invalid_scenario_prints_one_error_block(self, tmp_path, capsys, flags):
        doc = to_dict(presets.default_scenario())
        doc["end_devices"][0]["qos_ms"] = -1
        doc["sim"]["duration_s"] = -5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli("run", "--scenario", str(path), *flags, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid scenario:\n")
        assert err.count("invalid scenario") == 1
        assert "\n  end_devices[0] (rpi-1): " in err
        assert "\n  sim: " in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ("--seed", "-1"),
            ("--seed", str(2**64)),
            ("--sweep", f"seeds={2**64}..{2**64}"),
            # the first seed is valid: the sweep must fail before running it
            ("--sweep", f"seeds={2**64 - 1}..{2**64}"),
        ],
    )
    def test_out_of_range_seed_exits_one(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        assert run_cli("run", "--scenario", "default", *flags, "--out", str(out)) == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_scenario_subcommand_writes_preset(self, tmp_path):
        path = tmp_path / "overload.json"
        assert run_cli("scenario", "--name", "overload", "--out", str(path)) == 0
        assert validate(load_scenario(path)) == []

    def test_seed_overrides_scenario_default(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("run", "--scenario", "default", "--seed", "1", "--out", str(a))
        run_cli("run", "--scenario", "default", "--seed", "2", "--out", str(b))
        assert digest(a / "frames.csv") != digest(b / "frames.csv")


def reference_json(report: MetricsReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def streamed_json(report: MetricsReport) -> str:
    buf = io.StringIO()
    cli.write_report_json(report, buf)
    return buf.getvalue()


def reference_log(report: MetricsReport) -> str:
    return "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in report.decision_log)


def streamed_log(report: MetricsReport) -> str:
    buf = io.StringIO()
    cli.write_decisions_log(report.decision_log, buf)
    return buf.getvalue()


class Level(enum.IntEnum):
    HIGH = 2


# strings the encoder must escape: non-ASCII, astral, quote, backslash, controls
AWKWARD = ["caf\u00e9 \U0001f600", 'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", ""]


def odd_frame(**values) -> FrameRecord:
    base = dict(
        frame_id=0,
        task_id="task-a",
        end_device="a",
        node="n",
        dispatched_to="n",
        frame_size_px=600,
        n_instances=1,
        qos_ms=300.0,
        emitted_at=0.0,
        dispatched_at=0.5,
        completed_at=1.25,
        net_out_ms=1e-7,
        queueing_ms=0.0,
        cpu_ms=12.5,
        accel_ms=3.0e21,
        model_load_ms=-0.0,
        processing_ms=15.5,
        net_back_ms=2.0,
        e2e_ms=20.0,
        state="pass",
    )
    base.update(values)
    return FrameRecord(**base)


def decision(i: int = 0, **values) -> dict:
    """A decision row: the five keys of the decision table, with
    ``values`` in place of the defaults."""
    return {"t": float(i), "kind": "assign", "digest": "0123456789ab", "decision": "n", "reason": "r", **values}


def odd_report(frames, decision_log, health_transitions=()) -> MetricsReport:
    return MetricsReport(
        seed=3,
        policy="p\u00e9",
        offloading_enabled=False,
        duration_s=math.inf,
        frames=table_of(frames),
        migrations=[],
        counters={},
        instance_series={"n": [(0.0, 0), (1.5, 2)]},
        utilization={"n": math.nan},
        breakdown=[{"nested": {"deeper": [[], {}, [None, True, False]]}}],
        health_transitions=list(health_transitions),
        node_events=[],
        decision_log=decisions_of(decision_log),
        nlm_snapshot={},
        registry_dump=[{"k": -math.inf, "tuple": (1, "x")}],
        gossip_kbps_per_node=np.float64(7.25),
    )


#: leaves that keep a row off its template: null, booleans, NaN and
#: ±Infinity among the floats, and subclasses of the plain types
ODD_LEAVES = (
    st.none()
    | st.booleans()
    | st.floats()
    | st.floats().map(np.float64)
    | st.sampled_from(list(Level))
)


def json_trees():
    """JSON-like values, with subclasses and non-str keys that the
    writer leaves to the reference encoder."""
    leaves = ODD_LEAVES | st.integers() | st.text()
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=4)
        | st.tuples(children, children)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
        | st.dictionaries(st.integers(), children, max_size=3),
        max_leaves=24,
    )


def row_values():
    """Mostly the str, int and finite float values of a flat row, ints in
    float slots included, with an odd value now and then."""
    return st.one_of(st.text(), st.integers(), st.floats(allow_nan=False, allow_infinity=False), ODD_LEAVES)


def section_elements():
    """Rows whose keys arrive in random order, and nested trees."""
    return st.dictionaries(st.text(max_size=4), row_values(), max_size=5) | json_trees()


def decision_rows():
    """Decision rows: any row value under each key but the digest, which
    is always 12 ASCII characters."""
    digest = st.text(st.characters(min_codepoint=0, max_codepoint=127), min_size=12, max_size=12)
    return st.fixed_dictionaries(
        {"t": row_values(), "kind": row_values(), "digest": digest, "decision": row_values(), "reason": row_values()}
    )


#: what a typed column of the frame table takes: ints or floats, bools and
#: IntEnum members among them, and every float, NaN and ±inf included
TYPED_VALUES = {
    "q": st.integers(-(2**63), 2**63 - 1) | st.booleans() | st.sampled_from(list(Level)),
    "d": (
        st.floats()
        | st.floats().map(np.float64)
        | st.integers(-(2**53), 2**53)
        | st.booleans()
        | st.sampled_from(list(Level))
    ),
}


def frame_values():
    """Up to four fields of a frame: any row value in a list column, and in
    a typed column any value its array takes."""
    strategies = {
        name: row_values() if type(column) is list else TYPED_VALUES[column.typecode]
        for name, column in FrameTable().columns.items()
    }
    return st.lists(st.sampled_from(list(strategies)), max_size=4, unique=True).flatmap(
        lambda names: st.fixed_dictionaries({name: strategies[name] for name in names})
    )


def int_valued_scenario() -> Scenario:
    """A lone stream whose start and budget are ints, as a scenario built
    in Python may hold them; the first frame also pays the model load."""
    scenario = presets.default_scenario()
    scenario.end_devices = scenario.end_devices[:1]
    scenario.end_devices[0].start_s = 2
    scenario.end_devices[0].qos_ms = 150
    scenario.sim.preload_models = False
    return scenario


def reference_csv(report: MetricsReport) -> str:
    """``frames.csv`` as an f-string of each record's fields writes it."""
    rows = (
        f"{f.completed_at!r},{f.end_device},{f.node},{f.frame_size_px},{f.n_instances},{f.cpu_ms!r},"
        f"{f.accel_ms!r},{f.net_out_ms + f.net_back_ms!r},{f.e2e_ms!r},{f.state}\n"
        for f in report.frames
    )
    return ",".join(FRAME_COLUMNS) + "\n" + "".join(rows)


class TestFrameColumns:
    """Frames are written from the engine's columns, each typed by its
    ``FrameRecord`` field."""

    def test_int_values_are_written_as_floats(self, tmp_path):
        # the engine runs on the scenario as the codec decodes it, so an int
        # in a float field is written as the float its saved copy holds
        scenario = int_valued_scenario()
        report = run(scenario, seed=1)
        first = report.frames[0]
        assert type(first.qos_ms) is float and type(first.dispatched_at) is float
        cli.write_outputs(report, tmp_path / "built", "all")
        text = (tmp_path / "built" / "report.json").read_text()
        assert '"qos_ms": 150.0,' in text and '"dispatched_at": 2.0,' in text
        assert text == reference_json(report)
        save_scenario(scenario, tmp_path / "scenario.json")
        cli.write_outputs(run(load_scenario(tmp_path / "scenario.json"), seed=1), tmp_path / "saved", "all")
        for name in OUTPUT_FILES:
            assert (tmp_path / "built" / name).read_bytes() == (tmp_path / "saved" / name).read_bytes(), name

    @pytest.mark.parametrize("name", ["int-valued", *sorted(PRESET_SCENARIOS), "control-churn"])
    def test_frames_csv_equals_the_per_record_f_string(self, name, tmp_path, workloads):
        if name == "int-valued":
            scenario = int_valued_scenario()
        elif name == "control-churn":
            scenario = workloads.build(name, 1)
        else:
            scenario = PRESET_SCENARIOS[name]()
        report = run(scenario, seed=1)
        cli.write_outputs(report, tmp_path, "csv")
        assert (tmp_path / "frames.csv").read_text() == reference_csv(report)

    def test_hand_built_records_match_the_per_record_f_string(self):
        frames = [
            odd_frame(),
            odd_frame(frame_id=1, qos_ms=250, cpu_ms=math.nan, state="a,b"),
            odd_frame(frame_id=2, node="m"),
        ]
        report = odd_report(frames, [])
        buf = io.StringIO()
        cli.write_frames_csv(report, buf)
        assert buf.getvalue() == reference_csv(report)


class TestStreamedReport:
    @pytest.mark.parametrize("name", sorted(PRESET_SCENARIOS))
    def test_presets_match_the_reference_encoder(self, name, tmp_path):
        report = run(PRESET_SCENARIOS[name](), seed=1)
        cli.write_outputs(report, tmp_path, "json")
        assert (tmp_path / "report.json").read_text() == reference_json(report)

    def test_run_without_frames_or_decisions(self):
        scenario = presets.default_scenario()
        scenario.end_devices = scenario.end_devices[:1]
        scenario.end_devices[0].start_s = scenario.sim.duration_s
        report = run(scenario, seed=1)
        assert len(report.frames) == 0 and len(report.decision_log) == 0 and report.migrations == []
        assert streamed_json(report) == reference_json(report)

    def test_empty_sections(self):
        report = odd_report([], [])
        assert '"frames": [],' in streamed_json(report)
        assert streamed_json(report) == reference_json(report)

    @pytest.mark.parametrize("text", AWKWARD)
    def test_awkward_strings_in_frame_rows_and_sections(self, text):
        decisions = [decision(kind=text, decision=text, reason=text)]
        report = odd_report([odd_frame(task_id=text, state=text)], decisions, [{text: text, "at": [text]}])
        assert streamed_json(report) == reference_json(report)
        assert streamed_log(report) == reference_log(report)

    def test_percent_signs_in_row_keys(self):
        # a row's keys are written into its %-template
        rows = [{"%": "a", "b%s": 1, "%%r": 2.5}, {"%(x)s": "%s", "y": "%"}]
        report = odd_report([odd_frame()], [decision(decision="%(t)s", reason="%d")], rows)
        report.nlm_snapshot = {"%": {"%d": "", "": "%"}}
        assert streamed_json(report) == reference_json(report)

    @pytest.mark.parametrize(
        "values",
        [
            {"cpu_ms": math.nan},
            {"accel_ms": math.inf},
            {"e2e_ms": -math.inf},
            {"task_id": None},
            {"frame_size_px": True, "n_instances": False},
            {"cpu_ms": np.float64(1.5)},
            {"n_instances": Level.HIGH},
            {"net_out_ms": 1e308, "net_back_ms": 1e308},  # finite, but they sum to inf
            {"emitted_at": 0, "qos_ms": 250},  # ints in float fields, kept as floats
            {"dispatched_to": [1.0, {"x": None}]},
        ],
    )
    def test_odd_values_in_frame_rows_and_sections(self, values):
        frames = [odd_frame(), odd_frame(frame_id=1, **values), odd_frame(frame_id=2)]
        report = odd_report(frames, [], [dict(values, kind="odd")])
        assert streamed_json(report) == reference_json(report)

    @pytest.mark.parametrize("where", ["frame", "decisions", "section"])
    def test_unencodable_value_raises_the_encoders_type_error(self, where):
        bad = {1, 2}
        if where == "frame":
            report = odd_report([odd_frame(), odd_frame(node=bad)], [])
        elif where == "decisions":
            report = odd_report([odd_frame()], [decision(kind=bad)])
        else:
            report = odd_report([odd_frame()], [], [{"kind": bad}])
        with pytest.raises(TypeError) as expected:
            reference_json(report)
        with pytest.raises(TypeError, match=re.escape(str(expected.value))):
            streamed_json(report)

    @settings(max_examples=300, deadline=None)
    @given(
        frames=st.lists(frame_values(), max_size=3),
        decisions=st.lists(decision_rows(), max_size=4),
        transitions=st.lists(section_elements(), max_size=4),
        links=st.dictionaries(st.text(max_size=4), section_elements(), max_size=3),
    )
    def test_random_sections_match_the_reference_encoder(self, frames, decisions, transitions, links):
        report = odd_report([odd_frame(**values) for values in frames], decisions, transitions)
        report.nlm_snapshot = links
        assert streamed_json(report) == reference_json(report)
        assert streamed_log(report) == reference_log(report)

    def test_failed_stream_leaves_the_old_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "report.json"
        cli._atomic_write(path, lambda handle: cli.write_report_json(odd_report([odd_frame()], []), handle))
        before = path.read_bytes()
        # "decision_log" sorts before "frames": the stream fails after
        # thousands of frame rows have gone to the temp file
        bad = odd_report([odd_frame(frame_id=n) for n in range(5000)] + [odd_frame(node=object())], [])
        with pytest.raises(TypeError):
            cli._atomic_write(path, lambda handle: cli.write_report_json(bad, handle))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("odd", [math.nan, True])
    def test_odd_row_sends_only_its_own_chunk_to_the_encoder(self, odd, monkeypatch):
        # 300 rows are two chunks of at most 256; row 270 is in the second
        n, at = 300, 270
        frames = [odd_frame(frame_id=i) for i in range(n)]
        # a float column keeps NaN; a bool it would hold as 1.0, so a bool
        # goes in a str column
        frames[at] = odd_frame(frame_id=at, **{"state" if odd is True else "cpu_ms": odd})
        decisions = [decision(i, decision=odd if i == at else "n") for i in range(n)]
        report = odd_report(frames, decisions)
        report.nlm_snapshot = {f"a|{i:03d}": {"latest_ms": odd if i == at else 1.5, "i": i} for i in range(n)}
        encoded = []
        dumps = cli._dumps

        def spy(value, level=2):
            encoded.append(value)
            return dumps(value, level)

        monkeypatch.setattr(cli, "_dumps", spy)
        assert streamed_json(report) == reference_json(report)
        assert streamed_log(report) == reference_log(report)
        rows = [value for value in encoded if type(value) is dict]
        assert [row["frame_id"] for row in rows if "frame_id" in row] == list(range(256, n))
        assert [row["t"] for row in rows if "kind" in row] == [float(i) for i in range(256, n)]
        assert [row["i"] for row in rows if "latest_ms" in row] == list(range(256, n))

    @pytest.mark.parametrize(
        "values, texts",
        [
            ([True, False, True], ["true", "false", "true"]),
            ([True, 1], None),
            ([0, False], None),
            ([False, 0.5], None),
            ([True, Level.HIGH], None),
            ([True, None], None),
        ],
    )
    def test_a_column_of_bools_and_only_bools_is_a_kind(self, values, texts):
        assert cli._json_column(values) == texts

    def test_bool_columns_fill_their_rows_and_a_bool_int_mix_goes_to_the_encoder(self, monkeypatch):
        # 300 migration rows are two chunks of at most 256; row 270, in the
        # second, has the int 1 where every other row has a bool
        n, at = 300, 270
        report = odd_report([], [])
        report.migrations = [
            MigrationRecord(
                f"task-{i}", "a", "b", "app-critical", 1.5, float(i), float(i) + 0.25,
                retried=i % 2 == 0, abandoned=1 if i == at else i % 3 == 0,
            )
            for i in range(n)
        ]
        encoded = []
        dumps = cli._dumps

        def spy(value, level=2):
            encoded.append(value)
            return dumps(value, level)

        monkeypatch.setattr(cli, "_dumps", spy)
        assert streamed_json(report) == reference_json(report)
        rows = [value for value in encoded if type(value) is dict and "decided_at" in value]
        assert [row["decided_at"] for row in rows] == [float(i) for i in range(256, n)]

    def test_one_chunk_of_rows_with_keys_in_different_orders(self):
        # the keys are template text too
        transitions = [
            {"kind": "a", "t%s": 1.0, "%(node)s": "n"},
            {"t%s": 2, "%(node)s": "m", "kind": "b"},
            {"%(node)s": "o%", "kind": "c", "t%s": 3.5},
        ]
        report = odd_report([odd_frame()], [], transitions)
        report.nlm_snapshot = {"x": {"b": 1, "a": "z"}, "y": {"a": "w", "b": 2.5}}
        assert streamed_json(report) == reference_json(report)
        # rows with as many keys but not the same ones are no chunk of rows
        report.health_transitions = [{"a": 1, "b": 2}, {"a": 3, "c": 4}]
        report.nlm_snapshot = {"x": {"a": "z", "b": 1}, "y": {"b": 2, "c": "w"}}
        assert streamed_json(report) == reference_json(report)

    @pytest.mark.parametrize(
        "odd",
        [
            {},
            {"t": math.nan},
            {"t": -math.inf},
            {"decision": True},
            {"decision": None},
            {"decision": {"nested": [1, 2.5, None]}},
            # the table's keys are fixed, so % reaches a line only in values
            {"kind": "%s", "decision": "%(t)s", "reason": "%d%%"},
        ],
    )
    def test_decisions_log_with_odd_rows(self, odd):
        # the first time is an int among float times; {} leaves every row flat
        decisions = [decision(i, t=float(i) if i else 0) for i in range(4)]
        decisions[2] = {**decisions[2], **odd}
        report = odd_report([], decisions)
        assert streamed_log(report) == reference_log(report)
        assert streamed_json(report) == reference_json(report)

    def test_decisions_log_lines_match_json_dumps(self, tmp_path):
        report = run(presets.overload_scenario(), seed=1)
        assert report.decision_log
        cli.write_outputs(report, tmp_path, "json")
        lines = [json.dumps(entry, sort_keys=True) + "\n" for entry in report.decision_log]
        assert (tmp_path / "decisions.log").read_text() == "".join(lines)


def _walk(obj, steps):
    """The object that document ``steps`` lead to in a scenario."""
    for step in steps:
        obj = obj[step] if isinstance(step, int) else getattr(obj, step)
    return obj


def _put(scenario: Scenario, steps, value) -> None:
    """Set the value that document ``steps`` lead to in the scenario object
    itself, past the codec: a calibration latency inside its table's tuple,
    and a field of a frozen dataclass in place."""
    if "calibration" in steps:
        *head, j, name = steps
        table = _walk(scenario, head)
        key = sorted(table)[j]
        latencies = list(table[key])
        latencies[("cpu_ms", "accel_ms").index(name)] = value
        table[key] = tuple(latencies)
    else:
        object.__setattr__(_walk(scenario, steps[:-1]), steps[-1], value)


def _leaves(doc, steps=()):
    """The steps to every str, number and bool of a scenario document, but
    a calibration point's key fields, which the object holds as a dict key."""
    if isinstance(doc, dict):
        for key, item in doc.items():
            yield from _leaves(item, (*steps, key))
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from _leaves(item, (*steps, i))
    elif not ("calibration" in steps and steps[-1] in ("frame_size_px", "n_instances")):
        yield steps


#: the float fields that a scenario built in Python may hold as ints
INT_VALUED = ("start_s", "qos_ms", "at_s", "duration_s", "model_load_ms", "cpu_ms", "accel_ms")


#: the steps to each of them in the fault preset, the one with a fault window
FAULT_INT_VALUED = [
    steps
    for steps in _leaves(to_dict(presets.fault_scenario()))
    if steps[0] in ("devices", "end_devices", "faults") and steps[-1] in INT_VALUED
]


class TestOneScenarioPerRun:
    """A run decodes the scenario once and reads only that copy, so the
    codec is the one type gate, and a scenario built in Python runs as its
    saved file does."""

    def test_wrong_types_set_in_python_repro(self):
        scenario = presets.default_scenario()
        scenario.end_devices[0].fps = "3"
        assert validate(scenario) == ["end_devices[0].fps: expected a number, got '3'"]
        scenario = presets.default_scenario()
        scenario.orchestrator.offloading_enabled = "no"
        assert validate(scenario) == ["orchestrator.offloading_enabled: expected true/false, got 'no'"]
        with pytest.raises(ConfigurationError, match=re.escape("orchestrator.offloading_enabled")):
            Simulation(scenario)

    @pytest.mark.parametrize("value", ["3", None, [], True, math.nan], ids=repr)
    def test_wrong_type_in_any_leaf_is_the_codecs_one_error(self, value):
        doc = to_dict(presets.default_scenario())
        for steps in _leaves(doc):
            if type(_section(doc, steps)) is type(value):
                continue  # "3" in a str field, or True in a bool field
            wrong = to_dict(presets.default_scenario())
            _section(wrong, steps[:-1])[steps[-1]] = value
            with pytest.raises(ConfigurationError) as saved:
                from_dict(wrong)
            expected = str(saved.value)
            assert expected.startswith(_path(steps) + ": ")
            scenario = presets.default_scenario()
            _put(scenario, steps, value)
            assert validate(scenario) == [expected]
            with pytest.raises(ConfigurationError, match=re.escape(expected)):
                Simulation(scenario)

    def test_calibration_key_of_another_type_is_one_error(self):
        scenario = presets.default_scenario()
        scenario.devices[0].calibration[("600", 1)] = (1.0, 1.0)
        assert validate(scenario) == ["devices[0].calibration: expected a list, got dict"]

    @settings(max_examples=25, deadline=None)
    @given(chosen=st.lists(st.sampled_from(FAULT_INT_VALUED), min_size=1, unique=True))
    def test_int_valued_floats_write_the_bytes_of_the_saved_copy(self, chosen, tmp_path_factory):
        scenario = presets.fault_scenario()
        doc = to_dict(scenario)
        for steps in chosen:
            _put(scenario, steps, math.ceil(_section(doc, steps)))
        assert validate(scenario) == []
        out = tmp_path_factory.mktemp("int-valued")
        save_scenario(scenario, out / "scenario.json")
        cli.write_outputs(run(scenario, seed=1), out / "built", "all")
        cli.write_outputs(run(load_scenario(out / "scenario.json"), seed=1), out / "saved", "all")
        for name in OUTPUT_FILES:
            assert (out / "built" / name).read_bytes() == (out / "saved" / name).read_bytes(), name

    def test_changing_the_callers_scenario_after_construction_changes_no_byte(self, tmp_path, monkeypatch):
        decodes = []
        decode = from_dict
        monkeypatch.setattr("edgesim.scenario.from_dict", lambda doc: decodes.append(doc) or decode(doc))
        scenario = presets.default_scenario()
        sim = Simulation(scenario, seed=1)
        assert len(decodes) == 1 and sim.scenario is not scenario
        scenario.sim.duration_s /= 2
        scenario.end_devices[0].fps = 4.0
        scenario.orchestrator.offloading_enabled = not scenario.orchestrator.offloading_enabled
        report = sim.run()
        check_report(report)
        cli.write_outputs(report, tmp_path / "changed", "all")
        cli.write_outputs(run(presets.default_scenario(), seed=1), tmp_path / "unchanged", "all")
        for name in OUTPUT_FILES:
            assert (tmp_path / "changed" / name).read_bytes() == (tmp_path / "unchanged" / name).read_bytes(), name
