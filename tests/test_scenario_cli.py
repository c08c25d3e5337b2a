import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

from edgesim import presets
from edgesim.cli import FRAME_COLUMNS, main
from edgesim.errors import ConfigurationError
from edgesim.scenario import from_dict, load_scenario, save_scenario, to_dict, validate


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

    def test_unknown_fault_node_reported(self):
        doc = to_dict(presets.default_scenario())
        doc["faults"] = [{"node_id": "ghost", "at_s": 1.0, "duration_s": 1.0}]
        errors = validate(from_dict(doc))
        assert any("ghost" in e for e in errors)

    def test_duplicate_node_names_reported(self):
        scenario = presets.default_scenario()
        scenario.devices.append(scenario.devices[0])
        errors = validate(scenario)
        assert any("unique" in e for e in errors)


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

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            load_scenario(path)


def run_cli(*args):
    return main(list(args))


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestRunCommand:
    def test_writes_all_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--scenario", "default", "--seed", "42", "--out", str(out)) == 0
        for name in ("report.json", "frames.csv", "decisions.log", "summary.txt"):
            assert (out / name).exists(), name

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("run", "--scenario", "overload", "--seed", "42", "--out", str(a))
        run_cli("run", "--scenario", "overload", "--seed", "42", "--out", str(b))
        for name in ("report.json", "frames.csv", "decisions.log", "summary.txt"):
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
        out = tmp_path / "sweep"
        assert (
            run_cli("run", "--scenario", "default", "--out", str(out), "--sweep", "seeds=1..5")
            == 0
        )
        dirs = sorted(p.name for p in out.iterdir())
        assert dirs == [f"seed-{i}" for i in range(1, 6)]
        for d in dirs:
            assert (out / d / "report.json").exists()

    def test_bad_sweep_spec_is_validation_error(self, tmp_path):
        assert (
            run_cli("run", "--scenario", "default", "--out", str(tmp_path), "--sweep", "oops")
            == 1
        )

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

    def test_missing_scenario_file_exits_one(self, tmp_path):
        assert run_cli("run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)) == 1

    def test_invalid_scenario_exits_one(self, tmp_path, capsys):
        doc = to_dict(presets.default_scenario())
        doc["end_devices"][0]["qos_ms"] = -1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("run", "--scenario", str(path), "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "rpi-1" in err

    @pytest.mark.parametrize(
        "flags", [("--seed", "-1"), ("--seed", str(2**64)), ("--sweep", f"seeds={2**64}..{2**64}")]
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
