"""Command-line front end: scenario runs, seed sweeps, report emission.

Outputs per run: ``report.json`` (full metrics), ``frames.csv`` (one row
per completed frame, sorted by completion time then frame id),
``decisions.log`` (orchestrator decision entries, one JSON object per
line), and ``summary.txt``. Files are written atomically. Verbosity is
controlled by the ``EDGESIM_LOG`` environment variable (error|info|debug).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
import tempfile
from pathlib import Path

from . import presets
from .errors import ConfigurationError, EdgesimError
from .orchestrator import POLICIES
from .scenario import Scenario, load_scenario, save_scenario, to_dict, validate
from .sim_engine import MetricsReport, run

log = logging.getLogger("edgesim")

FRAME_COLUMNS = [
    "time",
    "end_device",
    "node",
    "frame_size",
    "n_instances_at_service",
    "cpu_ms",
    "accel_ms",
    "network_ms",
    "e2e_ms",
    "state",
]

PRESET_SCENARIOS = {
    "default": presets.default_scenario,
    "overload": presets.overload_scenario,
    "fault": presets.fault_scenario,
}


def _setup_logging() -> None:
    level = os.environ.get("EDGESIM_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        level = "error"
    logging.basicConfig(stream=sys.stderr, level=levels[level], format="%(levelname)s %(message)s")


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def frames_csv(report: MetricsReport) -> str:
    lines = [",".join(FRAME_COLUMNS)]
    for f in report.frames:
        lines.append(
            ",".join(
                [
                    repr(f.completed_at),
                    f.end_device,
                    f.node,
                    str(f.frame_size_px),
                    str(f.n_instances),
                    repr(f.cpu_ms),
                    repr(f.accel_ms),
                    repr(f.net_out_ms + f.net_back_ms),
                    repr(f.e2e_ms),
                    f.state,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def decisions_log(report: MetricsReport) -> str:
    lines = [json.dumps(entry, sort_keys=True) for entry in report.decision_log]
    return "\n".join(lines) + ("\n" if lines else "")


def summary_text(report: MetricsReport) -> str:
    c = report.counters
    lines = [
        f"seed:                 {report.seed}",
        f"policy:               {report.policy}",
        f"offloading:           {'enabled' if report.offloading_enabled else 'disabled'}",
        f"duration_s:           {report.duration_s}",
        f"frames generated:     {c['frames_generated']}",
        f"frames completed:     {c['frames_completed']}",
        f"qos violations:       {c['qos_violations']}",
        f"migrations:           {c['migrations']}",
        f"assignment failures:  {c['assignment_failures']}",
        f"failed offloads:      {c['failed_offloads']}",
        f"deferred frames:      {c['deferred_frames']}",
        f"in flight at end:     {c['frames_in_flight_at_end']}",
        f"gossip kbps per node: {report.gossip_kbps_per_node:.1f}",
    ]
    for name, util in sorted(report.utilization.items()):
        lines.append(f"utilization {name}: {util:.4f}")
    return "\n".join(lines) + "\n"


def write_outputs(report: MetricsReport, out_dir: Path, fmt: str) -> None:
    if fmt in ("json", "all"):
        _atomic_write(out_dir / "report.json", json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    if fmt in ("csv", "all"):
        _atomic_write(out_dir / "frames.csv", frames_csv(report))
    _atomic_write(out_dir / "decisions.log", decisions_log(report))
    _atomic_write(out_dir / "summary.txt", summary_text(report))


def _load(scenario_arg: str) -> Scenario:
    if scenario_arg in PRESET_SCENARIOS and not Path(scenario_arg).exists():
        return PRESET_SCENARIOS[scenario_arg]()
    return load_scenario(scenario_arg)


def _parse_sweep(spec: str) -> list[int]:
    match = re.fullmatch(r"seeds=(\d+)\.\.(\d+)", spec)
    if not match:
        raise ConfigurationError(f"--sweep must look like seeds=a..b, got {spec!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if hi < lo:
        raise ConfigurationError(f"--sweep range is empty: {spec!r}")
    return list(range(lo, hi + 1))


def cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = _load(args.scenario)
        if args.policy:
            scenario.orchestrator.policy = args.policy
        errors = validate(scenario)
        seeds = _parse_sweep(args.sweep) if args.sweep else None
    except (ConfigurationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if errors:
        for err in errors:
            print(f"invalid scenario: {err}", file=sys.stderr)
        return 1
    try:
        out_dir = Path(args.out)
        if seeds is not None:
            for seed in seeds:
                report = run(scenario, seed=seed)
                write_outputs(report, out_dir / f"seed-{seed}", args.format)
                log.info("seed %d done: %s", seed, report.counters)
            print(f"swept seeds {seeds[0]}..{seeds[-1]} into {out_dir}")
            return 0
        seed = args.seed if args.seed is not None else scenario.sim.seed
        report = run(scenario, seed=seed)
        write_outputs(report, out_dir, args.format)
        print(summary_text(report), end="")
        return 0
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EdgesimError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def cmd_scenario(args: argparse.Namespace) -> int:
    if args.name not in PRESET_SCENARIOS:
        print(f"unknown preset {args.name!r}; choose from {sorted(PRESET_SCENARIOS)}", file=sys.stderr)
        return 1
    scenario = PRESET_SCENARIOS[args.name]()
    if args.out:
        save_scenario(scenario, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(to_dict(scenario), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgesim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="simulate a scenario and write reports")
    runp.add_argument("--scenario", required=True, help="scenario JSON path or preset name (default|overload|fault)")
    runp.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    runp.add_argument("--out", required=True, help="output directory")
    runp.add_argument("--policy", choices=POLICIES, default=None, help="override the placement policy")
    runp.add_argument("--format", choices=["json", "csv", "all"], default="all", help="which report formats to write")
    runp.add_argument("--sweep", default=None, help="seed sweep, e.g. seeds=1..5")
    runp.set_defaults(func=cmd_run)

    scen = sub.add_parser("scenario", help="emit a bundled scenario as JSON")
    scen.add_argument("--name", default="default")
    scen.add_argument("--out", default=None)
    scen.set_defaults(func=cmd_scenario)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EdgesimError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
