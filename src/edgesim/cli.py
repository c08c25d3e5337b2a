"""Command-line front end: scenario runs, seed sweeps, report emission.

Outputs per run: ``report.json`` (full metrics), ``frames.csv`` (one row
per completed frame, sorted by completion time then frame id),
``decisions.log`` (orchestrator decision entries, one JSON object per
line), and ``summary.txt``. Files are written atomically. ``report.json``
holds the bytes of ``json.dumps(report.to_dict(), sort_keys=True,
indent=2)`` plus a newline, and each ``decisions.log`` line those of
``json.dumps(entry, sort_keys=True)``. Neither file is built whole: one
formatter writes both a chunk of rows at a time. A chunk of flat rows
(frames from the run's ``FrameTable``, or dicts that share two or more
str keys) is formatted a column at a time and filled into a cached
%-template; any other chunk goes through ``json.dumps`` an element at a
time.
Verbosity is controlled by the ``EDGESIM_LOG`` environment variable
(error|info|debug).
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import re
import sys
import tempfile
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Callable, TextIO

from . import presets
from .errors import ConfigurationError, EdgesimError
from .orchestrator import POLICIES
from .scenario import Scenario, is_seed, load_scenario, save_scenario, to_dict, validate
from .sim_engine import FrameTable, MetricsReport, run

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
#: the ``FrameRecord`` fields that frames.csv reads, in the order it reads them
_CSV_FIELDS = (
    "completed_at", "end_device", "node", "frame_size_px", "n_instances",
    "cpu_ms", "accel_ms", "net_out_ms", "net_back_ms", "e2e_ms", "state",
)

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


def _atomic_write(path: Path, emit: Callable[[TextIO], object]) -> None:
    """Write ``path`` through ``emit(handle)`` into a temp file beside it,
    then rename it into place. If ``emit`` raises, the temp file is removed
    and a file already at ``path`` is left as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            emit(handle)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_frames_csv(report: MetricsReport, handle: TextIO) -> None:
    """One row per frame, filled from the frame table's columns."""
    handle.write(",".join(FRAME_COLUMNS) + "\n")
    rows = zip(*map(report.frames.columns.__getitem__, _CSV_FIELDS))
    handle.writelines(
        f"{time!r},{end_device},{node},{size},{n},{cpu!r},{accel!r},{out + back!r},{e2e!r},{state}\n"
        for time, end_device, node, size, n, cpu, accel, out, back, e2e, state in rows
    )


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


# ---------------------------------------------------------------------------
# report.json and decisions.log, written a chunk of rows at a time

_ESCAPE = json.encoder.encode_basestring_ascii
#: rows per write: 256 frame rows are about 160 kB of text
_CHUNK = 256

#: a row's text before its first key, between its values and after its last:
#: a report.json row nested two deep, and a compact decisions.log line
_REPORT_ROW = ("{\n      ", ",\n      ", "\n    }")
_LOG_LINE = ("{", ", ", "}\n")
_FRAME_KEYS = tuple(sorted(FrameTable.FIELDS))


def _json_column(values: Sequence) -> list[str] | None:
    """The JSON text of each value, in one pass; None unless the values are
    all exactly ``str``, all exactly ``int``, or exactly ``int`` and
    ``float`` with every float finite."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return list(map(_ESCAPE, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    # the sum of finite floats may overflow, but any NaN or infinity makes
    # it non-finite; an overflow only costs the reference encoder
    if kinds == {float} and math.isfinite(sum(values)):
        return list(map(float.__repr__, values))
    if kinds == {int, float} and math.isfinite(sum(v for v in values if type(v) is float)):
        return list(map(repr, values))
    return None


@functools.lru_cache(maxsize=256)
def _template(names: tuple, layout: tuple) -> str:
    """The %-template of a row with these keys, in this order."""
    start, sep, end = layout
    # a key is template text, so its own % signs are doubled
    return start + sep.join(_ESCAPE(name).replace("%", "%%") + ": %s" for name in names) + end


def _filled(names: tuple, columns: Iterable[Sequence], layout: tuple) -> list[str] | None:
    """The rows whose values under the sorted keys ``names`` are
    ``columns``, filled into their template; None unless every column
    passes ``_json_column``."""
    texts = list(map(_json_column, columns))
    if None in texts:
        return None
    return list(map(_template(names, layout).__mod__, zip(*texts)))


def _row_names(chunk: Sequence) -> tuple | None:
    """The sorted keys of a chunk of rows: dicts that share one set of two
    or more str keys, in any order. None if the chunk is not such."""
    keys = chunk[0].keys() if type(chunk[0]) is dict else ()
    if len(keys) < 2 or not all(type(name) is str for name in keys):
        return None
    if not all(type(item) is dict and item.keys() == keys for item in chunk):
        return None
    return tuple(sorted(keys))


def _rows(elements: Sequence, layout: tuple, fallback: Callable[[object], str]) -> Iterator[list[str]]:
    """The text of each element, ``_CHUNK`` at a time: a chunk of rows
    filled a column at a time, any other chunk, or one with a value that
    ``_json_column`` does not take, through ``fallback`` one by one."""
    for start in range(0, len(elements), _CHUNK):
        chunk = elements[start : start + _CHUNK]
        names = _row_names(chunk)
        texts = names and _filled(names, zip(*map(itemgetter(*names), chunk)), layout)
        yield texts or list(map(fallback, chunk))


def _frame_rows(frames: FrameTable) -> Iterator[list[str]]:
    """The frame rows of ``report.json``, ``_CHUNK`` at a time, from slices
    of the table's columns; a chunk that ``_filled`` refuses goes through
    the reference encoder row by row, each row as the dict ``to_dict()``
    makes of it."""
    columns = list(map(frames.columns.__getitem__, _FRAME_KEYS))
    for start in range(0, len(frames), _CHUNK):
        chunk = [column[start : start + _CHUNK] for column in columns]
        texts = _filled(_FRAME_KEYS, chunk, _REPORT_ROW)
        yield texts or [_dumps(dict(zip(_FRAME_KEYS, row))) for row in zip(*chunk)]


def _dumps(value: object, level: int = 2) -> str:
    """The reference encoder's text of ``value`` nested ``level`` deep, or
    its TypeError. Its strings hold no raw newline, so re-indenting is
    safe."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * level)


def write_decisions_log(report: MetricsReport, handle: TextIO) -> None:
    """One ``json.dumps(entry, sort_keys=True)`` line per decision entry."""
    lines = _rows(report.decision_log, _LOG_LINE, lambda entry: json.dumps(entry, sort_keys=True) + "\n")
    handle.writelines(chain.from_iterable(lines))


def write_report_json(report: MetricsReport, handle: TextIO) -> None:
    """Stream ``report.json``: the bytes of
    ``json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\\n"``. The
    frames, and any other list section or object section with str keys,
    go out a chunk of elements at a time; any other section through the
    encoder."""
    sep = "{"
    for name, section in sorted(report.sections().items()):
        handle.write(f"{sep}\n  {_ESCAPE(name)}: ")
        sep = ","
        kind = type(section)
        if name == "frames":
            brackets, chunks = "[]", _frame_rows(section)
        elif kind is list or kind is tuple:
            brackets, chunks = "[]", _rows(section, _REPORT_ROW, _dumps)
        elif kind is dict and all(type(key) is str for key in section):
            keys = sorted(section)
            texts = _rows(list(map(section.__getitem__, keys)), _REPORT_ROW, _dumps)
            # zip takes a text before its head, so no chunk's end takes a head
            heads = (_ESCAPE(key) + ": " for key in keys)
            brackets, chunks = "{}", ([head + text for text, head in zip(chunk, heads)] for chunk in texts)
        else:
            handle.write(_dumps(section, 1))
            continue
        lead = brackets[0]
        for chunk in chunks:
            handle.write(lead + "\n    ")
            handle.write(",\n    ".join(chunk))
            lead = ","
        # an empty section is written as the encoder writes it
        handle.write(brackets if lead == brackets[0] else "\n  " + brackets[1])
    handle.write("\n}\n")


def write_outputs(report: MetricsReport, out_dir: Path, fmt: str) -> None:
    if fmt in ("json", "all"):
        _atomic_write(out_dir / "report.json", lambda handle: write_report_json(report, handle))
    if fmt in ("csv", "all"):
        _atomic_write(out_dir / "frames.csv", lambda handle: write_frames_csv(report, handle))
    _atomic_write(out_dir / "decisions.log", lambda handle: write_decisions_log(report, handle))
    _atomic_write(out_dir / "summary.txt", lambda handle: handle.write(summary_text(report)))


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
    if not is_seed(hi):  # checked before any run, so no seed's output is written
        raise ConfigurationError(f"--sweep seed must be an unsigned 64-bit integer, got {hi}")
    return list(range(lo, hi + 1))


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    if args.policy:
        scenario.orchestrator.policy = args.policy
    errors = validate(scenario)
    seeds = _parse_sweep(args.sweep) if args.sweep else None
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
