"""Correctness checks on one run's written outputs that the repo's own
report validator (``tests/engine_checks.check_report``) does not make.

They read the report as a user gets it (the parsed ``report.json`` and
the row counts of the other files) and count from the scenario and from
the records, never from a counter that was derived from other counters.
"""

from __future__ import annotations

from collections import Counter

_EPS = 1e-9


def expected_frames(scenario) -> int:
    """Frames the scenario's streams emit before the run ends."""
    total = 0
    for device in scenario.end_devices:
        k = 0
        while device.start_s + k / device.fps < scenario.sim.duration_s - _EPS:
            k += 1
        total += k
    return total


def _repeats(ids: list[int]) -> list[int]:
    return sorted(i for i, n in Counter(ids).items() if n > 1)


def report_errors(report: dict, scenario, csv_rows: int, log_lines: int) -> list[str]:
    """Every broken invariant of one run, as readable reasons."""
    errors: list[str] = []
    counters = report["counters"]
    generated = expected_frames(scenario)
    if counters["frames_generated"] != generated:
        errors.append(f"counter frames_generated = {counters['frames_generated']}, recounted {generated}")

    # Conservation from the records: each emitted frame ends at most once,
    # either completed or failed, and the rest are still in flight.
    completed = [f["frame_id"] for f in report["frames"]]
    failed = [
        int(e["decision"].removeprefix("frame-"))
        for e in report["decision_log"]
        if e["kind"] == "assign-failed"
    ]
    for what, ids in (("completed", completed), ("failed", failed)):
        if repeats := _repeats(ids):
            errors.append(f"frames {what} more than once: {repeats[:10]}")
        if unknown := sorted(i for i in set(ids) if not 0 <= i < generated):
            errors.append(f"{what} frame ids outside 0..{generated - 1}: {unknown[:10]}")
    if both := sorted(set(completed) & set(failed)):
        errors.append(f"frames both completed and failed: {both[:10]}")
    in_flight = generated - len(set(completed) | set(failed))
    if counters["frames_in_flight_at_end"] != in_flight:
        errors.append(
            f"counter frames_in_flight_at_end = {counters['frames_in_flight_at_end']}, "
            f"{in_flight} frames neither completed nor failed"
        )

    if csv_rows != len(completed):
        errors.append(f"frames.csv has {csv_rows} rows for {len(completed)} frames")
    if log_lines != len(report["decision_log"]):
        errors.append(f"decisions.log has {log_lines} lines for {len(report['decision_log'])} decisions")
    return errors
