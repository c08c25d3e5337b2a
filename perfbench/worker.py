"""One timed run of a scenario in a fresh process, the way the CLI runs it.

    python3 perfbench/worker.py --scenario S.json --out DIR [--workload W] [--trace 0|1]

Times ``scenario.load_scenario`` → ``Simulation(...)`` → ``.run()`` →
``cli.write_outputs(report, DIR, "all")``, then, untimed, hashes
``report.json`` and checks the report with the repo's own validator
(``tests/engine_checks.py``) and ``checks.py``. Interpreter start and
imports are outside every timing. Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TESTS = HERE.parent / "tests"
sys.path[:0] = [str(SRC), str(HERE), str(TESTS)]

import checks  # noqa: E402
import engine_checks  # noqa: E402
import workloads  # noqa: E402
from edgesim import cli, scenario, sim_engine  # noqa: E402

OUTPUT_FILES = ("report.json", "frames.csv", "decisions.log", "summary.txt")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", default=None, help="apply this workload's shape check")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    out = Path(args.out)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    t0 = time.perf_counter()
    loaded = scenario.load_scenario(args.scenario)
    sim = sim_engine.Simulation(loaded)
    t1 = time.perf_counter()
    queued_at_start = len(sim._queue) if tracer is not None else None
    t2 = time.perf_counter()
    report = sim.run()
    t3 = time.perf_counter()
    cli.write_outputs(report, out, "all")
    t4 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
    raw = (out / "report.json").read_bytes()
    doc = json.loads(raw)
    csv_rows = (out / "frames.csv").read_text().count("\n") - 1
    log_lines = (out / "decisions.log").read_text().count("\n")
    errors = checks.report_errors(doc, loaded, csv_rows, log_lines)
    try:
        engine_checks.check_report(report)
    except AssertionError as exc:
        errors.append(f"engine_checks.check_report: {exc!r}"[:2000])
    if args.workload:
        errors += workloads.shape_errors(args.workload, doc)

    result = {
        "digest": hashlib.sha256(raw).hexdigest(),
        "errors": errors,
        "timings": {
            "wall_s": (t1 - t0) + (t4 - t2),
            "setup_s": t1 - t0,
            "sim_s_per_s": loaded.sim.duration_s / (t3 - t2),
            "report_s": t4 - t3,
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if tracer is not None:
        counters = doc["counters"]
        kinds = [e["kind"] for e in doc["decision_log"]]
        decided = kinds.count("migrate")
        extra = {
            "queued_at_start": queued_at_start,
            "nodes": len(sim.nodes),
            "frames_completed_ratio": _ratio(counters["frames_completed"], counters["frames_generated"]),
            "migration_ok_ratio": _ratio(counters["migrations"], decided),
            "offload_fail_ratio": _ratio(counters["failed_offloads"], decided + kinds.count("offload-failed")),
            "report_bytes": sum((out / name).stat().st_size for name in OUTPUT_FILES),
        }
        result["layers"] = tracing.layer_metrics(tracer, extra)
        tracer.write(out / "spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
