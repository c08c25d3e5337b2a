"""edgesim benchmark: host-time metrics of full runs, checked for correctness.

    python3 perfbench/run.py --workload stream-steady --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --digests check     # or: --digests record

A run writes the workload's scenario for the seed, then starts one fresh
process per iteration (``worker.py``) until ``--seconds`` have passed.
Each iteration times load → construct → simulate → write outputs, and
checks what it wrote. The last line of stdout is one JSON object:

- ``--trace 0``: the median over iterations of ``wall_s``, ``setup_s``,
  ``sim_s_per_s``, ``report_s`` and ``peak_rss_mb``.
- ``--trace 1``: iterations alternate untraced and traced; the medians
  of the traced iterations' per-layer metrics, plus ``trace.overhead``,
  the median traced ``wall_s`` over the median untraced one.

An iteration fails if it crashes, breaks a report invariant or the
workload's shape check, or writes a ``report.json`` whose sha256 differs
from the other iterations of the same workload and seed. Lines before
the last give quartiles, sample counts, the digest, whether it matches
``digests.json``, and the host; ``.perfbench_out/`` keeps the raw data.

``--digests record`` reruns every workload and the ``default``,
``overload`` and ``fault`` presets at seeds 1..10, untimed, and writes
their report digests to ``digests.json``; ``--digests check`` compares
against that file and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
DIGEST_SEEDS = range(1, 11)
PRESETS = ("default", "overload", "fault")

#: A run must end within this many seconds, whatever ``--seconds`` says.
HARD_LIMIT_S = 170.0


def _metric_units(kind: str) -> dict[str, str]:
    """Name → unit of the ``end_to_end`` or ``per_layer`` metrics declared."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _import_edgesim() -> None:
    """Import the checkout's own edgesim, or exit with an error if it is not there."""
    if not (SRC / "edgesim" / "__init__.py").is_file():
        sys.exit(f"error: no edgesim sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import edgesim

    if not Path(edgesim.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: edgesim was imported from {edgesim.__file__}, not {SRC}")


def _worker(scenario: Path, out: Path, workload: str | None, trace: bool, timeout: float) -> dict:
    """One iteration in its own process; a crash or timeout becomes an error."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--scenario", str(scenario), "--out", str(out),
           "--trace", str(int(trace))]
    if workload:
        cmd += ["--workload", workload]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"errors": [f"iteration exceeded {timeout:.0f} s"]}
    if proc.returncode != 0:
        return {"errors": [f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fresh_dir(path: Path) -> Path:
    """An empty output directory, as a user's run would get.

    Writing over the previous iteration's files would make ext4 flush
    them on rename (``auto_da_alloc``), timing the disk instead of edgesim.
    """
    shutil.rmtree(path, ignore_errors=True)
    return path


def _environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "note": "peak_rss_mb is ru_maxrss of each iteration's own process, numpy import included",
    }


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _recorded_digest(kind: str, name: str, seed: int) -> str | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(kind, {}).get(name, {}).get(str(seed))


def bench(workload: str, seed: int, seconds: float, trace: bool) -> int:
    _import_edgesim()
    import workloads
    from edgesim.scenario import save_scenario

    if workload not in workloads.BUILDERS:
        sys.exit(f"error: unknown workload {workload!r}; choose from {list(workloads.BUILDERS)}")
    end_to_end, per_layer = _metric_units("end_to_end"), _metric_units("per_layer")
    started = time.monotonic()
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    scenario_path = run_dir / "scenario.json"
    save_scenario(workloads.build(workload, seed), scenario_path)

    out = run_dir / "out"
    iterations = []
    while True:
        elapsed = time.monotonic() - started
        kinds = {it["traced"] for it in iterations}
        if elapsed >= seconds and kinds >= ({False, True} if trace else {False}):
            break
        if elapsed >= HARD_LIMIT_S - 10.0:
            break
        traced = trace and len(iterations) % 2 == 1
        result = _worker(scenario_path, _fresh_dir(out), workload, traced, HARD_LIMIT_S - elapsed)
        result["traced"] = traced
        iterations.append(result)
    # keep the last trace, drop the reports: a run's outputs are tens of MB
    if (out / "spans.npz").exists():
        (out / "spans.npz").replace(run_dir / "spans.npz")
    shutil.rmtree(out, ignore_errors=True)

    digests = Counter(it["digest"] for it in iterations if "digest" in it)
    digest = digests.most_common(1)[0][0] if digests else None
    for it in iterations:
        if it.get("digest") not in (None, digest):
            it["errors"].append(f"report.json sha256 {it['digest']} differs from {digest}")
    failed = sum(1 for it in iterations if it["errors"])

    timed = [it for it in iterations if "timings" in it]
    untraced = {name: [it["timings"][name] for it in timed if not it["traced"]] for name in end_to_end}
    if trace:
        layered = [it["layers"] for it in timed if it["traced"]]
        series = {name: [layers[name] for layers in layered] for name in per_layer if name != "trace.overhead"}
        traced_wall = [it["timings"]["wall_s"] for it in timed if it["traced"]]
        if traced_wall and untraced["wall_s"]:
            series["trace.overhead"] = [statistics.median(traced_wall) / statistics.median(untraced["wall_s"])]
        units = per_layer
    else:
        series, units = untraced, end_to_end
    if not all(series.get(name) for name in units):
        for it in iterations:
            for error in it["errors"][:3]:
                print(f"error: {error}", file=sys.stderr)
        print("error: no iteration produced every metric", file=sys.stderr)
        return 1

    summaries = {name: _summary(series[name]) for name in units}
    recorded = _recorded_digest("workloads", workload, seed)
    match = "not recorded" if recorded is None else ("matches" if recorded == digest else "DIFFERS from")
    env = _environment(seed)
    print(f"# {workload} seed={seed} trace={int(trace)} iterations={len(iterations)} failed={failed}")
    print(f"# host: {env['nproc']} CPUs, {env['cpu']}, Python {env['python']}, numpy {env['numpy']}")
    print(f"# report.json sha256 {digest} ({match} digests.json)")
    for name, s in summaries.items():
        print(f"{name:36s} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} n={s['n']} {units[name]}")
    for it in iterations:
        for error in it["errors"][:5]:
            print(f"# failed iteration: {error}")
    (run_dir / "result.json").write_text(
        json.dumps({"environment": env, "digest": digest, "recorded_digest": recorded,
                    "summaries": summaries, "iterations": iterations}, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {name: {"value": s["median"], "unit": units[name]} for name, s in summaries.items()},
    }))
    return 0


def _digest_scenarios():
    """(kind, name, seed, scenario, shape-checked workload) of the digest sweep."""
    import workloads
    from edgesim.cli import PRESET_SCENARIOS

    for name in workloads.BUILDERS:
        for seed in DIGEST_SEEDS:
            yield "workloads", name, seed, workloads.build(name, seed), name
    for name in PRESETS:
        for seed in DIGEST_SEEDS:
            scenario = PRESET_SCENARIOS[name]()
            scenario.sim.seed = seed
            yield "presets", name, seed, scenario, None


def digest_sweep(mode: str) -> int:
    """Record or check report digests of every workload and preset, seeds 1..10."""
    _import_edgesim()
    from edgesim.scenario import save_scenario

    run_dir = OUT / "digests"
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / "scenario.json"
    found: dict[str, dict[str, dict[str, str]]] = {"workloads": {}, "presets": {}}
    problems = []
    for kind, name, seed, scenario, shape in _digest_scenarios():
        save_scenario(scenario, path)
        result = _worker(path, _fresh_dir(run_dir / "out"), shape, False, HARD_LIMIT_S)
        problems += [f"{name} seed {seed}: {e}" for e in result["errors"]]
        digest = result.get("digest")
        found[kind].setdefault(name, {})[str(seed)] = digest
        recorded = _recorded_digest(kind, name, seed)
        if mode == "check" and digest != recorded:
            problems.append(f"{name} seed {seed}: sha256 {digest}, recorded {recorded}")
        print(f"{kind[:-1]} {name} seed {seed}: {digest}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if mode == "record" and not problems:
        DIGESTS.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
        print(f"wrote {DIGESTS}")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="stream-steady, cluster-scale or control-churn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digests", choices=("record", "check"))
    args = parser.parse_args()
    if args.digests:
        return digest_sweep(args.digests)
    if not args.workload:
        parser.error("--workload is required unless --digests is given")
    return bench(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
