#!/usr/bin/env python3
"""Campaign benchmark: end-to-end rows/sec and a traced per-layer split.

Run from the repository root::

    python3 perfbench/run.py --workload sf-adaptive --seed 1 --seconds 15 --trace 0

One caller submits one campaign through ``repro.scenarios.run_campaign``
and waits for it (a closed loop, no request rate), repeating it until
``--seconds`` have passed (at least three times).  Every repetition's
rows are checked (see ``check.py``).  With ``--trace 0`` the last
stdout line reports the end-to-end metrics, with times scaled to a
reference host speed (see ``calibrate``); with ``--trace 1`` the run
repeats the campaign untraced for half the time, then makes one traced
pass (set-up plus campaign) and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

from check import check_output, load_pins, lines_by_label  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Campaign repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 3
#: Fresh-process set-up measurements: at least this many...
SETUP_SAMPLES = 3
#: ...and more until this much time has passed (median reported).
SETUP_SECONDS = 4.0
#: Iterations of the calibration loop, and the time they take at the
#: reference host speed (about that of the 2-core development host).
CAL_LOOPS = 1_000_000
CAL_REFERENCE_S = 0.1


def calibrate() -> float:
    """Time a fixed pure-Python loop: the host's current speed.

    On a shared host the speed of one core drifts by tens of percent
    over minutes, and the campaign slows with it.  Timing this loop
    between repetitions lets the figures be reported at the reference
    speed: rows/s is multiplied, and set-up time divided, by
    ``mean loop time / CAL_REFERENCE_S``.  The loop is benchmark code,
    so a change to ``src/`` cannot move it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def _bytecode_env() -> dict:
    """Keep compiled bytecode in the work directory, for every process.

    Set-up time includes ``import repro``; pinning where bytecode lives
    makes it independent of the caller's PYTHONDONTWRITEBYTECODE and of
    what earlier runs left in ``src/``.
    """
    prefix = str(WORK / "pycache")
    sys.pycache_prefix = prefix
    sys.dont_write_bytecode = False
    env = dict(os.environ, PYTHONPYCACHEPREFIX=prefix)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_once(workload: str, seed: int) -> float:
    """Import repro and resolve every scenario on empty caches."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import repro.scenarios as scen

    campaign = WORKLOADS[workload].build(seed)
    scen.clear_caches()
    for scenario in campaign.scenarios:
        scen.resolve(scenario)
    return time.perf_counter() - t0


def setup_seconds(workload: str, seed: int, env: dict) -> tuple[float, float]:
    """Median set-up time over fresh processes, and the mean calibration."""
    samples, cals = [], [calibrate()]
    start = time.perf_counter()
    while (
        len(samples) < SETUP_SAMPLES
        or time.perf_counter() - start < SETUP_SECONDS
    ):
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=120,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
        cals.append(calibrate())
    return statistics.median(samples), statistics.mean(cals)


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Tally:
    """Scenario attempts and failures across every repetition."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, rep: int, problems: dict[str, list[str]]) -> None:
        self.attempted += len(problems)
        for label, found in problems.items():
            if found:
                self.failed += 1
                self.problems.append(f"rep {rep} {label}: {'; '.join(found)}")


def run_rep(workload, campaign, rep_dir: Path, pins, tally: Tally, rep: int):
    """One cold campaign (plus the warm replay for store workloads).

    Returns (rows, wall seconds of the cold campaign).
    """
    import repro.scenarios as scen
    from repro.service.store import FileResultStore

    rep_dir.mkdir(parents=True)
    out = rep_dir / "rows.jsonl"
    store = FileResultStore(rep_dir / "store") if workload.store else None
    error = None
    t0 = time.perf_counter()
    try:
        scen.run_campaign(campaign, workers=workload.workers, out=out, store=store)
    except Exception as exc:  # a raising scenario fails, it does not crash
        error = exc
    wall = time.perf_counter() - t0
    text = out.read_text() if out.exists() else ""
    problems = check_output(campaign, text, pins)
    if error is not None:
        for found in problems.values():
            found.append(f"campaign raised {error!r}")
    if store is not None:
        _check_warm(workload, campaign, rep_dir, store, text, problems)
    tally.add(rep, problems)
    rows = [json.loads(line) for line in text.splitlines()]
    return rows, wall


def _check_warm(workload, campaign, rep_dir, store, cold_text, problems) -> None:
    """The warm replay must hit the store for, and reproduce, every row.

    A store hit for every scenario is ``store_hits`` equal to the
    scenario count.
    """
    import repro.scenarios as scen

    warm_out = rep_dir / "warm.jsonl"
    try:
        report = scen.run_campaign(
            campaign, workers=workload.workers, out=warm_out, store=store
        )
    except Exception as exc:
        for found in problems.values():
            found.append(f"warm replay raised {exc!r}")
        return
    served = {
        e["label"] for e in report.events
        if e.get("event") == "scenario_cached" and e.get("source") == "store"
    }
    cold = lines_by_label(cold_text)
    warm = lines_by_label(warm_out.read_text())
    for label, found in problems.items():
        if label not in served:
            found.append("warm replay missed the store")
        if warm.get(label) != cold.get(label):
            found.append("warm replay rows differ from the cold pass")


def measure(name: str, seed: int, seconds: float, trace: bool, run_dir: Path):
    import repro.scenarios as scen

    workload = WORKLOADS[name]
    campaign = workload.build(seed)
    pins = load_pins(name, seed)
    for scenario in campaign.scenarios:  # untimed set-up: warm caches
        scen.resolve(scenario)

    tally = Tally()
    walls, counts, cals = [], [], [calibrate()]
    budget = seconds / 2 if trace else seconds
    start = time.perf_counter()
    while True:
        rows, wall = run_rep(
            workload, campaign, run_dir / f"rep{len(walls)}", pins, tally,
            len(walls),
        )
        walls.append(wall)
        counts.append(len(rows))
        cals.append(calibrate())
        if len(walls) == MIN_REPS:
            # Resident memory grows a little with every repetition, so
            # the peak is taken after a fixed amount of work.
            rss = peak_rss_mb()
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_REPS and elapsed + statistics.median(walls) > budget:
            break
    summary = {
        "workload": name, "seed": seed, "reps": len(walls),
        "pinned": pins is not None,
        "rows_per_rep": len(rows),
        "rep_wall_s": [round(w, 3) for w in walls],
        "host_rows_per_s": sum(counts) / sum(walls),
        "calibration_s": statistics.mean(cals),
    }
    if not trace:
        # Whole-run throughput at the reference host speed.
        speed = statistics.mean(cals) / CAL_REFERENCE_S
        metrics = {
            "rows_per_s": (sum(counts) / sum(walls) * speed, "rows/s"),
            "peak_rss_mb": (rss, "MB"),
        }
        return metrics, tally, summary

    from tracer import PER_LAYER, Tracer, executed_backends, install, layer_metrics

    labels = {s.hash(): s.label for s in campaign.scenarios}
    tracer = Tracer(run_dir / "spool")
    install(tracer)
    t0 = time.perf_counter()
    scen.clear_caches()
    for scenario in campaign.scenarios:  # traced set-up
        scen.resolve(scenario)
    setup = time.perf_counter() - t0
    rows, wall = run_rep(
        workload, campaign, run_dir / "traced", pins, tally, len(walls)
    )
    tracer.merge_spool()
    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / f"trace-{name}-seed{seed}.jsonl")
    values = layer_metrics(tracer, rows, wall / statistics.median(walls))
    units = dict(PER_LAYER)
    metrics = {k: (values[k], units[k]) for k, _ in PER_LAYER}
    summary.update(
        traced_setup_s=round(setup, 4),
        traced_campaign_s=round(wall, 4),
        untraced_median_s=round(statistics.median(walls), 4),
        backends=executed_backends(tracer, labels),
    )
    return metrics, tally, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    env = _bytecode_env()

    if args.setup_probe:
        print(setup_once(args.workload, args.seed))
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    run_dir = WORK / f"run-{os.getpid()}"
    try:
        metrics, tally, summary = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), run_dir
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not args.trace:
        setup, cal = setup_seconds(args.workload, args.seed, env)
        metrics["setup_s"] = (setup * CAL_REFERENCE_S / cal, "s")
        summary["host_setup_s"] = setup
    # failed_frac is 0 on a correct program, so it is reported here and
    # through "failed"/"attempted" rather than as a timed metric.
    summary["failed_frac"] = tally.failed / tally.attempted
    if tally.problems:
        summary["problems"] = tally.problems[:20]
    print(json.dumps(summary))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
