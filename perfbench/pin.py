#!/usr/bin/env python3
"""Regenerate ``digests.json``: per-scenario row digests at the pinned seeds.

Run from the repository root, only when the rows are meant to change::

    python3 perfbench/pin.py

Every scenario must pass the structural checks before it is pinned.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from check import DIGESTS, check_output, digest, lines_by_label
from run import ROOT, WORK
from workloads import DEV_SEED, HELDOUT_SEED, WORKLOADS


def campaign_digests(name: str, seed: int) -> dict[str, str]:
    import repro.scenarios as scen

    workload = WORKLOADS[name]
    campaign = workload.build(seed)
    work = WORK / f"pin-{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        out = work / "rows.jsonl"
        scen.run_campaign(campaign, workers=workload.workers, out=out)
        text = out.read_text()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = {k: v for k, v in check_output(campaign, text, None).items() if v}
    if problems:
        raise SystemExit(f"{name} seed {seed}: {problems}")
    return {label: digest(lines) for label, lines in lines_by_label(text).items()}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    digests = {
        name: {
            str(seed): campaign_digests(name, seed)
            for seed in (DEV_SEED, HELDOUT_SEED)
        }
        for name in WORKLOADS
    }
    DIGESTS.write_text(json.dumps({
        "dev_seed": DEV_SEED,
        "heldout_seed": HELDOUT_SEED,
        "program_commit": commit,
        "digests": digests,
    }, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
