"""Correctness gate: pinned row digests, else structural checks.

A scenario's digest is the sha256 of its canonical-JSON output lines,
in order, joined by newlines.  For the pinned seeds every scenario
must match its digest; for any seed every scenario must also pass the
structural checks below.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")


def load_pins(workload: str, seed: int) -> dict[str, str] | None:
    """label -> digest for a pinned (workload, seed), else None."""
    if not DIGESTS.exists():
        return None
    pins = json.loads(DIGESTS.read_text())["digests"]
    return pins.get(workload, {}).get(str(seed))


def lines_by_label(text: str) -> dict[str, list[str]]:
    """Output lines grouped by scenario label, in file order."""
    grouped: dict[str, list[str]] = {}
    for line in text.splitlines():
        try:
            label = json.loads(line)["label"]
        except (ValueError, KeyError, TypeError):
            continue  # a torn line is caught by the row-count check
        grouped.setdefault(label, []).append(line)
    return grouped


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and value == value


def structural_problems(scenario, campaign_name: str, lines: list[str]) -> list[str]:
    """Why a scenario's rows are malformed (empty list: they are fine)."""
    rows = [json.loads(line) for line in lines]
    if len(rows) != scenario.num_rows:
        return [f"{len(rows)} rows, expected {scenario.num_rows}"]
    problems = []
    if [r["row"] for r in rows] != list(range(len(rows))):
        problems.append("row indices out of order")
    if any(r["campaign"] != campaign_name for r in rows):
        problems.append("wrong campaign name")
    if any(r["fidelity"] != scenario.backend for r in rows):
        problems.append("wrong fidelity")
    if scenario.engine == "open":
        if [r["load"] for r in rows] != list(scenario.loads):
            problems.append("load points missing or reordered")
        for r in rows:
            if not r["saturated"] and not (
                _finite(r["latency"]) and _finite(r["accepted"])
            ):
                problems.append(f"NaN at unsaturated load {r['load']}")
    else:
        (r,) = rows
        if r["finished"] is not True:
            problems.append("closed-loop run did not finish")
        if r["completed_messages"] != r["num_messages"]:
            problems.append("messages left undelivered")
        if not _finite(r["avg_message_latency"]):
            problems.append("NaN message latency")
    return problems


def check_output(
    campaign, text: str, pins: dict[str, str] | None
) -> dict[str, list[str]]:
    """label -> problems for every scenario of a campaign's output text."""
    grouped = lines_by_label(text)
    result = {}
    for scenario in campaign.scenarios:
        lines = grouped.get(scenario.label, [])
        problems = structural_problems(scenario, campaign.name, lines)
        if pins is not None and digest(lines) != pins.get(scenario.label):
            problems.append("rows differ from the pinned digest")
        result[scenario.label] = problems
    return result
