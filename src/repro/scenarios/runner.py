"""One entry point for every simulation the repo can run (Layer 5).

:func:`run_campaign` splits a campaign's pending scenarios into work
units (:func:`repro.service.units.partition_units`: one per open-loop
scenario, one per run of pending closed-loop scenarios), runs each
unit through :func:`repro.service.units.execute_unit` — which fans an
open-loop scenario's (load × replica) grid across workers via
:func:`~repro.sim.parallel.parallel_latency_vs_load` and a closed-loop
batch via :func:`~repro.sim.parallel.parallel_workload_completion` —
and streams one JSON row per result to a JSONL file, in campaign
order, as each scenario completes.  Local and service campaigns share
this one path; only the caller of ``execute_unit`` differs.

Every row carries its scenario hash and its ``row``/``rows`` position,
so the output is self-describing and resumable: with ``resume=True``
any scenario whose full row set already exists in the output file is
reused verbatim (zero simulations) and only the missing ones run.
Because rows are written in campaign order and cached lines are
replayed byte-for-byte, an interrupted campaign resumed to completion
produces a final file identical to an uninterrupted run.

Resume generalizes beyond one file through two opt-in transports
(DESIGN.md, Layer 7):

- ``store=`` plugs in a content-addressed result store
  (:mod:`repro.service.store`): scenarios whose hash is already in the
  store replay from it without simulating, and freshly simulated
  scenarios are written back — so any scenario ever simulated against
  the store, by any process on any host, is never re-simulated.
- ``service=`` hands the pending work units to a coordinator/worker
  scheduler (:mod:`repro.service.coordinator`) instead of running
  them in this process; rows stay byte-identical to an in-process run
  at any worker/host count.

Next to the JSONL, the runner writes a provenance sidecar
(``<out>.meta.json``): the campaign name, package version, worker
count, and the scenario index (hash, label, engine, row count, and the
``origin`` of each scenario's rows — ``"simulated"`` or ``"cache"``
for store hits).  The analysis layer (:mod:`repro.analysis.frames`)
reads it to stamp per-figure provenance into reproduction reports.
Apart from the heartbeat section (wall-clock/sims-per-sec of the run
that produced the rows, preserved across no-op resumes, like the
origin markers), the sidecar is free of timestamps and run counters,
so a no-op resume rewrites it byte-identically.

Scenarios that arm telemetry probes stream their measurements to a
*third* file, ``<out>.metrics.jsonl`` (one canonical-JSON row per
telemetry-carrying load point), which resumes byte-for-byte alongside
the main rows and is absent when no probe ever fired.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Sequence

from repro.scenarios.campaign import Campaign
from repro.scenarios.spec import Scenario, canonical_json, scenario_hash

# Module import, not ``from ... import``: units imports
# repro.scenarios submodules, so when a process imports
# repro.service.units first, this module runs while units is still
# half-initialised and may only bind the module object.
from repro.service import units
from repro.sim.parallel import simulations_started


def _with_campaign(payload: Sequence[dict], campaign: str) -> list[dict]:
    """Stamp the campaign name into payload rows (the full row form)."""
    return [{"campaign": campaign, **row} for row in payload]


def metrics_path_for(out_path: Path) -> Path:
    """The telemetry sidecar path for a campaign output file."""
    return out_path.with_name(out_path.name + ".metrics.jsonl")


def _load_metrics_cache(path: Path, campaign_name: str) -> dict[str, list[str]]:
    """Raw metrics-sidecar lines grouped by scenario hash, in order.

    Unlike the main cache there is no per-scenario completeness check
    (a telemetry row count is not knowable up front — short-circuited
    points write nothing), so callers must only replay hashes whose
    *main* rows were complete: main-row completeness implies the
    scenario finished, and the runner writes a scenario metrics lines
    before its result rows.
    """
    by_hash: dict[str, list[str]] = {}
    for line in path.read_text().splitlines():
        try:
            row = json.loads(line)
            h = row["scenario"]
            name = row["campaign"]
        except (ValueError, KeyError, TypeError):
            continue
        if name != campaign_name or not isinstance(h, str):
            continue
        by_hash.setdefault(h, []).append(line)
    return by_hash


class _LazyStream:
    """A text stream that creates its file on first write only.

    Campaigns without telemetry must not leave an empty sidecar
    behind (its absence is the signal that no probes were armed).
    """

    def __init__(self, path):
        self.path = path
        self._fh = None
        #: True once any line was written (survives close()).
        self.wrote = False

    def emit(self, lines) -> None:
        if self.path is None or not lines:
            return
        if self._fh is None:
            self._fh = open(self.path, "w")
            self.wrote = True
        for line in lines:
            self._fh.write(line + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _load_cache(
    path: Path, campaign_name: str, scenarios: Sequence[Scenario]
) -> dict[str, list[str]]:
    """Raw JSONL lines of *complete* scenarios, keyed by hash.

    A scenario is complete when every ``row`` index 0..rows-1 is
    present.  Lines that fail to parse (a kill mid-write leaves a
    truncated tail), belong to no campaign scenario, or carry another
    campaign's name (cached lines replay verbatim, so a stale name
    would survive into the resumed file) are ignored.
    """
    expected = {scenario_hash(s): s.num_rows for s in scenarios}
    by_hash: dict[str, dict[int, str]] = {}
    for line in path.read_text().splitlines():
        try:
            row = json.loads(line)
            h, i, n = row["scenario"], row["row"], row["rows"]
            name = row["campaign"]
        except (ValueError, KeyError, TypeError):
            continue
        if name != campaign_name:
            continue
        if expected.get(h) != n or not isinstance(i, int) or not 0 <= i < n:
            continue
        by_hash.setdefault(h, {})[i] = line
    return {
        h: [rows[i] for i in range(expected[h])]
        for h, rows in by_hash.items()
        if len(rows) == expected[h]
    }


@dataclass
class CampaignReport:
    """Outcome of :func:`run_campaign`."""

    campaign: str
    rows: list[dict] = field(default_factory=list)
    #: Scenarios actually simulated this run.
    simulated: int = 0
    #: Scenarios whose rows were reused without simulating (resume
    #: cache or store; store reuses are also counted in store_hits).
    skipped: int = 0
    #: Scenarios served from the content-addressed result store.
    store_hits: int = 0
    out: str | None = None
    #: Telemetry sidecar rows (parsed), in campaign order.
    metrics_rows: list[dict] = field(default_factory=list)
    #: Heartbeat event stream: scenario_start / scenario_finish /
    #: batch_start / batch_finish / scenario_cached / campaign_finish
    #: dicts with wall-clock, simulation counts and, on the finish
    #: events of simulated units, the engine backend that ran.
    events: list[dict] = field(default_factory=list)

    @property
    def heartbeat(self) -> dict | None:
        """The campaign_finish event, or None for an empty run."""
        for event in reversed(self.events):
            if event.get("event") == "campaign_finish":
                return event
        return None

    def summary(self) -> str:
        text = (
            f"campaign {self.campaign}: {self.simulated + self.skipped} scenarios "
            f"(simulated={self.simulated} skipped={self.skipped}"
        )
        if self.store_hits:
            text += f" store_hits={self.store_hits}"
        text += f"), {len(self.rows)} rows"
        hb = self.heartbeat
        if hb is not None:
            text += f", {hb['wall_s']:.2f}s wall"
            # sims_per_s is null on zero-simulation and zero-duration
            # campaigns (a fully-resumed run has no meaningful rate).
            if hb.get("sims") and hb.get("sims_per_s") is not None:
                text += f" ({hb['sims_per_s']:.1f} sims/s)"
        if self.metrics_rows:
            text += f", {len(self.metrics_rows)} telemetry rows"
        return text + (f" -> {self.out}" if self.out else "")


def _write_meta(
    out_path: Path, campaign: Campaign, workers: int, simulated: int,
    heartbeat: dict | None = None, origins: dict[str, str] | None = None,
) -> None:
    """Provenance sidecar for an output file (see module docstring).

    ``workers`` and ``heartbeat`` record how the rows were *produced*:
    a resume that simulated nothing keeps the previous sidecar's
    worker count and heartbeat — the rows in the file are still the
    old run's — instead of stamping numbers from a run that never
    simulated anything (which also keeps the sidecar byte-stable
    across no-op resumes).  ``origins`` follows the same rule per
    scenario: ``"simulated"`` and ``"cache"`` (store hit) describe how
    this run obtained the rows, while file-resumed scenarios keep the
    origin recorded by the run that actually produced them.
    """
    from repro import __version__

    meta_path = out_path.with_name(out_path.name + ".meta.json")
    previous: dict | None = None
    if meta_path.exists():
        try:
            parsed = json.loads(meta_path.read_text(encoding="utf-8"))
            # A corrupt/foreign sidecar (non-dict JSON included) is
            # simply rewritten rather than trusted.
            if isinstance(parsed, dict) and parsed.get("campaign") == campaign.name:
                previous = parsed
        except ValueError:
            pass
    if simulated == 0 and previous is not None:
        workers = previous.get("workers", workers)
        heartbeat = previous.get("heartbeat", heartbeat)
    previous_origins = {
        e.get("scenario"): e.get("origin", "simulated")
        for e in (previous.get("scenarios", []) if previous else [])
        if isinstance(e, dict)
    }

    def _origin(h: str) -> str:
        o = (origins or {}).get(h, "simulated")
        if o == "resume":
            return previous_origins.get(h, "simulated")
        return o

    meta = {
        "format": 1,
        "campaign": campaign.name,
        "generator": f"repro {__version__}",
        "workers": workers,
        "scenarios": [
            {
                "scenario": scenario_hash(s),
                "label": s.label,
                "engine": s.engine,
                "rows": s.num_rows,
                "origin": _origin(scenario_hash(s)),
            }
            for s in campaign.scenarios
        ],
    }
    if heartbeat is not None:
        meta["heartbeat"] = heartbeat
    meta_path.write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
        newline="\n",
    )


def _emit(stream: IO[str] | None, rows: list[dict], raw: list[str] | None) -> None:
    if stream is None:
        return
    for line in raw if raw is not None else map(canonical_json, rows):
        stream.write(line + "\n")
    stream.flush()


def _heartbeat(report: CampaignReport, progress: bool, **fields) -> None:
    """Record one heartbeat event; echo it to stderr under --progress.

    Events go to stderr (one canonical-JSON object per line) so a
    campaign's stdout/file outputs stay untouched by observability.
    """
    report.events.append(fields)
    if progress:
        print(canonical_json(fields), file=sys.stderr, flush=True)


def run_campaign(
    campaign: Campaign,
    workers: int = 1,
    out=None,
    resume: bool = False,
    progress: bool = False,
    store=None,
    service=None,
) -> CampaignReport:
    """Execute a campaign, streaming rows to ``out`` (JSONL).

    ``workers`` fans each scenario's internal grid (and batches of
    consecutive closed-loop scenarios) across processes; rows are
    identical for any value.  ``resume=True`` (requires ``out``)
    reuses the complete scenarios already present in ``out`` and
    simulates only the rest; the finished file is byte-identical to a
    clean run.  Duplicate scenarios are dropped before execution.

    ``store`` plugs in a content-addressed result store — a
    :class:`~repro.service.store.ResultStore`, a directory path, or a
    ``"file:"``/``"memory:"`` URL for :func:`~repro.service.store.open_store`.
    Scenarios found in the store replay without simulating (counted in
    ``store_hits``) and fresh results are written back, so the store
    memoizes across files, processes, and hosts while the output stays
    byte-identical to a cold run.  ``service`` (a
    :class:`~repro.service.coordinator.ServiceConfig`) hands the
    pending work units to the coordinator/worker scheduler instead of
    running them in this process — same rows, any host count.

    A campaign whose every scenario is already covered by the resume
    file and/or the store is recognised *before* any spec resolution,
    service socket, or worker pool is touched: a no-op resume costs
    O(scenario hashes) plus the file replay, nothing else.

    Scenarios with an armed :class:`~repro.sim.telemetry.TelemetrySpec`
    stream their probe measurements to a second sidecar,
    ``<out>.metrics.jsonl`` — created only when at least one telemetry
    row exists, resumed/replayed byte-for-byte exactly like the main
    file.  ``progress=True`` echoes the heartbeat event stream
    (scenario start/finish, wall-clock, sims/sec) to stderr as
    canonical-JSON lines; the same events land on
    :attr:`CampaignReport.events` either way.
    """
    campaign = campaign.dedup()
    scenarios = campaign.scenarios
    if resume and out is None:
        raise ValueError("resume=True needs an output file to resume from")
    out_path = Path(out) if out is not None else None
    if store is not None:
        from repro.service.store import open_store

        store = open_store(store)

    cache: dict[str, list[str]] = {}
    metrics_cache: dict[str, list[str]] = {}
    tmp_path = (
        out_path.with_name(out_path.name + ".tmp") if out_path is not None else None
    )
    metrics_out = metrics_path_for(out_path) if out_path is not None else None
    metrics_tmp = (
        metrics_out.with_name(metrics_out.name + ".tmp")
        if metrics_out is not None
        else None
    )
    if resume and out_path is not None:
        if out_path.exists():
            cache = _load_cache(out_path, campaign.name, scenarios)
        # A resumed run that was itself interrupted left its progress
        # in the temp file; harvest that too so no simulation is ever
        # repeated across any number of interruptions.
        if tmp_path.exists():
            for h, lines in _load_cache(tmp_path, campaign.name, scenarios).items():
                cache.setdefault(h, lines)
        # Telemetry sidecar lines follow their main rows: only hashes
        # in the (complete-scenario) main cache are ever replayed.
        if metrics_out.exists():
            metrics_cache = _load_metrics_cache(metrics_out, campaign.name)
        if metrics_tmp.exists():
            for h, lines in _load_metrics_cache(
                metrics_tmp, campaign.name
            ).items():
                metrics_cache.setdefault(h, lines)

    report = CampaignReport(campaign=campaign.name, out=str(out_path) if out_path else None)
    hashes = [scenario_hash(s) for s in scenarios]
    pending = [h not in cache for h in hashes]
    #: hash -> how this run obtained the rows ("resume" defers to the
    #: previous meta sidecar; see _write_meta).
    origins: dict[str, str] = {
        h: "resume" for h, p in zip(hashes, pending) if not p
    }
    cache_source: dict[str, str] = {h: "resume" for h in origins}
    if store is not None:
        # Store probe: one get() per still-pending hash, before any
        # resolution — a warm store turns the scenario into a replay.
        for i, h in enumerate(hashes):
            if not pending[i]:
                continue
            entry = store.get(h)
            if entry is None:
                continue
            cache[h] = [
                canonical_json(r) for r in _with_campaign(entry.rows, campaign.name)
            ]
            if entry.metrics:
                metrics_cache[h] = [
                    canonical_json(r)
                    for r in _with_campaign(entry.metrics, campaign.name)
                ]
            pending[i] = False
            origins[h] = "cache"
            cache_source[h] = "store"
            report.store_hits += 1

    # Resumed runs rewrite through a temp file so an interruption never
    # destroys the cache the next attempt resumes from.
    write_path = out_path
    metrics_write_path = metrics_out
    if out_path is not None and cache:
        write_path = tmp_path
        metrics_write_path = metrics_tmp

    t_campaign = time.perf_counter()
    sims_at_start = simulations_started()

    def _metrics_emit(mrows: list[dict], raw: list[str] | None) -> None:
        metrics_stream.emit(
            raw if raw is not None else [canonical_json(r) for r in mrows]
        )
        report.metrics_rows.extend(mrows)

    stream = open(write_path, "w") if write_path is not None else None
    metrics_stream = _LazyStream(metrics_write_path)

    def _replay_cached(i: int) -> None:
        """Emit scenario ``i`` from the resume/store cache."""
        raw = cache[hashes[i]]
        rows = [json.loads(line) for line in raw]
        report.rows.extend(rows)
        report.skipped += 1
        mraw = metrics_cache.get(hashes[i], [])
        _metrics_emit([json.loads(line) for line in mraw], mraw)
        _emit(stream, rows, raw)
        _heartbeat(
            report, progress, event="scenario_cached",
            campaign=campaign.name, scenario=hashes[i],
            label=scenarios[i].label, index=i, of=len(scenarios),
            source=cache_source[hashes[i]],
        )

    def _record_simulated(
        k: int, payload: list[dict], metrics_payload: list[dict]
    ) -> None:
        """Emit scenario ``k``'s freshly produced payload rows."""
        rows = _with_campaign(payload, campaign.name)
        report.simulated += 1
        origins[hashes[k]] = "simulated"
        # Metrics lines land before the result rows so a kill between
        # the two writes leaves the scenario pending (incomplete main
        # rows), never with lost telemetry.
        _metrics_emit(_with_campaign(metrics_payload, campaign.name), None)
        report.rows.extend(rows)
        _emit(stream, rows, None)
        if store is not None:
            from repro.service.store import StoreEntry

            store.put(
                StoreEntry(
                    scenario=hashes[k], rows=payload, metrics=metrics_payload
                )
            )

    try:
        _run_units(
            campaign.name, scenarios, pending, workers, service,
            lambda **fields: _heartbeat(report, progress, **fields),
            _replay_cached, _record_simulated,
        )
    finally:
        if stream is not None:
            stream.close()
        metrics_stream.close()
    wall = time.perf_counter() - t_campaign
    sims = simulations_started() - sims_at_start
    _heartbeat(
        report, progress, event="campaign_finish", campaign=campaign.name,
        workers=workers, wall_s=round(wall, 3), sims=sims,
        sims_per_s=units._sims_per_s(sims, wall),
        simulated=report.simulated, skipped=report.skipped,
        rows=len(report.rows),
    )
    if write_path is not None and write_path != out_path:
        os.replace(write_path, out_path)
    if metrics_out is not None:
        if metrics_stream.wrote and metrics_write_path != metrics_out:
            os.replace(metrics_write_path, metrics_out)
        elif not metrics_stream.wrote:
            # No telemetry row this run: a sidecar from an earlier
            # (differently-configured) run would be stale — remove it.
            metrics_out.unlink(missing_ok=True)
        if metrics_tmp.exists() and metrics_write_path != metrics_tmp:
            metrics_tmp.unlink()
    if out_path is not None:
        hb = report.heartbeat
        _write_meta(
            out_path, campaign, workers, report.simulated,
            heartbeat=(
                {
                    "wall_s": hb["wall_s"],
                    "sims": hb["sims"],
                    "sims_per_s": hb["sims_per_s"],
                }
                if hb is not None and hb["sims"]
                else None
            ),
            origins=origins,
        )
    return report


def _run_units(
    campaign: str,
    scenarios: Sequence[Scenario],
    pending: Sequence[bool],
    workers: int,
    service,
    heartbeat,
    replay_cached,
    record_simulated,
) -> None:
    """Run the pending work units and commit their rows in campaign order.

    :func:`~repro.service.units.partition_units` splits the pending
    scenarios into units, and every unit runs through
    :func:`~repro.service.units.execute_unit`.  The one branch is who
    calls it: the service coordinator (which may lease the unit to a
    remote worker and hands results back in campaign order whatever
    order they complete in) or the in-process loop below.  Either way
    ``on_scenario`` commits each fresh scenario and replays the cached
    ones before it, so rows stream in campaign order.  A no-op resume
    has no units, so nothing is resolved, no socket is opened and no
    pool is forked — the cached rows are replayed and that is all.
    """
    work = units.partition_units(scenarios, pending)
    next_idx = 0

    def emit_cached_until(limit: int) -> None:
        nonlocal next_idx
        while next_idx < limit:
            if pending[next_idx]:
                raise RuntimeError(
                    f"scenario {next_idx} emitted out of order"
                )  # pragma: no cover - coordinator ordering bug
            replay_cached(next_idx)
            next_idx += 1

    def on_scenario(k: int, payload: dict) -> None:
        nonlocal next_idx
        emit_cached_until(k)
        record_simulated(k, payload["rows"], payload.get("metrics", []))
        next_idx = k + 1

    if service is not None:
        from repro.service.coordinator import Coordinator

        Coordinator(
            campaign, scenarios, service, local_workers=workers,
            heartbeat=heartbeat,
        ).execute(work, on_scenario)
    else:
        for kind, indices in work:
            # Cached scenarios before this unit replay before its start
            # event, so the heartbeat stream follows campaign order.
            emit_cached_until(indices[0])
            entries = [
                units.UnitEntry(k, len(scenarios), scenarios[k]) for k in indices
            ]
            payloads, _sims = units.execute_unit(
                campaign, kind, entries, workers=workers, heartbeat=heartbeat
            )
            for k, payload in zip(indices, payloads):
                on_scenario(k, payload)
    emit_cached_until(len(scenarios))


def rows_by_label(report: CampaignReport) -> dict[str, list[dict]]:
    """Group a report's rows by scenario label, in first-seen order."""
    grouped: dict[str, list[dict]] = {}
    for row in report.rows:
        grouped.setdefault(row["label"], []).append(row)
    return grouped
