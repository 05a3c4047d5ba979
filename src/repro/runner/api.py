"""``run_all``: the one-call orchestration entry point.

Expands every registered experiment into cells, resolves what it can from
the result cache, shards the rest across worker processes, stores fresh
results back, reassembles the serial path's artifacts, and returns a
:class:`~repro.runner.progress.RunReport`.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.faults.chaos import ChaosConfig, ExecutorChaosConfig

from .cache import DEFAULT_CACHE_DIR, ResultCache
from .experiments import DEFAULT_OPTIONS
from .progress import (
    ProgressPrinter,
    RunLog,
    RunReport,
    completed_idents,
    replay_run_log,
)
from .registry import all_experiments, ensure_default_experiments, expand_units
from .scheduler import Scheduler, TaskOutcome, run_units_serially
from .results import write_artifacts


def default_jobs() -> int:
    return max(1, os.cpu_count() or 1)


def run_all(
    jobs: Optional[int] = None,
    use_cache: bool = True,
    filters: Optional[Iterable[str]] = None,
    results_dir: Union[Path, str] = "results",
    cache_dir: Union[Path, str, None] = None,
    log_path: Union[Path, str, None] = None,
    options: Optional[Mapping[str, Any]] = None,
    progress: bool = True,
    max_retries: int = 2,
    backoff: float = 0.05,
    task_timeout: Optional[float] = None,
    chaos: Optional[ChaosConfig] = None,
    executor: str = "pool",
    workers: int = 0,
    executor_options: Optional[Mapping[str, Any]] = None,
    executor_chaos: Optional[ExecutorChaosConfig] = None,
) -> RunReport:
    """Run every (filtered) experiment cell and merge the artifacts.

    ``log_path`` defaults to ``<results_dir>/run_log.jsonl``; pass an
    explicit path to redirect it.  ``options`` overrides entries of
    :data:`~repro.runner.experiments.DEFAULT_OPTIONS` (e.g. smaller trial
    counts for smoke tests).

    ``task_timeout`` arms the scheduler's per-cell wall-clock watchdog;
    ``chaos`` injects deterministic worker faults (testing only; see
    :mod:`repro.faults`).  If the previous run at this ``results_dir`` was
    interrupted, its run log is replayed for a ``run_resume`` event and
    the cache transparently resumes the work; an interrupted or
    partially-failed run leaves a ``failed_cells.json`` manifest beside
    the artifacts (now with the full per-attempt history of each failed
    cell).

    ``executor`` picks the backend: ``"pool"`` (the default per-host
    multiprocessing scheduler; ``--jobs 1`` degrades to in-process) or
    ``"work-stealing"`` -- the lease-based multi-host executor of
    :mod:`repro.runner.distributed`, which coordinates through the shared
    cache directory and accepts any ``python -m repro worker`` process on
    any host.  ``workers`` spawns that many local stealing workers;
    ``executor_options`` forwards protocol knobs (``lease_ttl``,
    ``heartbeat_interval``, ``fallback_after``, ...) and
    ``executor_chaos`` arms the executor-level fault campaign.
    """
    started = time.monotonic()
    ensure_default_experiments()
    jobs = jobs if jobs is not None else default_jobs()
    jobs = max(1, jobs)
    merged_options: Dict[str, Any] = dict(DEFAULT_OPTIONS)
    if options:
        merged_options.update(options)
    filters = list(filters) if filters else None

    units = expand_units(merged_options, filters)
    report = RunReport(units_total=len(units), jobs=jobs)
    report.executor = (
        "work-stealing" if executor == "work-stealing"
        else ("pool" if jobs > 1 else "serial")
    )

    log_file = Path(
        log_path if log_path is not None
        else Path(results_dir) / "run_log.jsonl"
    )
    # Replay the previous log *before* RunLog truncates it: a log whose
    # run never ended cleanly (no run_end, or run_end with interrupted
    # set, or a torn tail from a hard kill) marks an interrupted run this
    # one resumes (via the cache).
    prior_events = replay_run_log(log_file)
    prior_done: List[str] = []
    if prior_events:
        ended_clean = any(
            event.get("event") == "run_end" and not event.get("interrupted")
            for event in prior_events
        )
        if not ended_clean:
            prior_done = completed_idents(prior_events)

    log = RunLog(log_file)
    printer = ProgressPrinter(total=len(units), enabled=progress)

    cache = (
        ResultCache(cache_dir if cache_dir is not None else DEFAULT_CACHE_DIR)
        if use_cache
        else None
    )
    log.emit(
        "run_start",
        jobs=jobs,
        units=len(units),
        filters=filters,
        cache=bool(cache),
        code_version=cache.code_version if cache else None,
    )
    if prior_done:
        resumable = {unit.ident for unit in units}
        report.resumed_cells = sum(
            1 for ident in prior_done if ident in resumable
        )
        log.emit(
            "run_resume",
            prior_completed=len(prior_done),
            resumed=report.resumed_cells,
        )
        printer.note(
            f"resuming: a previous interrupted run completed"
            f" {report.resumed_cells}/{len(units)} of these cells"
        )

    # Resolve cache hits in-process; only misses are scheduled.
    outcomes: Dict[int, TaskOutcome] = {}
    to_run: List[Any] = []
    for task_id, unit in enumerate(units):
        if cache is not None:
            hit, value = cache.get(unit)
            if hit:
                outcomes[task_id] = TaskOutcome(
                    unit=unit, value=value, cached=True
                )
                log.emit(
                    "unit_done",
                    experiment=unit.experiment,
                    key=unit.key,
                    status="ok",
                    cached=True,
                    elapsed=0.0,
                )
                continue
        to_run.append((task_id, unit))

    printer.cache_hits = len(outcomes)
    printer.base_done = len(outcomes)
    if outcomes:
        printer.note(
            f"{len(outcomes)}/{len(units)} cells from cache,"
            f" {len(to_run)} to run"
        )

    if executor not in ("pool", "work-stealing"):
        raise ValueError(
            f"unknown executor {executor!r}; known: pool, work-stealing"
        )
    if to_run and executor == "work-stealing":
        from .distributed import WorkStealingExecutor

        stealer = WorkStealingExecutor(
            cache_dir=cache_dir if cache_dir is not None else DEFAULT_CACHE_DIR,
            local_workers=workers,
            max_retries=max_retries,
            backoff=backoff,
            log=log,
            progress=printer,
            chaos=executor_chaos,
            **dict(executor_options or {}),
        )
        try:
            fresh = stealer.run(to_run)
        finally:
            stealer.close()
        report.retries = stealer.retries
        report.worker_crashes = stealer.worker_crashes
        report.corrupt_results = stealer.corrupt_results
        report.interrupted = stealer.interrupted
        report.leases_reclaimed = stealer.leases_reclaimed
        report.duplicate_completions = stealer.duplicate_completions
        report.quarantined = stealer.quarantined
        report.fallback_cells = stealer.fallback_cells
        report.torn_journals = stealer.torn_journals
        report.worker_busy = dict(stealer.worker_busy)
        report.cells_stolen = sum(
            count
            for worker, count in stealer.cells_by_worker.items()
            if not worker.startswith("orchestrator-")
        )
    elif to_run and jobs > 1:
        scheduler = Scheduler(
            jobs=jobs,
            max_retries=max_retries,
            backoff=backoff,
            log=log,
            progress=printer,
            task_timeout=task_timeout,
            chaos=chaos,
        )
        fresh = scheduler.run(to_run)
        report.retries = scheduler.retries
        report.worker_crashes = scheduler.worker_crashes
        report.watchdog_kills = scheduler.watchdog_kills
        report.corrupt_results = scheduler.corrupt_results
        report.interrupted = scheduler.interrupted
        report.worker_busy = dict(scheduler.worker_busy)
    elif to_run:
        fresh = run_units_serially(to_run, log)
        # The serial path records an outcome for every cell it reaches
        # (even failures); a shortfall means Ctrl-C stopped it early.
        report.interrupted = len(fresh) < len(to_run)
        report.worker_busy = {
            0: sum(outcome.elapsed for outcome in fresh.values())
        }
    else:
        fresh = {}

    if cache is not None:
        for outcome in fresh.values():
            if not outcome.failed:
                cache.put(outcome.unit, outcome.value, outcome.elapsed)
    outcomes.update(fresh)

    report.cache_hits = cache.stats.hits if cache else 0
    report.cache_misses = cache.stats.misses if cache else 0
    report.cache_corrupt = cache.stats.corrupt if cache else 0
    report.completed = sum(
        1 for outcome in outcomes.values() if not outcome.failed
    )
    report.failed = [
        outcomes[task_id].unit.ident
        for task_id in sorted(outcomes)
        if outcomes[task_id].failed
    ]

    # Group completed values per experiment, in unit enumeration order.
    grouped: Dict[str, List[Any]] = {}
    incomplete: set = set()
    for task_id, unit in enumerate(units):
        outcome = outcomes.get(task_id)
        if outcome is None or outcome.failed:
            incomplete.add(unit.experiment)
            continue
        grouped.setdefault(unit.experiment, []).append(outcome.value)

    assembled: Dict[str, Any] = {}
    for experiment in all_experiments():
        name = experiment.name
        if name in incomplete or name not in grouped:
            continue
        # A filtered run may hold only a subset of an experiment's cells;
        # partial sets cannot be reassembled into a faithful artifact.
        if len(grouped[name]) != len(experiment.units(merged_options)):
            continue
        assembled[name] = experiment.assemble(grouped[name], merged_options)

    report.artifacts = write_artifacts(
        assembled, results_dir, merged_options, log
    )

    # Quarantine manifest: which cells failed (with errors), which never
    # ran, and whether the run was cut short -- machine-readable, so CI
    # and resume tooling need not parse the log.
    manifest_path = Path(results_dir) / "failed_cells.json"
    if report.failed or report.interrupted:
        missing = [
            unit.ident
            for task_id, unit in enumerate(units)
            if task_id not in outcomes
        ]
        manifest = {
            "interrupted": report.interrupted,
            "failed": [
                {
                    "ident": outcomes[task_id].unit.ident,
                    "attempts": outcomes[task_id].attempts,
                    "error": (
                        outcomes[task_id].error.splitlines()[-1]
                        if outcomes[task_id].error
                        else None
                    ),
                    # Full per-attempt evidence: worker id, fault or
                    # exception, and the backoff each retry waited out.
                    "history": outcomes[task_id].history,
                }
                for task_id in sorted(outcomes)
                if outcomes[task_id].failed
            ],
            "missing": missing,
        }
        manifest_path.parent.mkdir(parents=True, exist_ok=True)
        manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        log.emit("manifest", path=str(manifest_path))
    elif manifest_path.exists():
        # A fully successful run clears the previous quarantine record.
        manifest_path.unlink()

    report.elapsed = time.monotonic() - started
    log.emit("run_end", **report.summary_fields())
    log.close()
    printer.update(
        done=len(outcomes) - printer.base_done,
        retries=report.retries,
        workers=0,
        force=True,
    )
    if report.artifacts:
        printer.note(f"wrote {len(report.artifacts)} artifacts")
    if report.cache_corrupt:
        printer.note(
            f"cache: {report.cache_corrupt} corrupt entries treated as"
            " misses and recomputed"
        )
    if report.failed:
        printer.note(f"FAILED cells: {', '.join(report.failed)}")
    if report.interrupted:
        printer.note(
            f"interrupted: {report.completed}/{report.units_total} cells"
            " done; rerun to resume from the cache"
        )
    return report
