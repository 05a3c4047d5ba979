"""Run telemetry: live console progress and a machine-readable JSONL log.

Every run appends structured events to a JSONL file (one JSON object per
line, ``event`` field first).  The schema is documented in
``docs/runner.md``; the events are:

``run_start``      jobs, unit count, code version, filters
``run_resume``     a previous (interrupted) run log was found and replayed
``unit_done``      one cell finished (ok / failed / cached), with timings
``retry``          a cell is being re-queued after an error or crash
``worker_crash``   a worker process died mid-cell
``watchdog_kill``  the wall-clock watchdog killed a hung worker
``interrupted``    the run stopped early (Ctrl-C); a partial report follows
``artifact``       one merged output file was written
``run_end``        wall time, throughput, cache hit-rate, utilization

The console printer renders the same information as throttled single-line
updates so a multi-hundred-cell run stays readable in CI logs.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, IO, List, Optional

from repro.sim.observers import JsonlWriter


class RunLog:
    """Append-only JSONL event log (no-op when constructed with ``None``).

    Serialization is delegated to :class:`repro.sim.JsonlWriter`, the same
    writer behind the event tracer, so both logs share one JSONL dialect.
    """

    def __init__(self, path: Optional[Path | str]) -> None:
        self.path = Path(path) if path is not None else None
        self._writer: Optional[JsonlWriter] = None
        if self.path is not None:
            self._writer = JsonlWriter(self.path)

    def emit(self, event: str, **fields: Any) -> None:
        if self._writer is None:
            return
        record: Dict[str, Any] = {"event": event, "time": time.time()}
        record.update(fields)
        self._writer.write(record)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None


def replay_run_log(path: Path | str) -> List[Dict[str, Any]]:
    """Load a previous run's JSONL log, tolerating an interrupted tail.

    Used by ``run-all`` to report what an interrupted campaign already
    completed before resuming it from the result cache.  Delegates to
    :func:`repro.sim.read_jsonl`, so a log torn mid-record by a kill is
    replayed up to its last whole event.  Returns ``[]`` for a missing
    log.
    """
    from repro.sim import read_jsonl

    path = Path(path)
    if not path.is_file():
        return []
    return read_jsonl(path)


def completed_idents(events: List[Dict[str, Any]]) -> List[str]:
    """Cells a replayed run log records as successfully finished."""
    return [
        f"{record.get('experiment')}/{record.get('key')}"
        for record in events
        if record.get("event") == "unit_done" and record.get("status") == "ok"
    ]


@dataclass
class RunReport:
    """Summary statistics of one orchestrated run."""

    units_total: int = 0
    completed: int = 0
    failed: List[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    retries: int = 0
    worker_crashes: int = 0
    #: Hung workers killed (and their cells requeued) by the watchdog.
    watchdog_kills: int = 0
    #: Results rejected by the integrity envelope and recomputed.
    corrupt_results: int = 0
    #: On-disk cache entries found unreadable (torn writes) and recomputed.
    cache_corrupt: int = 0
    #: The run stopped early (Ctrl-C); artifacts/manifest are partial.
    interrupted: bool = False
    #: Cells a previous interrupted run had already completed (log replay).
    resumed_cells: int = 0
    jobs: int = 1
    elapsed: float = 0.0
    #: Per-worker busy seconds, for the utilization figure.
    worker_busy: Dict[Any, float] = field(default_factory=dict)
    artifacts: List[str] = field(default_factory=list)
    #: Which executor backend ran the cells ("serial"/"pool"/"work-stealing").
    executor: str = "pool"
    #: -- work-stealing executor counters (zero under other backends) --------
    #: Stale leases taken away from silent workers.
    leases_reclaimed: int = 0
    #: Cells observed to complete more than once (lease races/violations);
    #: harmless by determinism, but counted as protocol evidence.
    duplicate_completions: int = 0
    #: Cells quarantined into failed_cells.json with full attempt history.
    quarantined: int = 0
    #: Cells the parent ran inline after no worker ever checked in.
    fallback_cells: int = 0
    #: Cells completed by workers other than the parent process.
    cells_stolen: int = 0
    #: Worker journals found torn mid-record (masked, but never silent).
    torn_journals: int = 0
    #: -- inert, read only by the perfbench benchmark ----------------------
    #: Always zero; nothing in repro counts them.  Drop both with the next
    #: benchmark change.
    kernel_run_hits: int = 0
    kernel_fallback_accesses: int = 0

    @property
    def cache_hit_rate(self) -> float:
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0

    @property
    def cells_per_second(self) -> float:
        return self.completed / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def utilization(self) -> float:
        """Busy time across workers over the run's total worker capacity."""
        if self.elapsed <= 0 or self.jobs <= 0:
            return 0.0
        busy = sum(self.worker_busy.values())
        return min(busy / (self.elapsed * self.jobs), 1.0)

    @property
    def ok(self) -> bool:
        return not self.failed and not self.interrupted

    def summary_fields(self) -> Dict[str, Any]:
        return {
            "units": self.units_total,
            "completed": self.completed,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "retries": self.retries,
            "worker_crashes": self.worker_crashes,
            "watchdog_kills": self.watchdog_kills,
            "corrupt_results": self.corrupt_results,
            "cache_corrupt": self.cache_corrupt,
            "interrupted": self.interrupted,
            "resumed_cells": self.resumed_cells,
            "jobs": self.jobs,
            "elapsed": round(self.elapsed, 3),
            "cells_per_second": round(self.cells_per_second, 3),
            "worker_utilization": round(self.utilization, 4),
            "executor": self.executor,
            "leases_reclaimed": self.leases_reclaimed,
            "duplicate_completions": self.duplicate_completions,
            "quarantined": self.quarantined,
            "fallback_cells": self.fallback_cells,
            "cells_stolen": self.cells_stolen,
            "torn_journals": self.torn_journals,
        }


class ProgressPrinter:
    """Throttled, single-line-per-update console progress."""

    def __init__(
        self,
        total: int,
        enabled: bool = True,
        stream: IO[str] = sys.stderr,
        min_interval: float = 1.0,
    ) -> None:
        self.total = total
        self.enabled = enabled
        self.stream = stream
        self.min_interval = min_interval
        self.started = time.monotonic()
        self._last_printed = 0.0
        #: Cells resolved before scheduling (cache hits); live completions
        #: from the scheduler are reported relative to this base.
        self.base_done = 0
        self.cache_hits = 0

    def note(self, message: str) -> None:
        if self.enabled:
            elapsed = time.monotonic() - self.started
            print(f"[{elapsed:7.1f}s] {message}", file=self.stream, flush=True)

    def update(
        self,
        done: int,
        retries: int = 0,
        workers: int = 0,
        force: bool = False,
    ) -> None:
        if not self.enabled:
            return
        now = time.monotonic()
        if not force and now - self._last_printed < self.min_interval:
            return
        self._last_printed = now
        total_done = self.base_done + done
        elapsed = now - self.started
        rate = done / elapsed if elapsed > 0 else 0.0
        remaining = self.total - total_done
        eta = remaining / rate if rate > 0 else float("inf")
        eta_text = f"{eta:5.0f}s" if eta != float("inf") else "   --"
        print(
            f"[{elapsed:7.1f}s] {total_done}/{self.total} cells"
            f" · {rate:5.1f} cells/s · eta {eta_text}"
            f" · cache {self.cache_hits} · retries {retries}"
            f" · workers {workers}",
            file=self.stream,
            flush=True,
        )
