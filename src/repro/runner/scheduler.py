"""The execution seam and its backends: run cells, survive failures.

Two layers live here.  The :class:`Executor` protocol is the seam every
backend implements -- ``submit(unit) -> TaskOutcome`` -- shared by
``run_all``, :mod:`repro.serve`, and any future remote backend.  Behind
it sit three implementations:

* :class:`Scheduler` -- the multiprocessing pool (bulk-optimized via
  :meth:`Scheduler.run`): workers fed from a bounded task queue, each
  announcing a *claim* before running a cell so the parent always knows
  which cell died with a crashed worker.  Crashed or erroring cells are
  retried with exponential backoff up to ``max_retries`` times, then
  marked failed -- a dead worker never loses the run, and never blocks
  the remaining cells.
* :class:`InProcessExecutor` -- the ``--jobs 1`` path: cells run in the
  calling process, same telemetry, no processes.
* :class:`AsyncInProcessExecutor` -- the :mod:`repro.serve` backend:
  ``submit`` is a coroutine that runs the cell on a worker thread under
  a concurrency semaphore, so a long-lived asyncio service stays
  responsive while cells execute.

Results can travel as a :class:`ResultEnvelope` -- the pickled payload
plus its SHA-256 -- so any boundary (a worker queue, a service response)
can verify the bytes it received are the bytes the cell produced.

Determinism comes from the units, not the schedule: every
:class:`~repro.runner.registry.Unit` carries its own stable seed and its
run function derives any internal RNG from the cell's identity, so results
are identical for any backend, any ``--jobs`` value, and any completion
order.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import queue as queue_module
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.faults.chaos import ChaosConfig

from .backoff import backoff_delay
from .progress import ProgressPrinter, RunLog
from .registry import Unit, get_experiment


class IntegrityError(RuntimeError):
    """A result envelope whose payload no longer matches its digest."""


@dataclass(frozen=True)
class ResultEnvelope:
    """A pickled cell result sealed with its SHA-256.

    Sealing hashes the exact serialized bytes, so the envelope can cross
    any boundary -- a worker result queue, an on-disk store, a service
    response -- and :meth:`open` will refuse a payload corrupted anywhere
    in between.
    """

    blob: bytes
    sha256: str
    #: Static/dynamic cross-certification verdict carried by the payload
    #: (``certified`` key of an assembled result), when it has one.  None
    #: means the payload makes no certification claim.
    certified: Optional[bool] = None

    @classmethod
    def seal(cls, value: Any) -> "ResultEnvelope":
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        certified = (
            value.get("certified") if isinstance(value, Mapping) else None
        )
        return cls(
            blob=blob,
            sha256=hashlib.sha256(blob).hexdigest(),
            certified=certified,
        )

    @property
    def intact(self) -> bool:
        return hashlib.sha256(self.blob).hexdigest() == self.sha256

    def open(self) -> Any:
        """Verify the digest and unpickle the payload."""
        if not self.intact:
            raise IntegrityError(
                "result payload failed its integrity check"
            )
        return pickle.loads(self.blob)


@dataclass
class TaskOutcome:
    """Terminal state of one scheduled cell."""

    unit: Unit
    value: Any = None
    elapsed: float = 0.0
    #: Pool workers are numbered; distributed workers carry string ids.
    worker: Optional[Union[int, str]] = None
    attempts: int = 1
    cached: bool = False
    failed: bool = False
    error: Optional[str] = None
    #: Sealed form of ``value`` when the backend produced one (the async
    #: executor always seals; the serial path only when asked).
    envelope: Optional[ResultEnvelope] = None
    #: Per-attempt records (worker, fault/exception, backoff applied) for
    #: every non-first attempt -- the quarantine manifest's evidence.
    history: List[Dict[str, Any]] = field(default_factory=list)


class Executor:
    """The execution seam: submit one cell, receive its terminal outcome.

    ``submit`` never raises for a failing cell -- failures come back as
    ``TaskOutcome(failed=True)`` -- so callers treat every backend
    uniformly.  Implementations may be synchronous (returning the
    outcome directly) or asynchronous (``submit`` defined as a
    coroutine function, as in :class:`AsyncInProcessExecutor`); async-
    aware callers await what they get.
    """

    def submit(self, unit: Unit) -> TaskOutcome:
        raise NotImplementedError

    def run(self, units: List[Tuple[int, Unit]]) -> Dict[int, TaskOutcome]:
        """Bulk execution; the default just drains ``submit`` in order."""
        return {task_id: self.submit(unit) for task_id, unit in units}

    def close(self) -> None:
        """Release backend resources (worker pools, threads)."""


class InProcessExecutor(Executor):
    """Run cells in the calling process (the ``--jobs 1`` path).

    Emits the same ``unit_done`` telemetry as the process pool.  With
    ``seal=True`` every outcome carries a :class:`ResultEnvelope`, which
    :mod:`repro.serve` uses to hand integrity-checked bytes to its
    result store.
    """

    def __init__(self, log: Optional[RunLog] = None, seal: bool = False) -> None:
        self.log = log or RunLog(None)
        self.seal = seal

    def submit(self, unit: Unit) -> TaskOutcome:
        start = time.perf_counter()
        try:
            value = get_experiment(unit.experiment).run(dict(unit.params))
        except Exception:
            error = traceback.format_exc()
            self.log.emit(
                "unit_done",
                experiment=unit.experiment,
                key=unit.key,
                status="failed",
                error=error.splitlines()[-1],
            )
            return TaskOutcome(unit=unit, failed=True, error=error)
        elapsed = time.perf_counter() - start
        envelope = ResultEnvelope.seal(value) if self.seal else None
        self.log.emit(
            "unit_done",
            experiment=unit.experiment,
            key=unit.key,
            status="ok",
            cached=False,
            elapsed=round(elapsed, 4),
            worker=0,
            attempts=1,
        )
        return TaskOutcome(
            unit=unit, value=value, elapsed=elapsed, worker=0,
            envelope=envelope,
        )


class AsyncInProcessExecutor(Executor):
    """Asyncio backend: cells run on worker threads, outcomes sealed.

    ``submit`` is a coroutine: it acquires a concurrency semaphore and
    runs the cell via :func:`asyncio.to_thread`, so an event loop can
    keep serving requests while simulations execute.  The semaphore is
    created lazily on the first running loop and the executor is bound
    to it from then on -- one executor per service lifetime.
    """

    def __init__(
        self,
        max_concurrency: int = 2,
        log: Optional[RunLog] = None,
        seal: bool = True,
    ) -> None:
        self.max_concurrency = max(1, max_concurrency)
        self._inner = InProcessExecutor(log=log, seal=seal)
        self._semaphore: Optional[Any] = None

    async def submit(self, unit: Unit) -> TaskOutcome:  # type: ignore[override]
        import asyncio

        if self._semaphore is None:
            self._semaphore = asyncio.Semaphore(self.max_concurrency)
        async with self._semaphore:
            return await asyncio.to_thread(self._inner.submit, unit)


def _worker_main(
    worker_id: int,
    task_queue: "multiprocessing.Queue",
    result_queue: "multiprocessing.Queue",
    chaos: Optional[ChaosConfig] = None,
) -> None:
    """Worker loop: claim, run, report; exit on the ``None`` sentinel.

    Successful results travel as an *integrity envelope*: the pickled
    payload plus its SHA-256, hashed worker-side over the exact bytes put
    on the queue, so the parent can reject a payload corrupted anywhere
    between ``run`` returning and the queue read (or by the chaos mode
    that simulates exactly that).

    With a :class:`~repro.faults.chaos.ChaosConfig`, the worker misbehaves
    deterministically per ``(cell, attempt)``: hanging (to exercise the
    parent's watchdog), dying without a word (crash recovery), tampering
    with the payload after hashing (envelope verification), or raising on
    every attempt (poison-cell quarantine).
    """
    from repro.runner.registry import ensure_default_experiments

    ensure_default_experiments()
    while True:
        item = task_queue.get()
        if item is None:
            result_queue.put(("bye", worker_id, -1, None, 0.0))
            return
        task_id, experiment_name, params, ident, attempt = item
        result_queue.put(("claim", worker_id, task_id, None, 0.0))
        fault = chaos.fault_for(ident, attempt) if chaos is not None else None
        if fault == "hang":
            time.sleep(chaos.hang_seconds)
        elif fault == "crash":
            os._exit(113)
        start = time.perf_counter()
        try:
            if fault == "poison":
                raise RuntimeError(f"chaos: poisoned cell {ident}")
            value = get_experiment(experiment_name).run(params)
        except BaseException:
            result_queue.put(
                (
                    "err",
                    worker_id,
                    task_id,
                    traceback.format_exc(),
                    time.perf_counter() - start,
                )
            )
        else:
            envelope = ResultEnvelope.seal(value)
            blob = envelope.blob
            if fault == "corrupt-result":
                tampered = bytearray(blob)
                tampered[len(tampered) // 2] ^= 0xFF
                blob = bytes(tampered)
            result_queue.put(
                (
                    "ok",
                    worker_id,
                    task_id,
                    (blob, envelope.sha256),
                    time.perf_counter() - start,
                )
            )


class Scheduler(Executor):
    """Run units across ``jobs`` worker processes (see module docstring).

    The bulk path is :meth:`run`; :meth:`submit` satisfies the
    :class:`Executor` protocol for one-off cells but spins the pool up
    and down per call -- services wanting per-cell submission should use
    :class:`AsyncInProcessExecutor` (or keep a bulk batch per job).
    """

    def __init__(
        self,
        jobs: int,
        max_retries: int = 2,
        backoff: float = 0.05,
        log: Optional[RunLog] = None,
        progress: Optional[ProgressPrinter] = None,
        poll_interval: float = 0.1,
        task_timeout: Optional[float] = None,
        chaos: Optional[ChaosConfig] = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self.max_retries = max_retries
        self.backoff = backoff
        self.log = log or RunLog(None)
        self.progress = progress
        self.poll_interval = poll_interval
        #: Wall-clock budget per cell attempt; a claim outstanding longer
        #: gets its worker killed and the cell requeued with backoff.
        self.task_timeout = task_timeout
        self.chaos = chaos
        self.retries = 0
        self.worker_crashes = 0
        self.watchdog_kills = 0
        self.corrupt_results = 0
        #: True once a KeyboardInterrupt stopped the run early.
        self.interrupted = False
        self.worker_busy: Dict[int, float] = {}
        # ``fork`` keeps test-registered experiments visible to workers and
        # avoids re-importing the package per process; fall back to the
        # platform default where fork does not exist.
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._ctx = multiprocessing.get_context()

    def submit(self, unit: Unit) -> TaskOutcome:
        """One-cell convenience over :meth:`run` (pool per call)."""
        return self.run([(0, unit)])[0]

    # -- internals -----------------------------------------------------------------

    def _spawn_worker(self, worker_id: int, task_queue, result_queue):
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, task_queue, result_queue, self.chaos),
            daemon=True,
            name=f"repro-worker-{worker_id}",
        )
        process.start()
        return process

    def run(self, units: List[Tuple[int, Unit]]) -> Dict[int, TaskOutcome]:
        """Execute ``(task_id, unit)`` pairs; returns outcomes by task id."""
        if not units:
            return {}
        jobs = min(self.jobs, len(units))
        task_queue = self._ctx.Queue(maxsize=max(2, 2 * jobs))
        result_queue = self._ctx.Queue()
        by_id = {task_id: unit for task_id, unit in units}

        #: (task_id, not_before) cells awaiting dispatch.
        pending: deque = deque((task_id, 0.0) for task_id, _unit in units)
        attempts: Dict[int, int] = {task_id: 0 for task_id, _unit in units}
        #: task_id -> worker currently executing it.
        claimed: Dict[int, int] = {}
        #: task_id -> monotonic claim time (the watchdog's clock).
        claim_times: Dict[int, float] = {}
        #: Cells handed to the queue whose fate is unknown.
        dispatched: set = set()
        outcomes: Dict[int, TaskOutcome] = {}

        self._next_worker_id = jobs
        workers: Dict[int, Any] = {}
        for worker_id in range(jobs):
            workers[worker_id] = self._spawn_worker(
                worker_id, task_queue, result_queue
            )
            self.worker_busy.setdefault(worker_id, 0.0)

        #: task_id -> per-attempt failure records (the quarantine evidence).
        history: Dict[int, List[Dict[str, Any]]] = {
            task_id: [] for task_id, _unit in units
        }

        def schedule_retry(
            task_id: int,
            reason: str,
            error: str,
            worker: Optional[Union[int, str]] = None,
        ) -> None:
            attempts[task_id] += 1
            unit = by_id[task_id]
            retrying = attempts[task_id] <= self.max_retries
            delay = (
                backoff_delay(
                    attempts[task_id],
                    base=self.backoff,
                    ident=unit.ident,
                    seed=unit.seed,
                )
                if retrying else 0.0
            )
            history[task_id].append(
                {
                    "attempt": attempts[task_id],
                    "worker": worker,
                    "status": reason,
                    "error": error.splitlines()[-1] if error else None,
                    "backoff": round(delay, 4),
                }
            )
            if retrying:
                pending.append((task_id, time.monotonic() + delay))
                self.retries += 1
                self.log.emit(
                    "retry",
                    experiment=unit.experiment,
                    key=unit.key,
                    attempt=attempts[task_id],
                    backoff=round(delay, 3),
                    reason=reason,
                )
            else:
                outcomes[task_id] = TaskOutcome(
                    unit=unit,
                    failed=True,
                    error=error,
                    attempts=attempts[task_id],
                    history=list(history[task_id]),
                )
                self.log.emit(
                    "unit_done",
                    experiment=unit.experiment,
                    key=unit.key,
                    status="failed",
                    attempts=attempts[task_id],
                    error=error.splitlines()[-1] if error else None,
                )

        try:
            while len(outcomes) < len(by_id):
                # Feed the bounded queue from the pending deque.
                now = time.monotonic()
                deferred = []
                while pending:
                    task_id, not_before = pending.popleft()
                    if not_before > now:
                        deferred.append((task_id, not_before))
                        continue
                    try:
                        unit = by_id[task_id]
                        task_queue.put_nowait(
                            (
                                task_id,
                                unit.experiment,
                                dict(unit.params),
                                unit.ident,
                                attempts[task_id] + 1,
                            )
                        )
                        dispatched.add(task_id)
                    except queue_module.Full:
                        deferred.append((task_id, not_before))
                        break
                pending.extend(deferred)

                # Drain results.
                try:
                    kind, worker_id, task_id, payload, elapsed = (
                        result_queue.get(timeout=self.poll_interval)
                    )
                except queue_module.Empty:
                    self._watchdog(
                        workers, by_id, claimed, claim_times, dispatched,
                        task_queue, result_queue, schedule_retry,
                    )
                    self._check_workers(
                        workers, claimed, claim_times, dispatched, outcomes,
                        pending, task_queue, result_queue, schedule_retry,
                    )
                    # A worker can die between dequeuing a task and claiming
                    # it; if everything is quiet but cells are unaccounted
                    # for, re-dispatch them (duplicate completions are
                    # ignored, and cells are deterministic anyway).
                    if (
                        not pending
                        and not claimed
                        and task_queue.empty()
                        and len(outcomes) < len(by_id)
                    ):
                        lost = [
                            task_id
                            for task_id in dispatched
                            if task_id not in outcomes
                        ]
                        for task_id in lost:
                            schedule_retry(
                                task_id, "lost-in-flight", "task lost in flight"
                            )
                    continue

                if kind == "bye":
                    continue
                if kind == "claim":
                    claimed[task_id] = worker_id
                    claim_times[task_id] = time.monotonic()
                    continue
                claimed.pop(task_id, None)
                claim_times.pop(task_id, None)
                dispatched.discard(task_id)
                self.worker_busy[worker_id] = (
                    self.worker_busy.get(worker_id, 0.0) + elapsed
                )
                if task_id in outcomes:
                    continue  # duplicate completion after a lost-task retry
                unit = by_id[task_id]
                if kind == "ok":
                    envelope = ResultEnvelope(*payload)
                    try:
                        value = envelope.open()
                    except IntegrityError as error:
                        self.corrupt_results += 1
                        self.log.emit(
                            "corrupt_result",
                            experiment=unit.experiment,
                            key=unit.key,
                            worker=worker_id,
                        )
                        schedule_retry(
                            task_id, "corrupt-result", str(error),
                            worker=worker_id,
                        )
                        continue
                    outcomes[task_id] = TaskOutcome(
                        unit=unit,
                        value=value,
                        elapsed=elapsed,
                        worker=worker_id,
                        attempts=attempts[task_id] + 1,
                        envelope=envelope,
                        history=list(history[task_id]),
                    )
                    self.log.emit(
                        "unit_done",
                        experiment=unit.experiment,
                        key=unit.key,
                        status="ok",
                        cached=False,
                        elapsed=round(elapsed, 4),
                        worker=worker_id,
                        attempts=attempts[task_id] + 1,
                    )
                    if self.progress is not None:
                        self.progress.update(
                            done=len(outcomes),
                            retries=self.retries,
                            workers=len(workers),
                        )
                else:  # "err"
                    schedule_retry(
                        task_id, "exception", payload, worker=worker_id
                    )

                self._watchdog(
                    workers, by_id, claimed, claim_times, dispatched,
                    task_queue, result_queue, schedule_retry,
                )
                self._check_workers(
                    workers, claimed, claim_times, dispatched, outcomes,
                    pending, task_queue, result_queue, schedule_retry,
                )
        except KeyboardInterrupt:
            self.interrupted = True
            self.log.emit(
                "interrupted",
                completed=len(outcomes),
                remaining=len(by_id) - len(outcomes),
            )
        finally:
            self._shutdown(workers, task_queue, force=self.interrupted)
        return outcomes

    def _watchdog(
        self,
        workers,
        by_id,
        claimed,
        claim_times,
        dispatched,
        task_queue,
        result_queue,
        schedule_retry,
    ) -> None:
        """Kill workers whose claimed cell exceeded ``task_timeout``.

        The hung cell is requeued (with the usual backoff and retry
        budget), a replacement worker is spawned, and the kill is recorded
        as a ``watchdog_kill`` log event -- so a single wedged cell can
        slow a run down but never wedge it.
        """
        if self.task_timeout is None:
            return
        now = time.monotonic()
        for task_id, since in list(claim_times.items()):
            if now - since <= self.task_timeout:
                continue
            claim_times.pop(task_id, None)
            worker_id = claimed.pop(task_id, None)
            if worker_id is None:
                continue
            dispatched.discard(task_id)
            unit = by_id[task_id]
            self.watchdog_kills += 1
            self.log.emit(
                "watchdog_kill",
                worker=worker_id,
                experiment=unit.experiment,
                key=unit.key,
                timeout=self.task_timeout,
            )
            process = workers.pop(worker_id, None)
            if process is not None:
                process.kill()
                process.join(timeout=2.0)
                replacement_id = self._next_worker_id
                self._next_worker_id += 1
                workers[replacement_id] = self._spawn_worker(
                    replacement_id, task_queue, result_queue
                )
                self.worker_busy.setdefault(replacement_id, 0.0)
            schedule_retry(
                task_id,
                "watchdog-timeout",
                f"cell exceeded the {self.task_timeout}s watchdog timeout",
                worker=worker_id,
            )

    def _check_workers(
        self,
        workers,
        claimed,
        claim_times,
        dispatched,
        outcomes,
        pending,
        task_queue,
        result_queue,
        schedule_retry,
    ) -> None:
        """Detect crashed workers, recover their cells, and respawn."""
        for worker_id, process in list(workers.items()):
            if process.is_alive():
                continue
            # Workers only exit on the shutdown sentinel, which is sent
            # after this loop finishes -- a dead worker here is a crash.
            self.worker_crashes += 1
            self.log.emit(
                "worker_crash",
                worker=worker_id,
                pid=process.pid,
                exitcode=process.exitcode,
            )
            del workers[worker_id]
            for task_id, claimant in list(claimed.items()):
                if claimant == worker_id:
                    del claimed[task_id]
                    claim_times.pop(task_id, None)
                    dispatched.discard(task_id)
                    schedule_retry(
                        task_id,
                        "worker-crash",
                        f"worker {worker_id} died (exit {process.exitcode})",
                        worker=worker_id,
                    )
            replacement_id = self._next_worker_id
            self._next_worker_id += 1
            workers[replacement_id] = self._spawn_worker(
                replacement_id, task_queue, result_queue
            )
            self.worker_busy.setdefault(replacement_id, 0.0)

    def _shutdown(self, workers, task_queue, force: bool = False) -> None:
        """Stop all workers; ``force`` terminates without draining.

        The forced path serves Ctrl-C: workers are interrupted mid-cell,
        so waiting for sentinel pickup would hang on a full queue.
        """
        if force:
            for process in workers.values():
                process.terminate()
            for process in workers.values():
                process.join(timeout=2.0)
            for process in workers.values():
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.kill()
                    process.join(timeout=1.0)
            task_queue.close()
            task_queue.cancel_join_thread()
            return
        for _ in workers:
            try:
                task_queue.put_nowait(None)
            except queue_module.Full:  # pragma: no cover - tiny queue race
                pass
        deadline = time.monotonic() + 5.0
        for process in workers.values():
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process in workers.values():
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
        task_queue.close()
        task_queue.cancel_join_thread()


def run_units_serially(
    units: List[Tuple[int, Unit]], log: Optional[RunLog] = None
) -> Dict[int, TaskOutcome]:
    """In-process execution (``--jobs 1``): same semantics, no processes.

    A ``KeyboardInterrupt`` stops the loop between (or inside) cells and
    returns the outcomes gathered so far; ``run_all`` reads the shortfall
    as an interrupted run and reports partially.
    """
    executor = InProcessExecutor(log=log or RunLog(None))
    outcomes: Dict[int, TaskOutcome] = {}
    for task_id, unit in units:
        try:
            outcomes[task_id] = executor.submit(unit)
        except KeyboardInterrupt:
            executor.log.emit(
                "interrupted",
                completed=len(outcomes),
                remaining=len(units) - len(outcomes),
            )
            return outcomes
    return outcomes
