"""One cold batch round, in a fresh interpreter.

``run.py`` starts this script once per round, so every round pays the
program's real start-up and finds no in-process state left by an earlier
round.  It reads a JSON job description (argument 1) and writes a JSON
result (the job's ``out`` path):

1. set-up: imports plus ``ensure_default_experiments``, timed from the
   moment the parent spawned this process (pinned to one CPU; a pool
   round then widens to the CPUs the job names);
2. the cold ``run_all`` over the job's filters, with an empty cache and a
   fresh results directory, optionally under the span wrappers;
3. the correctness gate on every cell and on any whole artifact.
"""

import json
import os
import sys
import time
from pathlib import Path


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    from repro.runner.api import run_all
    from repro.runner.registry import ensure_default_experiments

    ensure_default_experiments()
    ready = time.monotonic()
    out = {"setup_s": ready - job["t_spawn"], "setup_window": (job["t_spawn"], ready)}
    if job.get("widen"):
        # Set up on the pinned CPU, run the pool on all of them.
        os.sched_setaffinity(0, job["widen"])

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from gate import Reference
    from repro.runner.cache import ResultCache
    from repro.runner.experiments import DEFAULT_OPTIONS
    from repro.runner.progress import replay_run_log
    from repro.runner.registry import expand_units

    work = Path(job["workdir"])
    results_dir = work / "results"
    cache_dir = work / "cache"
    filters = job["filters"]

    def cold_run():
        out["window"] = [time.monotonic()]
        start = time.perf_counter()
        report = run_all(
            jobs=job["jobs"],
            filters=filters,
            results_dir=results_dir,
            cache_dir=cache_dir,
            log_path=work / "run_log.jsonl",
            progress=False,
        )
        wall = time.perf_counter() - start
        out["window"].append(time.monotonic())
        return report, wall

    if job.get("trace"):
        from spans import Recorder, install

        recorder = Recorder()
        install(recorder)
        root = recorder.open("run_all")
        report, wall = cold_run()
        recorder.close(root)
        out["trace"] = trace_summary(recorder, wall)
        if job.get("spans_out"):
            recorder.dump(job["spans_out"])
    else:
        report, wall = cold_run()
    out["wall_s"] = wall
    out["peak_rss_mb"] = peak_rss_mb()

    # Correctness: every cell against results/, whole artifacts byte-exact.
    # An operation is a cell or a whole artifact; each counts as failed
    # once, however many lines describe what is wrong with it.
    reference = Reference(Path(job["reference"]))
    cache = ResultCache(cache_dir)
    units = expand_units(DEFAULT_OPTIONS, filters)
    mismatches = [f"FAILED cell {ident}" for ident in report.failed]
    failed = set(report.failed)
    instructions = trials = 0
    for unit in units:
        hit, value = cache.get(unit)
        problems = reference.check_cell(unit.ident, value) if hit else [f"{unit.ident}: no result"]
        if problems:
            mismatches.extend(problems)
            failed.add(unit.ident)
            continue
        if unit.experiment == "fig7":
            instructions += value.total.instructions
        else:
            trials += 2 * unit.params["trials"]
    artifact_problems = reference.check_artifacts(results_dir, job["artifacts"])
    mismatches.extend(artifact_problems)

    elapsed = {
        f"{event['experiment']}/{event['key']}": event["elapsed"]
        for event in replay_run_log(work / "run_log.jsonl")
        if event.get("event") == "unit_done" and not event.get("cached")
        and event.get("status") == "ok"
    }
    out.update(
        cells=len(units),
        operations=len(units) + len(job["artifacts"]),
        failed=len(failed) + len(artifact_problems),
        mismatches=mismatches,
        cell_elapsed=elapsed,
        sim_instructions=instructions,
        trials=trials,
        jobs=report.jobs,
        utilization=report.utilization,
        worker_busy=sum(report.worker_busy.values()),
        cache_hits=report.cache_hits,
        cache_misses=report.cache_misses,
        kernel_run_hits=report.kernel_run_hits,
        kernel_fallback_accesses=report.kernel_fallback_accesses,
    )
    Path(job["out"]).write_text(json.dumps(out))
    return 0


def peak_rss_mb() -> float:
    """Peak resident set so far of this process and of the processes it
    waited for (pool workers)."""
    import resource

    with open("/proc/self/status") as status:
        own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024


def trace_summary(recorder, wall: float) -> dict:
    """Totals, counts and the traced time no layer span accounts for.

    That is the root span's self time (between cells, inside ``run_all``)
    plus the cells' self time: a cell's time is covered only where a layer
    span below it (``simulate``, a trial, a cache write) is open, so a
    wrapper that misses its target shows up here.
    """
    totals = recorder.totals()
    root = totals["run_all"]
    cells = totals.get("runner.cell", {"self_s": 0.0})
    return {
        "totals": totals,
        "counts": recorder.counts(),
        "wall_s": wall,
        "uncovered_s": root["self_s"] + cells["self_s"],
        "root_s": root["total_s"],
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
