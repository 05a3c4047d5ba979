"""The repository benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md`` for why each exists):

``fig7-slice``      cold serial ``run_all`` over the Figure 7 4W-32 column
                    plus a seeded draw from the other configurations
``security-slice``  cold serial ``run_all`` of the whole Table 4 experiment
``serve-mixed``     ``python -m repro serve`` driven by a closed loop of
                    client threads with a seeded mix of job kinds
``runall-pool``     cold ``run_all(jobs=2)`` over a seeded Figure 7 +
                    Table 4 mix

With ``--trace 0`` the run makes at least three cold rounds, and more
while the next one is expected to end within ``--seconds``, and reports
medians over them: set-up time and the wall, each relative to the host's
speed sampled while they ran (``calib.py``), and memory.  With
``--trace 1`` it runs one plain round and one round under the span
wrappers and reports the per-layer metrics of the traced round, the
tracing overhead and the share of the traced time that no layer span
accounts for.

Every result is checked against the committed ``results/``; the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  The exit code is 0 only when every result was
correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from calib import REFERENCE_S, Speedometer, all_cpus, serial_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

#: Cold rounds per untraced run, at least (more while time allows).
MIN_ROUNDS = 3
#: A batch round that takes longer than this is killed and failed.
CHILD_TIMEOUT_S = 150.0
#: Client threads of ``serve-mixed``: the container's 2 cores.
SERVE_CLIENTS = 2
#: Novel single-cell tasks per client per ``serve-mixed`` round.
SERVE_TASKS = 6
#: Artifacts the security slice writes whole, compared byte for byte.
TABLE4_ARTIFACTS = ["table4_full.txt", "table4_full.csv"]

END_TO_END = {
    "setup_s": "s",
    "wall_rel": "x",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "workloads.gen_s": "s",
    "workloads.events": "count",
    "workloads.regen_frac": "ratio",
    "sim.compile_s": "s",
    "sim.structure_s": "s",
    "sim.run_proven_frac": "ratio",
    "tlb.translate_s": "s",
    "tlb.accesses": "count",
    "mmu.walk_s": "s",
    "mmu.walks": "count",
    "security.setup_s": "s",
    "security.setup_frac": "ratio",
    "security.benchgen_s": "s",
    "isa.run_s": "s",
    "isa.instret": "count",
    "perf.simulate_self_s": "s",
    "runner.expand_s": "s",
    "runner.cache_get_s": "s",
    "runner.cache_put_s": "s",
    "runner.cache_hits": "count",
    "runner.cache_misses": "count",
    "runner.log_s": "s",
    "runner.artifacts_s": "s",
    "runner.cell_p50_ms": "ms",
    "runner.cell_tail_ms": "ms",
    "runner.worker_utilization": "ratio",
    "runner.pool_overhead_s": "s",
    "serve.queue_wait_ms": "ms",
    "serve.exec_ms": "ms",
    "serve.status_ms": "ms",
    "serve.result_ms": "ms",
    "serve.store_hits": "count",
    "serve.deduped": "count",
    "serve.cells_cached": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_frac": "ratio",
}


def say(message: str) -> None:
    print(message, flush=True)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: List[float]) -> "tuple[float, int]":
    """The highest whole percentile with at least ten samples beyond it,
    as (value, percentile); (0, 0) below 20 samples."""
    count = len(values)
    if count < 20:
        return 0.0, 0
    percentile = min(99, int(100 * (count - 10) / count))
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[percentile - 1], percentile


def environment(seed: int) -> Dict[str, object]:
    """What a result depends on besides the code: recorded with every run."""
    probe = (
        "import sys, json;"
        "from repro.runner.cache import code_fingerprint;"
        "from repro.sim.kernel import STRUCTURE_BACKEND;"
        "print(json.dumps([sys.version.split()[0], STRUCTURE_BACKEND, code_fingerprint()]))"
    )
    python, backend, fingerprint = json.loads(
        subprocess.run(
            [sys.executable, "-c", probe], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": python,
        "structure_backend": backend,
        "code_fingerprint": fingerprint,
        "seed": seed,
    }


def child_env() -> Dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def repeat_rounds(
    seconds: float, cpus: List[int], one_round: Callable[[int], dict]
) -> List[dict]:
    """MIN_ROUNDS rounds, then more while the next is expected to end
    within ``seconds`` of the first one's start.

    A round returns its ``wall_s`` and ``setup_s`` with the monotonic
    windows they were timed over (``window``, ``setup_window``).  A
    speedometer on ``cpus`` gives the host's speed over each: over all of
    ``cpus`` for the round (``speed_s``), and over the serial CPU, which
    every set-up is pinned to, for the set-up (``setup_speed_s``).
    """
    rounds: List[dict] = []
    started = time.monotonic()
    while True:
        with Speedometer(cpus) as meter:
            result = one_round(len(rounds))
        result["speed_s"] = meter.speed(*result["window"])
        result["setup_speed_s"] = meter.speed(*result["setup_window"], cpus=serial_cpu())
        rounds.append(result)
        spent = time.monotonic() - started
        if len(rounds) >= MIN_ROUNDS and spent + spent / len(rounds) > seconds:
            return rounds


def setup_rel(rounds: List[dict]) -> float:
    """Median over rounds of the set-up time at reference speed: the raw
    time scaled by ``REFERENCE_S`` over the host's speed while it ran, so
    a host running slower stretches both and the figure stays put; the
    unit stays seconds."""
    return median([r["setup_s"] * REFERENCE_S / r["setup_speed_s"] for r in rounds])


def wall_rel(rounds: List[dict]) -> float:
    """Median over rounds of the wall over the host's speed during it."""
    return median([r["wall_s"] / r["speed_s"] for r in rounds])


def round_walls(rounds: List[dict]) -> str:
    """The rounds' walls, the host's speed during them and their memory,
    for the log."""
    return (
        "  round wall_s " + " ".join(f"{r['wall_s']:.3f}" for r in rounds)
        + "; speed sample s " + " ".join(f"{r['speed_s']:.5f}" for r in rounds)
        + "; peak_rss_mb " + " ".join(f"{r['peak_rss_mb']:.1f}" for r in rounds)
    )


def outcome(metrics: Dict[str, float], attempted: int, failed: int, problems: List[str]) -> dict:
    """``failed`` counts failed or wrong operations (cells, artifacts, jobs),
    ``problems`` describes them, possibly several lines per operation."""
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


# -- batch workloads ----------------------------------------------------------


def pinned_to(cpus: Optional[List[int]]):
    """A ``preexec_fn`` that pins the new process (and what it starts) to
    ``cpus``; None leaves it free."""
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


def spawn_round(workdir: Path, job: dict, pin: Optional[List[int]] = None) -> dict:
    """Run ``child.py`` on ``job`` in a fresh interpreter and process group,
    pinned to ``pin`` if given."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    job = dict(job, workdir=str(workdir), out=str(workdir / "out.json"),
               reference=str(ROOT / "results"))
    job_path = workdir / "job.json"
    with open(workdir / "child.err", "wb") as errors:
        job["t_spawn"] = time.monotonic()
        job_path.write_text(json.dumps(job))
        process = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(job_path)],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=errors, start_new_session=True, preexec_fn=pinned_to(pin),
        )
    try:
        process.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
    _reap_group(process.pid)
    if process.returncode != 0:
        message = (workdir / "child.err").read_text()[-2000:]
        raise RuntimeError(f"round failed (exit {process.returncode}):\n{message}")
    return json.loads((workdir / "out.json").read_text())


def _reap_group(pgid: int) -> None:
    """Make sure nothing the round started outlives it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return


def run_batch(args, filters: List[str], jobs: int, artifacts: List[str]) -> dict:
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    base = {"filters": filters, "jobs": jobs, "artifacts": artifacts}
    try:
        if args.trace:
            plain = spawn_round(workdir / "plain", base)
            spans_out = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            traced = spawn_round(
                workdir / "traced",
                dict(base, trace=jobs == 1, spans_out=str(spans_out)),
            )
            return batch_layers(plain, traced)
        # Every round is pinned to the serial CPU until it is ready.  A
        # serial round stays there, and only that CPU is sampled; a pool
        # round then widens to every CPU, and all of them are sampled.
        cpus = all_cpus() if jobs > 1 else serial_cpu()
        if jobs > 1:
            base["widen"] = cpus
        rounds = repeat_rounds(
            args.seconds, cpus,
            lambda index: spawn_round(workdir / f"round{index}", base, serial_cpu()),
        )
        return batch_end_to_end(rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def batch_end_to_end(rounds: List[dict]) -> dict:
    wall = median([r["wall_s"] for r in rounds])
    cells = rounds[0]["cells"]
    metrics = {
        "setup_s": setup_rel(rounds),
        "wall_rel": wall_rel(rounds),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
    }
    say(f"rounds: {len(rounds)}, {cells} cells each")
    say(round_walls(rounds))
    say(f"  wall_s                {wall:.4f} s (median round)")
    say(f"  cells_per_s           {cells / wall:.4f} 1/s")
    if rounds[0]["sim_instructions"]:
        rate = rounds[0]["sim_instructions"] / wall / 1e6
        say(f"  sim_minstr_per_s      {rate:.4f} Minstr/s (simulated instructions per host second)")
    if rounds[0]["trials"]:
        say(f"  trials_per_s          {rounds[0]['trials'] / wall:.2f} 1/s (security trials per host second)")
    problems = [p for r in rounds for p in r["mismatches"]]
    return outcome(metrics, sum(r["operations"] for r in rounds),
                   sum(r["failed"] for r in rounds), problems)


def batch_layers(plain: dict, traced: dict) -> dict:
    """Per-layer metrics of a traced batch round (see README.md)."""
    trace = traced.get("trace")
    layers = dict.fromkeys(PER_LAYER, 0.0)
    if trace is not None:
        layers.update(span_layers(trace["totals"], trace["counts"]))
        layers["trace.uncovered_frac"] = trace["uncovered_s"] / trace["root_s"]
    else:
        # The pool's cells run in worker processes: only the run log and
        # the run report describe them.
        busy = traced["worker_busy"]
        layers["trace.uncovered_frac"] = 1 - busy / (traced["jobs"] * traced["wall_s"])
        layers["runner.cache_hits"] = traced["cache_hits"]
        layers["runner.cache_misses"] = traced["cache_misses"]
    hits, fallback = traced["kernel_run_hits"], traced["kernel_fallback_accesses"]
    layers["sim.run_proven_frac"] = hits / (hits + fallback) if hits + fallback else 0.0
    elapsed = [1000 * e for e in traced["cell_elapsed"].values()]
    layers["runner.cell_p50_ms"] = median(elapsed)
    layers["runner.cell_tail_ms"], percentile = tail(elapsed)
    layers["runner.worker_utilization"] = traced["utilization"]
    layers["runner.pool_overhead_s"] = traced["jobs"] * traced["wall_s"] - traced["worker_busy"]
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layers["trace.overhead_frac"] = layers["trace.overhead_s"] / plain["wall_s"]
    say(f"plain wall {plain['wall_s']:.3f} s, traced wall {traced['wall_s']:.3f} s;"
        f" cell tail is p{percentile} of {len(elapsed)} cells")
    problems = plain["mismatches"] + traced["mismatches"]
    return outcome(layers, plain["operations"] + traced["operations"],
                   plain["failed"] + traced["failed"], problems)


def span_layers(totals: Dict[str, dict], counts: Dict[str, int]) -> Dict[str, float]:
    """Layer metrics from span totals: self time unless a total is meant."""

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    def total_s(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0)

    events = counts.get("workloads.events", 0)
    trial = total_s("security.trial")
    return {
        "workloads.gen_s": self_s("workloads.gen"),
        "workloads.events": events,
        "workloads.regen_frac": counts.get("workloads.regen_events", 0) / events if events else 0.0,
        "sim.compile_s": self_s("sim.compile"),
        "sim.structure_s": self_s("sim.structure"),
        "tlb.translate_s": self_s("tlb.translate"),
        "tlb.accesses": counts.get("tlb.accesses", 0),
        "mmu.walk_s": self_s("mmu.walk"),
        "mmu.walks": counts.get("mmu.walks", 0),
        "security.setup_s": total_s("security.setup"),
        "security.setup_frac": total_s("security.setup") / trial if trial else 0.0,
        "security.benchgen_s": total_s("security.benchgen"),
        "isa.run_s": self_s("isa.run"),
        "isa.instret": counts.get("isa.instret", 0),
        "perf.simulate_self_s": self_s("perf.simulate"),
        "runner.expand_s": total_s("runner.expand"),
        "runner.cache_get_s": total_s("runner.cache_get"),
        "runner.cache_put_s": total_s("runner.cache_put"),
        "runner.cache_hits": counts.get("runner.cache_hits", 0),
        "runner.cache_misses": counts.get("runner.cache_misses", 0),
        "runner.log_s": total_s("runner.log"),
        "runner.artifacts_s": total_s("runner.artifacts"),
    }


# -- serve-mixed ----------------------------------------------------------------


def run_serve(args) -> dict:
    import serve
    from gate import Reference
    from inputs import serve_tasks

    reference = Reference(ROOT / "results")
    plan = (
        serve_tasks(args.seed, 1, 2) if args.tiny
        else serve_tasks(args.seed, SERVE_CLIENTS, SERVE_TASKS)
    )
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            plain = serve.run_round(ROOT, workdir / "plain", plan, reference)
            spans_out = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            traced = serve.run_round(ROOT, workdir / "traced", plan, reference, spans_out)
            return serve_layers(plain, traced, spans_out)
        # The server runs its cells under one interpreter lock, so it uses
        # one CPU at a time: it is pinned to the CPU the speedometer samples.
        rounds = repeat_rounds(
            args.seconds, serial_cpu(),
            lambda index: serve.run_round(
                ROOT, workdir / f"round{index}", plan, reference, pin=serial_cpu()
            ),
        )
        return serve_end_to_end(rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _latencies(rounds: List[dict], kinds) -> List[float]:
    return [
        record["latency_ms"]
        for r in rounds
        for record in r["records"]
        if record["kind"] in kinds and "latency_ms" in record
    ]


def serve_end_to_end(rounds: List[dict]) -> dict:
    """Bounded metrics as for the batch workloads; job latencies and the
    job rate are printed, not bounded."""
    answered = ("novel", "dedup", "store", "overlap")
    wall = median([r["wall_s"] for r in rounds])
    metrics = {
        "setup_s": setup_rel(rounds),
        "wall_rel": wall_rel(rounds),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
    }
    jobs = sum(len(r["records"]) for r in rounds)
    say(f"rounds: {len(rounds)}, {jobs} jobs")
    say(round_walls(rounds))
    say(f"  wall_s                {wall:.4f} s (median round)")
    for label, kinds in (("novel_job", ("novel",)), ("dedup_job", ("dedup",)),
                         ("cached_job", ("store", "overlap"))):
        values = _latencies(rounds, kinds)
        value, percentile = tail(values)
        tail_text = f", p{percentile} {value:.3f} ms" if percentile else ""
        say(f"  {label}_p50_ms{'':8} {median(values):.3f} ms ({len(values)} samples{tail_text})")
    rate = median([len(_latencies([r], answered)) / r["wall_s"] for r in rounds])
    say(f"  jobs_per_s            {rate:.4f} 1/s (one cell per job)")
    problems = [p for r in rounds for p in r["problems"]]
    return outcome(metrics, jobs, sum(r["failed"] for r in rounds), problems)


def serve_layers(plain: dict, traced: dict, spans_out: Path) -> dict:
    summary = json.loads(spans_out.read_text().splitlines()[-1])
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update(span_layers(summary["totals"], summary["counts"]))
    # The server runs its cells on worker threads, several at a time, so
    # its wall has no single root: the uncovered share is that of the
    # cells' thread time which no layer span below the cell accounts for.
    cells = summary["totals"].get("runner.cell")
    layers["trace.uncovered_frac"] = cells["self_s"] / cells["total_s"] if cells else 1.0
    gauges, counters = traced["metrics"]["gauges"], traced["metrics"]["counters"]
    hits, fallback = gauges["kernel_run_hits"], gauges["kernel_fallback_accesses"]
    layers["sim.run_proven_frac"] = hits / (hits + fallback) if hits + fallback else 0.0
    novel = [r for r in traced["records"] if r["kind"] == "novel" and r.get("finished")]
    layers["serve.queue_wait_ms"] = median([1000 * (r["started"] - r["created"]) for r in novel])
    layers["serve.exec_ms"] = median([1000 * (r["finished"] - r["started"]) for r in novel])
    layers["serve.status_ms"] = median(traced["status_ms"])
    layers["serve.result_ms"] = median(traced["result_ms"])
    layers["serve.store_hits"] = counters["jobs_store_hits"]
    layers["serve.deduped"] = counters["jobs_deduped"]
    layers["serve.cells_cached"] = counters["cells_cached"]
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layers["trace.overhead_frac"] = layers["trace.overhead_s"] / plain["wall_s"]
    say(f"plain round {plain['wall_s']:.3f} s, traced round {traced['wall_s']:.3f} s")
    problems = plain["problems"] + traced["problems"]
    return outcome(layers, len(plain["records"]) + len(traced["records"]),
                   plain["failed"] + traced["failed"], problems)


# -- entry point ----------------------------------------------------------------


def preflight() -> Optional[str]:
    """Why the benchmark cannot run here, or None."""
    for needed in ("src/repro/runner/api.py", "results/fig7_full.csv", "results/table4_full.csv"):
        if not (ROOT / needed).is_file():
            return f"missing {needed}: run from a full checkout of the repository"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="self-check size: a few cells per workload (not a measurement)",
    )
    args = parser.parse_args(argv)

    problem = preflight()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    env = environment(args.seed)
    say(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    say("env " + json.dumps(env, sort_keys=True))
    try:
        outcome = WORKLOADS[args.workload](args)
    except RuntimeError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        say(f"  {name:32} {outcome['metrics'][name]:.6g} {unit}")
    attempted = outcome["attempted"]
    say(f"  failed_frac{'':22}{outcome['failed'] / attempted:.6g} ratio"
        f" ({outcome['failed']} of {attempted} operations)")
    for problem in outcome["problems"][:20]:
        say(f"MISMATCH {problem}")
    result = {
        "correct": not outcome["problems"],
        "attempted": attempted,
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }
    (WORK / f"result-{args.workload}.json").write_text(
        json.dumps(dict(result, env=env, workload=args.workload), indent=1) + "\n"
    )
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _fig7_slice(args) -> dict:
    from inputs import fig7_slice

    filters = fig7_slice(args.seed)
    return run_batch(args, filters[1:] if args.tiny else filters, jobs=1, artifacts=[])


def _security_slice(args) -> dict:
    from inputs import security_slice, tiny_security

    if args.tiny:
        return run_batch(args, tiny_security(), jobs=1, artifacts=[])
    return run_batch(args, security_slice(args.seed), jobs=1, artifacts=TABLE4_ARTIFACTS)


def _runall_pool(args) -> dict:
    from inputs import runall_pool

    filters = runall_pool(args.seed)
    return run_batch(args, filters[:2] + filters[-2:] if args.tiny else filters,
                     jobs=2, artifacts=[])


WORKLOADS: Dict[str, Callable[[argparse.Namespace], dict]] = {
    "fig7-slice": _fig7_slice,
    "security-slice": _security_slice,
    "serve-mixed": run_serve,
    "runall-pool": _runall_pool,
}


if __name__ == "__main__":
    sys.exit(main())
