"""The fast-path regression bench (``python -m repro bench``).

Times the :mod:`repro.sim.kernel` fast path against the reference model
over the workloads that dominate the reproduction's runtime, and refuses
to report any speedup whose counters diverge -- the bench is first a
differential test and only then a stopwatch.  Three tiers:

* **Trace replay** (the headline): each design -- SA, FA (the
  fully-associative organization), SP, RF, plus the miss-heavy omnetpp
  FA cell -- replays a precompiled Figure 7 SPEC trace through
  ``BaseTLB.translate`` (reference) and the batched
  ``BaseTLB.translate_slice`` (the access kernel), comparing
  accesses/second.  The acceptance floor is a >= 3x geometric mean.
* **Security replay**: the RSA decryption trace (the victim workload
  behind the security evaluation's micro-benchmarks) replayed on each
  design with its protection programmed -- the SP victim partition and
  the RF secure region over the MPI buffers -- so the kernel's
  no-fill-buffer and partition handling is timed, not just exercised.
* **End-to-end cells**: whole Figure 7 cells under ``fastpath=True`` vs
  ``fastpath=False``, asserting ``PerfResult`` equality.  Wall-clock
  context only: trace *generation* is shared by both paths, so the
  ratio here is structurally smaller than the replay headline.

Timings are best-of-:data:`REPS` with a fresh TLB per repetition.  Trace
compilation is paid once per trace and shared by every replay of it;
the bench reports it separately as ``compile_seconds`` per row.

``bench()`` returns the report as plain dicts; the CLI renders it as
text or JSON and writes ``BENCH_fastpath.json`` for CI to archive.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.mmu import PageTableWalker, make_walker
from repro.security.kinds import TLBKind, make_tlb
from repro.sim.kernel import CompiledTrace
from repro.tlb.base import BaseTLB
from repro.workloads.rsa import RSAWorkload, generate_key
from repro.workloads.spec import by_name

from .configs import config_by_label
from .harness import RSA_ASID, PerfSettings, run_cell

#: The acceptance floor for the replay headline (geometric mean).
SPEEDUP_FLOOR = 3.0

#: Batch size for ``translate_slice`` replay (one quantum's worth of
#: events is the same order of magnitude).
SLICE_STEP = 8192

#: Repetitions per (case, path); the reported seconds are the best of
#: these.  Every repetition replays on a fresh TLB.
REPS = 3

#: The headline grid: one row per design of the paper's evaluation --
#: (row label, TLB kind, organization, Figure 7 SPEC workload).  "FA" is
#: the fully-associative organization of the standard design, listed
#: separately because its lookup economics differ from the set-indexed
#: organizations; "OM" is the miss-heavy omnetpp FA cell (once a
#: context row), promoted to the headline so the geomean prices in a
#: workload where walks, not hit-runs, dominate.
REPLAY_CASES: Tuple[Tuple[str, TLBKind, str, str], ...] = (
    ("SA", TLBKind.SA, "4W 32", "povray"),
    ("FA", TLBKind.SA, "FA 32", "povray"),
    ("SP", TLBKind.SP, "4W 128", "xalancbmk"),
    ("RF", TLBKind.RF, "4W 32", "cactusADM"),
    ("OM", TLBKind.SA, "FA 32", "omnetpp"),
)

#: End-to-end Figure 7 cells (design, organization, scenario label).
CELL_CASES: Tuple[Tuple[TLBKind, str, str], ...] = (
    (TLBKind.SA, "4W 32", "RSA+povray"),
    (TLBKind.RF, "4W 32", "SecRSA+omnetpp"),
)


class CounterDivergence(AssertionError):
    """Fast-path counters differed from the reference -- no speedup is
    reported for a run that did not do the same work."""


def _make_case_tlb(kind: TLBKind, label: str, secure: bool = False) -> BaseTLB:
    config = config_by_label(label)
    victim_ways = max(config.ways // 2, 1) if kind is TLBKind.SP else None
    return make_tlb(
        kind,
        config,
        victim_asid=RSA_ASID if secure else -1,
        victim_ways=victim_ways,
    )


def _replay_reference(
    tlb: BaseTLB, walker: PageTableWalker, trace: CompiledTrace,
    count: int, asid: int,
) -> Tuple[float, int]:
    vpns = trace.vpns
    cycles = 0
    start = time.perf_counter()
    translate = tlb.translate
    for index in range(count):
        cycles += translate(vpns[index], asid, walker).cycles
    return time.perf_counter() - start, cycles


def _replay_access(
    tlb: BaseTLB, walker: PageTableWalker, trace: CompiledTrace,
    count: int, asid: int,
) -> Tuple[float, int]:
    vpns = trace.vpns
    cycles = 0
    start = time.perf_counter()
    translate_slice = tlb.translate_slice
    for begin in range(0, count, SLICE_STEP):
        sliced, _ = translate_slice(
            vpns, begin, min(begin + SLICE_STEP, count), asid, walker
        )
        cycles += sliced
    return time.perf_counter() - start, cycles


def _replay_case(
    label: str,
    kind: TLBKind,
    config_label: str,
    trace: CompiledTrace,
    count: int,
    workload: str,
    asid: int,
    headline: bool,
    secure: bool = False,
    region: Optional[Tuple[int, int]] = None,
) -> Dict[str, Any]:
    """Replay one compiled trace through both paths and compare.

    Each path runs :data:`REPS` times on a fresh TLB (best-of timing);
    the differential comparison -- full :class:`~repro.tlb.stats.TLBStats`
    equality plus total reported cycles -- uses the final repetition,
    which is deterministic across repetitions by construction.
    """
    def fresh() -> BaseTLB:
        tlb = _make_case_tlb(kind, config_label, secure)
        if region is not None:
            tlb.set_secure_region(*region, victim_asid=asid)
        return tlb

    timings: Dict[str, List[float]] = {"reference": [], "access": []}
    outcomes: Dict[str, Tuple[Any, int]] = {}
    for _ in range(REPS):
        tlb = fresh()
        seconds, cycles = _replay_reference(tlb, make_walker(), trace, count, asid)
        timings["reference"].append(seconds)
        outcomes["reference"] = (tlb.stats, cycles)

        tlb = fresh()
        seconds, cycles = _replay_access(tlb, make_walker(), trace, count, asid)
        timings["access"].append(seconds)
        outcomes["access"] = (tlb.stats, cycles)

    ref_stats, ref_cycles = outcomes["reference"]
    stats, cycles = outcomes["access"]
    if stats != ref_stats or cycles != ref_cycles:
        raise CounterDivergence(
            f"{label} {config_label} {workload}: access kernel"
            f" (stats={stats}, cycles={cycles}) != reference"
            f" (stats={ref_stats}, cycles={ref_cycles})"
        )
    ref_counters = {
        "accesses": ref_stats.accesses,
        "hits": ref_stats.hits,
        "misses": ref_stats.misses,
    }
    ref_seconds = min(timings["reference"])
    access_seconds = min(timings["access"])
    return {
        "design": label,
        "kind": kind.value,
        "config": config_label,
        "workload": workload,
        "accesses": count,
        "hit_rate": ref_counters["hits"] / max(ref_counters["accesses"], 1),
        "reference_aps": count / ref_seconds,
        "fast_aps": count / access_seconds,
        "speedup": ref_seconds / access_seconds,
        "counters": ref_counters,
        "counters_equal": True,
        "headline": headline,
    }


def _spec_replays(events: int) -> List[Dict[str, Any]]:
    rows = []
    for label, kind, config_label, workload in REPLAY_CASES:
        trace = CompiledTrace(by_name(workload).events(random.Random(42)))
        start = time.perf_counter()
        count = min(trace.ensure(events), events)
        compile_seconds = time.perf_counter() - start
        row = _replay_case(
            label,
            kind,
            config_label,
            trace,
            count,
            workload,
            asid=2,
            headline=True,
        )
        row["compile_seconds"] = compile_seconds
        rows.append(row)
    return rows


def _security_replays(runs: int, key_bits: int) -> List[Dict[str, Any]]:
    """The security micro-benchmark tier: the protected RSA trace."""
    key = generate_key(bits=key_bits, seed=7)
    rsa = RSAWorkload(key=key, runs=runs)
    trace = CompiledTrace(rsa.events(random.Random(7)))
    count = trace.ensure(1 << 62)  # RSA traces are finite: compile fully.
    rows = []
    for label, kind, config_label in (
        ("SA", TLBKind.SA, "4W 32"),
        ("SP", TLBKind.SP, "4W 32"),
        ("RF", TLBKind.RF, "4W 32"),
    ):
        rows.append(
            _replay_case(
                label,
                kind,
                config_label,
                trace,
                count,
                f"rsa-{runs}",
                asid=RSA_ASID,
                headline=False,
                secure=True,
                region=rsa.secure_region() if kind is TLBKind.RF else None,
            )
        )
    return rows


def _cell_cases(rsa_runs: int, spec_instructions: int) -> List[Dict[str, Any]]:
    from .harness import scenario_by_label

    rows = []
    for kind, config_label, scenario_label in CELL_CASES:
        scenario = scenario_by_label(scenario_label)
        timings: Dict[bool, float] = {}
        cells: Dict[bool, Any] = {}
        for fastpath in (False, True):
            settings = PerfSettings(
                spec_instructions=spec_instructions, fastpath=fastpath
            )
            start = time.perf_counter()
            cells[fastpath] = run_cell(
                kind, config_label, scenario, rsa_runs, settings
            )
            timings[fastpath] = time.perf_counter() - start
        if cells[True].results != cells[False].results:
            raise CounterDivergence(
                f"cell {kind.value} {config_label} {scenario_label}: "
                f"fastpath results diverge from reference"
            )
        rows.append(
            {
                "design": kind.value,
                "config": config_label,
                "scenario": scenario_label,
                "rsa_runs": rsa_runs,
                "instructions": cells[True].total.instructions,
                "reference_seconds": timings[False],
                "fast_seconds": timings[True],
                "speedup": timings[False] / timings[True],
                "results_equal": True,
            }
        )
    return rows


def _geomean(values: List[float]) -> float:
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def bench(
    quick: bool = False,
    events: Optional[int] = None,
    skip_cells: bool = False,
) -> Dict[str, Any]:
    """Run the bench and return the report.

    ``quick`` shrinks every tier to CI-smoke size (the differential
    checks are just as strict; only the timing resolution suffers).
    Raises :class:`CounterDivergence` if any tier's fast-path counters
    differ from the reference.
    """
    events = events if events is not None else (60_000 if quick else 400_000)
    replay = _spec_replays(events)
    security = _security_replays(
        runs=2 if quick else 10, key_bits=64 if quick else 128
    )
    cells = (
        []
        if skip_cells
        else _cell_cases(
            rsa_runs=3 if quick else 10,
            spec_instructions=30_000 if quick else 150_000,
        )
    )
    headline_rows = [row for row in replay if row["headline"]]
    headline = _geomean([row["speedup"] for row in headline_rows])
    return {
        "quick": quick,
        "events": events,
        "headline": {
            "geomean_speedup": headline,
            "floor": SPEEDUP_FLOOR,
            "meets_floor": headline >= SPEEDUP_FLOOR,
            "per_design": {
                row["design"]: row["speedup"] for row in headline_rows
            },
        },
        "replay": replay,
        "security": security,
        "cells": cells,
        "counters_verified": True,
    }


def history_entry(report: Dict[str, Any]) -> Dict[str, Any]:
    """The compact per-run record archived in the artifact's history.

    ``BENCH_fastpath.json`` keeps a ``history`` list so the headline
    trend survives overwrites: each ``--out`` write appends the new
    run's summary to whatever history the previous artifact carried
    (the committed first entry is the 3.69x full-size headline the
    fast-path PR landed with).  Entries written while a run-granular
    kernel existed also carry its ``access_geomean_speedup`` and
    ``structure_backend``; their ``geomean_speedup`` is that kernel's.
    """
    headline = report["headline"]
    return {
        "geomean_speedup": headline["geomean_speedup"],
        "per_design": dict(headline["per_design"]),
        "meets_floor": headline["meets_floor"],
        "quick": report["quick"],
        "events": report["events"],
        "counters_verified": report["counters_verified"],
    }


def with_history(
    report: Dict[str, Any], previous: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    """Attach ``previous``'s history plus this run's entry to ``report``."""
    history: List[Dict[str, Any]] = []
    if isinstance(previous, dict):
        carried = previous.get("history", [])
        if isinstance(carried, list):
            history.extend(carried)
    report = dict(report)
    report["history"] = history + [history_entry(report)]
    return report


def format_report(report: Dict[str, Any]) -> str:
    """Render the bench report as the CLI's text output."""
    lines = [
        f"{'tier':9} {'design':6} {'config':8} {'workload':12} "
        f"{'hit%':>6} {'ref acc/s':>12} {'fast acc/s':>12} {'speedup':>8}"
    ]
    lines.append("-" * 80)
    for tier, rows in (("replay", report["replay"]),
                       ("security", report["security"])):
        for row in rows:
            marker = "*" if row.get("headline") else " "
            lines.append(
                f"{tier:9} {row['design']:5}{marker} {row['config']:8} "
                f"{row['workload']:12} {row['hit_rate']:>6.1%} "
                f"{row['reference_aps']:>12,.0f} {row['fast_aps']:>12,.0f} "
                f"{row['speedup']:>7.2f}x"
            )
    for row in report["cells"]:
        lines.append(
            f"{'cell':9} {row['design']:6} {row['config']:8} "
            f"{row['scenario']:12} {'':>6} "
            f"{row['reference_seconds']:>11.2f}s {row['fast_seconds']:>11.2f}s "
            f"{row['speedup']:>7.2f}x"
        )
    headline = report["headline"]
    lines.append("")
    lines.append(
        f"headline (geomean over *): {headline['geomean_speedup']:.2f}x"
        f" (floor {headline['floor']:.1f}x:"
        f" {'met' if headline['meets_floor'] else 'NOT MET'})"
    )
    lines.append("counters: all tiers reference-equal")
    return "\n".join(lines)
