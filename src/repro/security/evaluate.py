"""The Table 4 security evaluation harness.

For every Table 2 vulnerability and every TLB design, run the generated
micro security benchmark 500 times with the victim's secret page mapped to
the tested block and 500 times unmapped (the paper's 24 x 1000 protocol),
count Step-3 misses (n_{M,M} and n_{N,M}), estimate p1*/p2* and the channel
capacity C*, and compare against the theoretical values.

Each trial runs on a fresh processor and TLB; the Random-Fill TLB's RNG is
shared across a design's trials so randomization varies trial to trial, and
is seeded so the whole table is reproducible.

:meth:`SecurityEvaluator.estimate_channel` is the one implementation of
that protocol and :meth:`SecurityEvaluator.run_trial` the one trial: every
channel measurement in the repository -- Table 4, Table 7, the mitigation
ladder, large pages, the hierarchy studies and the RF region sweep --
goes through them, over a flat design or any :class:`HierarchySpec`.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.isa import CPU, ExecutionStatus, Program, assemble
from repro.model.capacity import ChannelEstimate
from repro.model.patterns import Vulnerability
from repro.model.table2 import table2_vulnerabilities
from repro.mmu import PageTableWalker, SwitchPolicy, make_walker
from repro.sim.events import EventBus
from repro.sim.system import MemorySystem
from repro.tlb import HierarchySpec, TLBConfig

from .benchgen import (
    BenchmarkLayout,
    generate,
    layout_for_partitioned_tlb,
    layout_for_spec,
)
from .kinds import TLBKind, make_hierarchy, make_tlb
from .theory import TheoreticalModel

#: What a security trial runs against: a flat design (built over the
#: evaluation's :class:`TLBConfig`) or a multi-level hierarchy.
Design = Union[TLBKind, HierarchySpec]


@dataclass(frozen=True)
class EvaluationConfig:
    """Parameters of the Section 5.3 evaluation."""

    tlb: TLBConfig = TLBConfig(entries=32, ways=8)
    trials: int = 500
    seed: int = 2019
    #: Victim partition size for the SP TLB (the paper's 50% default).
    victim_ways: Optional[int] = None
    #: Emulate the Sanctum / Intel SGX software mitigation (Section 2.3):
    #: flush the whole TLB on every process switch.
    flush_on_switch: bool = False
    #: Builds the walker for each trial; override to pre-map pages (e.g.
    #: the large-page mitigation backs the secure region with a superpage).
    walker_factory: Optional[Callable[[], PageTableWalker]] = None
    layout: BenchmarkLayout = field(default_factory=BenchmarkLayout)

    def resolved_victim_ways(self) -> int:
        if self.victim_ways is not None:
            return self.victim_ways
        return max(self.tlb.ways // 2, 1)

    def layout_for(self, design: Design) -> BenchmarkLayout:
        if isinstance(design, HierarchySpec):
            return layout_for_spec(design)
        layout = self.layout
        if layout.nsets != self.tlb.sets or layout.nways != self.tlb.ways:
            layout = replace(
                layout,
                nsets=self.tlb.sets,
                nways=self.tlb.ways,
                prime_ways_victim=self.tlb.ways,
                prime_ways_attacker=self.tlb.ways,
            )
        if design is TLBKind.SP:
            return layout_for_partitioned_tlb(
                layout, self.resolved_victim_ways()
            )
        return layout


@dataclass(frozen=True)
class VulnerabilityResult:
    """One Table 4 cell group: a design's behaviour on one row.

    The theoretical columns are ``None`` for extended-model (Appendix B)
    rows, for which the paper gives no closed forms.
    """

    vulnerability: Vulnerability
    kind: TLBKind
    estimate: ChannelEstimate
    theoretical_p1: Optional[float]
    theoretical_p2: Optional[float]
    theoretical_capacity: Optional[float]

    @property
    def defended(self) -> bool:
        """The paper's bold criterion: measured capacity "about 0"."""
        return self.estimate.defends()

    @property
    def theory_defends(self) -> Optional[bool]:
        if self.theoretical_capacity is None:
            return None
        return self.theoretical_capacity < 1e-9


class SecurityEvaluator:
    """Runs the micro security benchmarks against the TLB simulators."""

    def __init__(self, config: EvaluationConfig = EvaluationConfig()) -> None:
        self.config = config
        self.theory = TheoreticalModel(
            nsets=config.tlb.sets, nways=config.tlb.ways
        )

    # -- the trial protocol ----------------------------------------------------

    def run_trial(
        self,
        program: Program,
        design: Design,
        rng: random.Random,
        bus: Optional[EventBus] = None,
    ) -> bool:
        """Run one benchmark once on a fresh CPU; True iff Step 3 missed."""
        victim_asid = self.config.layout.victim_pid
        if isinstance(design, HierarchySpec):
            tlb = make_hierarchy(design, victim_asid=victim_asid, rng=rng)
        else:
            tlb = make_tlb(
                design,
                self.config.tlb,
                victim_asid=victim_asid,
                victim_ways=(
                    self.config.resolved_victim_ways()
                    if design is TLBKind.SP
                    else None
                ),
                rng=rng,
            )
        if self.config.walker_factory is not None:
            walker = self.config.walker_factory()
        else:
            walker = make_walker()
        memory = MemorySystem(
            tlb,
            walker,
            switch_policy=(
                SwitchPolicy.FLUSH_ALL
                if self.config.flush_on_switch
                else SwitchPolicy.KEEP
            ),
            bus=bus,
        )
        cpu = CPU(memory_system=memory)
        cpu.load(program)
        result = cpu.run()
        if result.status is ExecutionStatus.HALTED:  # pragma: no cover
            raise RuntimeError("benchmark ended without a pass/fail verdict")
        return result.status is ExecutionStatus.PASSED

    def estimate_channel(
        self,
        vulnerability: Vulnerability,
        design: Design,
        rng: random.Random,
        trials: Optional[int] = None,
        ssize: Optional[int] = None,
    ) -> ChannelEstimate:
        """Section 5.3's protocol: ``trials`` mapped then ``trials``
        unmapped runs of the benchmark, each through :meth:`run_trial`.

        ``rng`` feeds every RF level of every trial, in that order, so a
        caller's seed fixes the whole estimate.  ``ssize`` overrides the
        benchmark's secure-region size.
        """
        trials = trials if trials is not None else self.config.trials
        layout = self.config.layout_for(design)
        programs = {
            mapped: assemble(
                generate(vulnerability, layout, mapped=mapped, ssize=ssize)
            )
            for mapped in (True, False)
        }
        misses = {True: 0, False: 0}
        for mapped in (True, False):
            for _ in range(trials):
                if self.run_trial(programs[mapped], design, rng):
                    misses[mapped] += 1
        return ChannelEstimate(
            misses_mapped=misses[True],
            misses_unmapped=misses[False],
            trials_per_behaviour=trials,
        )

    # -- per-vulnerability evaluation ------------------------------------------------

    def evaluate_vulnerability(
        self,
        vulnerability: Vulnerability,
        kind: TLBKind,
        trials: Optional[int] = None,
    ) -> VulnerabilityResult:
        # Derive a per-(design, vulnerability) seed that is stable across
        # interpreter runs (str.__hash__ is salted per process).
        label = f"{self.config.seed}/{kind.value}/{vulnerability.pretty()}"
        rng = random.Random(zlib.crc32(label.encode()))
        estimate = self.estimate_channel(vulnerability, kind, rng, trials)
        if vulnerability.pattern.uses_extended_states():
            p1 = p2 = capacity = None
        else:
            p1, p2 = self.theory.probabilities(kind, vulnerability)
            capacity = self.theory.capacity(kind, vulnerability)
        return VulnerabilityResult(
            vulnerability=vulnerability,
            kind=kind,
            estimate=estimate,
            theoretical_p1=p1,
            theoretical_p2=p2,
            theoretical_capacity=capacity,
        )

    # -- the full table ------------------------------------------------------------------

    def evaluate_kind(
        self,
        kind: TLBKind,
        vulnerabilities: Optional[Sequence[Vulnerability]] = None,
        trials: Optional[int] = None,
    ) -> List[VulnerabilityResult]:
        return [
            self.evaluate_vulnerability(vulnerability, cell_kind, trials)
            for cell_kind, vulnerability in table4_cells(
                kinds=(kind,), vulnerabilities=vulnerabilities
            )
        ]

    def evaluate_table4(
        self,
        kinds: Iterable[TLBKind] = (TLBKind.SA, TLBKind.SP, TLBKind.RF),
        trials: Optional[int] = None,
    ) -> Dict[TLBKind, List[VulnerabilityResult]]:
        table: Dict[TLBKind, List[VulnerabilityResult]] = {}
        for kind, vulnerability in table4_cells(kinds=kinds):
            table.setdefault(kind, []).append(
                self.evaluate_vulnerability(vulnerability, kind, trials)
            )
        return table

    def evaluate_extended(
        self,
        kind: TLBKind,
        trials: Optional[int] = None,
    ) -> List[VulnerabilityResult]:
        """Appendix B: run the targeted-invalidation rows (Table 7).

        The generated benchmarks realize targeted invalidations as
        per-page ``sfence.vma`` with Appendix B's presence-dependent
        timing; invalidation probes measure the cycle counter instead of
        the miss counter.
        """
        return [
            self.evaluate_vulnerability(vulnerability, cell_kind, trials)
            for cell_kind, vulnerability in extended_cells(kinds=(kind,))
        ]


def table4_cells(
    kinds: Iterable[TLBKind] = (TLBKind.SA, TLBKind.SP, TLBKind.RF),
    vulnerabilities: Optional[Sequence[Vulnerability]] = None,
) -> List[Tuple[TLBKind, Vulnerability]]:
    """The Table 4 work-list, one entry per (design, vulnerability) cell.

    Every cell is independent -- :meth:`SecurityEvaluator.evaluate_vulnerability`
    derives its RNG from the cell's own label -- so this enumeration is the
    unit of sharding for :mod:`repro.runner` as well as the serial iteration
    order of :meth:`SecurityEvaluator.evaluate_table4`.
    """
    rows = (
        list(vulnerabilities)
        if vulnerabilities is not None
        else table2_vulnerabilities()
    )
    return [(kind, vulnerability) for kind in kinds for vulnerability in rows]


def extended_cells(
    kinds: Iterable[TLBKind] = (TLBKind.SA, TLBKind.SP, TLBKind.RF),
) -> List[Tuple[TLBKind, Vulnerability]]:
    """The Appendix B work-list (Table 7 rows), at cell granularity."""
    from repro.model.extended import invalidation_only_vulnerabilities

    return [
        (kind, vulnerability)
        for kind in kinds
        for vulnerability in invalidation_only_vulnerabilities()
    ]


def defended_counts(
    table: Dict[TLBKind, List[VulnerabilityResult]]
) -> Dict[TLBKind, int]:
    """How many of the 24 rows each design defends (measured C* ~ 0)."""
    return {
        kind: sum(1 for result in results if result.defended)
        for kind, results in table.items()
    }


def format_table4(table: Dict[TLBKind, List[VulnerabilityResult]]) -> str:
    """Render results in the layout of the paper's Table 4."""
    lines: List[str] = []
    for kind, results in table.items():
        lines.append(f"== {kind.value} TLB ==")
        lines.append(
            f"{'Strategy':34} {'Vulnerability':30} "
            f"{'n_MM':>5} {'p1*':>6} {'p1':>6} "
            f"{'n_NM':>5} {'p2*':>6} {'p2':>6} {'C*':>6} {'C':>6}  defended"
        )
        lines.append("-" * 130)
        ordered = sorted(
            results,
            key=lambda r: (r.vulnerability.strategy.value, r.vulnerability.pattern.pretty()),
        )
        for result in ordered:
            estimate = result.estimate
            theory_p1 = (
                f"{result.theoretical_p1:>6.2f}"
                if result.theoretical_p1 is not None
                else f"{'--':>6}"
            )
            theory_p2 = (
                f"{result.theoretical_p2:>6.2f}"
                if result.theoretical_p2 is not None
                else f"{'--':>6}"
            )
            theory_capacity = (
                f"{result.theoretical_capacity:>6.2f}"
                if result.theoretical_capacity is not None
                else f"{'--':>6}"
            )
            lines.append(
                f"{result.vulnerability.strategy.value:34} "
                f"{result.vulnerability.pretty():30} "
                f"{estimate.misses_mapped:>5} {estimate.p1:>6.2f} "
                f"{theory_p1} "
                f"{estimate.misses_unmapped:>5} {estimate.p2:>6.2f} "
                f"{theory_p2} "
                f"{estimate.capacity:>6.2f} {theory_capacity}  "
                f"{'yes' if result.defended else 'NO'}"
            )
        lines.append("")
    counts = defended_counts(table)
    lines.append(
        "defended rows: "
        + ", ".join(
            f"{kind.value}={count}/{len(table[kind])}"
            for kind, count in counts.items()
        )
    )
    return "\n".join(lines)
