"""Differential verification of the repro.sim.kernel fast path.

The reference model (``translate`` returning ``AccessResult`` objects) is
the specification; the fast paths (``translate_fast`` packed ints and the
batched ``translate_slice``) must produce identical hit/miss/cycle
counters and identical TLB state for every design, including the RF
TLB's no-fill buffer path and superpage entries (which exercise the
level>0 index probes).  Shared traces are replayed through both paths on
twin instances; any divergence is a fast-path bug by definition.

The quantum-chunked cases land perturbations between chunks, exactly
where the timing model applies them between quanta: sfence, Sec-region
updates, flushes, foreign processes, remaps, prewarmed TLBs and
superpage tables.  A generated-schedule property test interleaves two
ASIDs' slices with maintenance operations.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mmu import SwitchPolicy, make_walker
from repro.perf.harness import PerfSettings, Scenario, run_cell
from repro.perf.timing import ScheduledProcess, simulate
from repro.security.kinds import (
    TLBKind,
    make_hierarchy,
    make_tlb,
    make_two_level_tlb,
)
from repro.sim.kernel import (
    CompiledTrace,
    pack_result,
    packed_cycles,
    packed_filled,
    packed_hit,
    supports_fastpath,
)
from repro.sim.system import MemorySystem
from repro.tlb.config import TLBConfig
from repro.tlb.spec import HierarchySpec, LevelSpec, PWCSpec
from repro.workloads.spec import by_name


def random_trace(seed, length=2_000, pages=96, asids=(1, 2)):
    """A shared (vpn, asid) access trace with locality and churn."""
    rng = random.Random(seed)
    hot = [rng.randrange(pages) for _ in range(12)]
    trace = []
    for _ in range(length):
        vpn = rng.choice(hot) if rng.random() < 0.7 else rng.randrange(pages)
        trace.append((0x100 + vpn, rng.choice(asids)))
    return trace


def make_pair(kind, **kwargs):
    """Twin TLB instances (identical construction, independent state)."""
    config = kwargs.pop("config", TLBConfig(entries=32, ways=4))
    return (
        make_tlb(kind, config, rng=random.Random(7), **kwargs),
        make_tlb(kind, config, rng=random.Random(7), **kwargs),
    )


def replay_both(reference, fast, trace):
    """Replay via translate on one twin, translate_fast on the other."""
    ref_walker, fast_walker = make_walker(), make_walker()
    for vpn, asid in trace:
        result = reference.translate(vpn, asid, ref_walker)
        packed = fast.translate_fast(vpn, asid, fast_walker)
        assert packed == pack_result(result.cycles, result.hit, result.filled)
    return ref_walker, fast_walker


DESIGNS = [TLBKind.SA, TLBKind.SP, TLBKind.RF]

# The chunked differential cases replay this many povray accesses in
# quantum-sized chunks (perturbations land between chunks, exactly where
# the timing model would apply them between quanta).
RUN_COUNT = 20_000
RUN_STEP = 2_048


@pytest.fixture(scope="module")
def povray_trace():
    trace = CompiledTrace(by_name("povray").events(random.Random(11)))
    assert trace.ensure(RUN_COUNT) >= RUN_COUNT
    return trace


def make_case(kind):
    """One TLB instance per replay leg (fresh rng, identical construction)."""
    return make_tlb(
        kind,
        TLBConfig(entries=32, ways=4),
        victim_asid=1,
        victim_ways=2 if kind is TLBKind.SP else None,
        rng=random.Random(7),
    )


def entry_state(tlb):
    """The full architecturally-visible entry state, LRU metadata included."""
    return sorted(
        (e.vpn, e.ppn, e.asid, e.sec, e.level, e.last_used)
        for e in tlb.entries()
    )


def three_way(build, trace, asid, count=RUN_COUNT, step=RUN_STEP,
              perturb=None, prewarm=None, extras=None):
    """Replay ``[0, count)`` per access through ``translate`` (the
    reference) and ``translate_fast``, and per chunk through the access
    kernel ``translate_slice``.

    Each leg constructs its own TLB via ``build`` and its own walker;
    ``perturb(tlb, walker, pos)`` fires after every chunk boundary on all
    three legs identically.  Asserts statistics, cycles, misses, walker
    counters, entry state (and any ``extras(tlb)`` observables) are equal
    across the legs, and returns the reference leg's TLB statistics.
    """
    summaries = []
    for mode in ("reference", "fast", "access"):
        tlb = build()
        walker = make_walker()
        if prewarm is not None:
            prewarm(tlb, walker)
        cycles = misses = 0
        vpns = trace.vpns
        for begin in range(0, count, step):
            end = min(begin + step, count)
            if mode == "reference":
                translate = tlb.translate
                for index in range(begin, end):
                    result = translate(vpns[index], asid, walker)
                    cycles += result.cycles
                    misses += 0 if result.hit else 1
            elif mode == "fast":
                translate_fast = tlb.translate_fast
                for index in range(begin, end):
                    packed = translate_fast(vpns[index], asid, walker)
                    cycles += packed_cycles(packed)
                    misses += 0 if packed_hit(packed) else 1
            else:
                got_cycles, got_misses = tlb.translate_slice(
                    vpns, begin, end, asid, walker
                )
                cycles += got_cycles
                misses += got_misses
            if perturb is not None:
                perturb(tlb, walker, end)
        assert tlb.audit() == []
        summaries.append((
            tlb.stats, cycles, misses, walker.walks, walker.faults,
            entry_state(tlb), extras(tlb) if extras is not None else None,
        ))
    assert summaries[0] == summaries[1], "translate_fast diverged"
    assert summaries[0] == summaries[2], "access kernel diverged"
    return summaries[0][0]


class TestPackedEncoding:
    def test_roundtrip(self):
        packed = pack_result(37, True, False)
        assert packed_cycles(packed) == 37
        assert packed_hit(packed) is True
        assert packed_filled(packed) is False

    def test_miss_fill(self):
        packed = pack_result(31, False, True)
        assert (packed_cycles(packed), packed_hit(packed),
                packed_filled(packed)) == (31, False, True)


class TestSupportsFastpath:
    def test_all_designs_support_it(self):
        for kind in DESIGNS:
            tlb, _ = make_pair(kind)
            assert supports_fastpath(tlb)

    def test_two_level_supports_it(self):
        tlb = make_two_level_tlb(
            TLBKind.SA, TLBKind.SA,
            TLBConfig(entries=16, ways=4), TLBConfig(entries=64, ways=8),
        )
        assert supports_fastpath(tlb)

    def test_duck_typing(self):
        assert not supports_fastpath(object())


class TestPerAccessEquivalence:
    @pytest.mark.parametrize("kind", DESIGNS)
    def test_counters_and_state_match(self, kind):
        reference, fast = make_pair(kind)
        replay_both(reference, fast, random_trace(seed=1))
        assert reference.stats == fast.stats
        assert sorted(
            (e.vpn, e.asid, e.ppn) for e in reference.entries()
        ) == sorted((e.vpn, e.asid, e.ppn) for e in fast.entries())
        assert fast.audit() == []

    def test_rf_secure_region_buffer_path(self):
        """Secure requests return through the buffer without filling."""
        reference, fast = make_pair(TLBKind.RF, victim_asid=1)
        for tlb in (reference, fast):
            tlb.set_secure_region(0x100, 0x20, victim_asid=1)
        replay_both(
            reference, fast,
            random_trace(seed=2, pages=48, asids=(1,)),
        )
        assert reference.stats == fast.stats
        assert reference.stats.no_fills > 0  # The buffer path actually ran.
        assert fast.audit() == []

    def test_rf_buffer_is_cleared_per_request(self):
        _, fast = make_pair(TLBKind.RF, victim_asid=1)
        fast.set_secure_region(0x100, 0x4, victim_asid=1)
        walker = make_walker()
        fast.translate_fast(0x100, 1, walker)  # secure miss: buffered
        assert fast.buffer is not None
        fast.translate_fast(0x300, 1, walker)
        # The fresh request cleaned the previous buffer (and this one
        # missed non-secure, so nothing was re-buffered).
        assert fast.buffer is None

    def test_superpage_entries_hit_in_fast_path(self):
        """Level>0 entries are found through the higher-level probes."""
        from repro.mmu import ToyOS

        reference, fast = make_pair(TLBKind.SA)
        results = []
        for tlb in (reference, fast):
            walker = make_walker()
            toy_os = ToyOS(walker=walker)
            process = toy_os.create_process("victim", asid=1)
            toy_os.map_superpage(process, vpn=0x200 << 9)
            memory = MemorySystem(tlb, walker)
            packed = memory.translate_fast((0x200 << 9) + 5, 1)
            miss = (packed_cycles(packed), packed_hit(packed))
            packed = memory.translate_fast((0x200 << 9) + 9, 1)
            hit = (packed_cycles(packed), packed_hit(packed))
            results.append((miss, hit))
        assert results[0] == results[1]
        assert results[0][1][1] is True  # The second access hits the 2MiB entry.

    def test_two_level_equivalence(self):
        def build():
            return make_two_level_tlb(
                TLBKind.SA, TLBKind.SA,
                TLBConfig(entries=16, ways=4), TLBConfig(entries=64, ways=8),
            )

        reference, fast = build(), build()
        replay_both(reference, fast, random_trace(seed=3))
        assert reference.stats == fast.stats
        assert reference.l1.stats == fast.l1.stats
        assert reference.l2.stats == fast.l2.stats


class TestSliceEquivalence:
    @pytest.mark.parametrize("kind", DESIGNS)
    def test_batched_slice_matches_reference(self, kind):
        spec = by_name("povray")
        trace = CompiledTrace(spec.events(random.Random(11)))
        count = trace.ensure(3_000)
        reference, fast = make_pair(kind)
        ref_walker, fast_walker = make_walker(), make_walker()
        total_cycles = 0
        for index in range(count):
            total_cycles += reference.translate(
                trace.vpns[index], 2, ref_walker
            ).cycles
        fast_cycles = 0
        misses = 0
        for begin in range(0, count, 512):
            cycles, slice_misses = fast.translate_slice(
                trace.vpns, begin, min(begin + 512, count), 2, fast_walker
            )
            fast_cycles += cycles
            misses += slice_misses
        assert reference.stats == fast.stats
        assert fast_cycles == total_cycles
        assert misses == reference.stats.misses
        assert fast.audit() == []


class TestRunEquivalence:
    """Quantum-chunked reference / translate_fast / access-kernel
    differentials, with perturbations landing between chunks."""

    @pytest.mark.parametrize("kind", DESIGNS)
    def test_three_way_counters_match(self, kind, povray_trace):
        stats = three_way(lambda: make_case(kind), povray_trace, asid=2)
        assert stats.accesses == RUN_COUNT
        assert stats.evictions > 0  # The replay churns the TLB.

    def test_sp_victim_partition(self, povray_trace):
        """The victim's fills stay inside its own partition."""
        stats = three_way(lambda: make_case(TLBKind.SP), povray_trace, asid=1)
        assert stats.evictions > 0

    def test_rf_secure_region_no_fill_runs(self, povray_trace):
        """A programmed Sec region takes the random-fill and no-fill
        buffer paths; the access kernel must stay bit-equal."""
        def build():
            tlb = make_case(TLBKind.RF)
            tlb.set_secure_region(
                int(povray_trace.vpns[0]), 0x40, victim_asid=1
            )
            return tlb

        stats = three_way(build, povray_trace, asid=1)
        assert stats.no_fills > 0
        assert stats.random_fills > 0

    def test_mid_run_sfence_breaks_active_run(self, povray_trace):
        """An sfence.vma of a hot page between quanta."""
        target = int(povray_trace.vpns[0])

        def sfence(tlb, walker, pos):
            if pos in (RUN_STEP * 2, RUN_STEP * 6):
                tlb.invalidate_page(target, 2)
                walker.invalidate_memo(asid=2, vpn=target)

        stats = three_way(
            lambda: make_case(TLBKind.SA), povray_trace, asid=2,
            perturb=sfence,
        )
        assert stats.invalidation_hits == 2

    def test_mid_run_secure_region_breaks_active_run(self, povray_trace):
        """Programming the Sec region mid-trace switches later misses to
        the random-fill paths."""
        target = int(povray_trace.vpns[0])

        def program(tlb, walker, pos):
            if pos == RUN_STEP * 2:
                tlb.set_secure_region(target, 0x40, victim_asid=2)

        stats = three_way(
            lambda: make_case(TLBKind.RF), povray_trace, asid=2,
            perturb=program,
        )
        assert stats.no_fills > 0

    def test_mid_run_flush_all(self, povray_trace):
        def flush(tlb, walker, pos):
            if pos == RUN_STEP * 4:
                tlb.flush_all()

        stats = three_way(
            lambda: make_case(TLBKind.SA), povray_trace, asid=2,
            perturb=flush,
        )
        assert stats.flushes == 1

    def test_foreign_process_between_quanta(self, povray_trace):
        """Another process's evictions between quanta."""
        def foreign(tlb, walker, pos):
            if pos == RUN_STEP * 2:
                for vpn in range(900_000, 900_040):
                    tlb.translate(vpn, 9, walker)

        three_way(
            lambda: make_case(TLBKind.SA), povray_trace, asid=2,
            perturb=foreign,
        )

    def test_remap_between_quanta(self, povray_trace):
        """A page remap (mapping-version bump + sfence) between quanta:
        the walker's memo must not serve the stale translation."""
        target = int(povray_trace.vpns[0])

        def remap(tlb, walker, pos):
            if pos == RUN_STEP * 5:
                walker.table_for(2).map_page(target, 0xDEAD)
                tlb.invalidate_page(target, 2)
                walker.invalidate_memo(asid=2, vpn=target)

        three_way(
            lambda: make_case(TLBKind.SA), povray_trace, asid=2,
            perturb=remap,
        )

    def test_prewarmed_tlb(self, povray_trace):
        """Replay into a TLB another process already filled."""
        def prewarm(tlb, walker):
            for vpn in range(700_000, 700_008):
                tlb.translate(vpn, 2, walker)

        three_way(
            lambda: make_case(TLBKind.SA), povray_trace, asid=2,
            prewarm=prewarm,
        )

    def test_superpage_table(self, povray_trace):
        """A superpage mapping in the replayed address space."""
        def prewarm(tlb, walker):
            walker.table_for(2).map_page(1 << 18, 1 << 18, level=1)
            tlb.translate((1 << 18) + 3, 2, walker)

        three_way(
            lambda: make_case(TLBKind.SA), povray_trace, asid=2,
            prewarm=prewarm,
        )


#: Bounded so the generated-schedule test costs a few seconds in CI and
#: replays the same examples on every run.
SCHEDULE_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: One schedule step: a slice of one ASID's accesses (pages drawn from a
#: range several times the TLB's 32 entries, so fills evict), or a
#: maintenance operation between slices.
SCHEDULE_STEP = st.one_of(
    st.tuples(
        st.just("slice"),
        st.sampled_from((1, 2)),
        st.lists(st.integers(0, 95), min_size=1, max_size=60),
    ),
    st.tuples(st.just("sfence"), st.sampled_from((1, 2)), st.integers(0, 95)),
    st.tuples(st.just("flush_asid"), st.sampled_from((1, 2))),
    st.tuples(
        st.just("set_secure_region"),
        st.integers(0, 95),
        st.integers(0, 16),
    ),
)


class TestGeneratedSchedules:
    """Two ASIDs' slices interleaved with sfence / flush_asid /
    set_secure_region, replayed per access through ``translate`` and
    per slice through ``translate_slice``."""

    @staticmethod
    def replay(kind, schedule, batched):
        tlb = make_case(kind)
        walker = make_walker()
        cycles = misses = 0
        for step in schedule:
            op = step[0]
            if op == "slice":
                _, asid, pages = step
                vpns = [0x100 + page for page in pages]
                if batched:
                    got_cycles, got_misses = tlb.translate_slice(
                        vpns, 0, len(vpns), asid, walker
                    )
                    cycles += got_cycles
                    misses += got_misses
                else:
                    for vpn in vpns:
                        result = tlb.translate(vpn, asid, walker)
                        cycles += result.cycles
                        misses += 0 if result.hit else 1
            elif op == "sfence":
                _, asid, page = step
                tlb.invalidate_page(0x100 + page, asid)
                walker.invalidate_memo(asid=asid, vpn=0x100 + page)
            elif op == "flush_asid":
                tlb.flush_asid(step[1])
            elif kind is TLBKind.RF:
                _, base, size = step
                tlb.set_secure_region(0x100 + base, size, victim_asid=1)
        assert tlb.audit() == []
        buffer = getattr(tlb, "buffer", None)
        buffered = None if buffer is None else (buffer.vpn, buffer.asid)
        return (
            tlb.stats, cycles, misses, walker.walks, entry_state(tlb),
            buffered,
        )

    @pytest.mark.parametrize("kind", DESIGNS)
    @SCHEDULE_SETTINGS
    @given(schedule=st.lists(SCHEDULE_STEP, min_size=1, max_size=30))
    def test_slices_match_reference(self, kind, schedule):
        reference = self.replay(kind, schedule, batched=False)
        assert self.replay(kind, schedule, batched=True) == reference


class TestHierarchyRunEquivalence:
    """The access kernel over multi-level hierarchies: the L1 probe with
    L2/PWC side effects flowing through the adapter chain."""

    def test_rf_sa_two_level(self, povray_trace):
        def build():
            return make_two_level_tlb(
                TLBKind.RF, TLBKind.SA,
                TLBConfig(entries=16, ways=4), TLBConfig(entries=64, ways=8),
                rng=random.Random(7),
            )

        three_way(
            build, povray_trace, asid=2,
            extras=lambda tlb: (tlb.l1.stats, tlb.l2.stats),
        )

    def test_sa_sa_pwc_hierarchy(self, povray_trace):
        spec = HierarchySpec(
            levels=(
                LevelSpec(kind="SA", sets=8, ways=4),
                LevelSpec(kind="SA", sets=16, ways=8, hit_latency=4),
            ),
            pwc=PWCSpec(),
        )

        def build():
            return make_hierarchy(spec)

        def extras(tlb):
            return (
                tuple(level.stats for level in tlb.levels),
                tlb.pwc.stats.hits,
                tlb.pwc.stats.misses,
            )

        three_way(build, povray_trace, asid=2, extras=extras)


class TestMemorySystemFastPath:
    def test_idle_bus_matches_reference_packing(self):
        tlb, twin = make_pair(TLBKind.SA)
        memory = MemorySystem(tlb, make_walker())
        twin_memory = MemorySystem(twin, make_walker())
        for vpn, asid in random_trace(seed=4, length=300):
            result = twin_memory.translate(vpn, asid)
            packed = memory.translate_fast(vpn, asid)
            assert packed == pack_result(
                result.cycles, result.hit, result.filled
            )
        assert memory.accesses == twin_memory.accesses
        assert memory.cycles == twin_memory.cycles

    def test_active_bus_falls_back_to_events(self):
        tlb, _ = make_pair(TLBKind.SA)
        memory = MemorySystem(tlb, make_walker())
        seen = []
        memory.bus.on_access(seen.append)
        packed = memory.translate_fast(0x123, 1)
        assert len(seen) == 1
        assert seen[0].vpn == 0x123
        assert packed_hit(packed) is False


class TestSimulateEquivalence:
    """Whole timing-model runs: fastpath=True vs fastpath=False."""

    @pytest.mark.parametrize("kind", DESIGNS)
    def test_single_process_identical(self, kind):
        results = {}
        for fastpath in (False, True):
            tlb, _ = make_pair(kind)
            results[fastpath] = simulate(
                tlb,
                [ScheduledProcess(workload=by_name("povray"), asid=1,
                                  instructions=40_000)],
                quantum=1_000,
                fastpath=fastpath,
            )
        assert results[True] == results[False]

    @pytest.mark.parametrize(
        "policy", [SwitchPolicy.KEEP, SwitchPolicy.FLUSH_ALL]
    )
    def test_multiprogrammed_identical(self, policy):
        results = {}
        for fastpath in (False, True):
            tlb, _ = make_pair(TLBKind.SA)
            results[fastpath] = simulate(
                tlb,
                [
                    ScheduledProcess(workload=by_name("povray"), asid=1,
                                     instructions=30_000),
                    ScheduledProcess(workload=by_name("omnetpp"), asid=2,
                                     instructions=30_000),
                ],
                quantum=2_000,
                switch_policy=policy,
                fastpath=fastpath,
            )
        # Includes total.switches: done-flag timing must match exactly.
        assert results[True] == results[False]

    def test_figure7_cell_identical(self):
        cells = {}
        for fastpath in (False, True):
            cells[fastpath] = run_cell(
                TLBKind.RF,
                "4W 32",
                Scenario(secure=True, spec=by_name("omnetpp")),
                rsa_runs=3,
                settings=PerfSettings(
                    spec_instructions=20_000, key_bits=64, fastpath=fastpath
                ),
            )
        assert cells[True].results == cells[False].results


class TestCompiledTrace:
    def test_chunked_materialisation_of_infinite_stream(self):
        def stream():
            value = 0
            while True:
                yield (value % 5, 0x100 + value % 64)
                value += 1

        trace = CompiledTrace(stream())
        assert len(trace) == 0
        available = trace.ensure(10)
        assert available >= 10
        assert not trace.exhausted
        # cum[i] accumulates gap + 1 per event.
        assert trace.cum[0] == trace.gaps[0] + 1
        assert trace.cum[3] - trace.cum[2] == trace.gaps[3] + 1

    def test_finite_stream_exhausts(self):
        trace = CompiledTrace([(1, 0x10), (0, 0x11)])
        assert trace.ensure(100) == 2
        assert trace.exhausted
        assert list(trace.vpns) == [0x10, 0x11]
        assert list(trace.cum) == [2, 3]
