"""Shared TLB machinery: lookup, flush, invalidation, and the fill hook.

Every design (standard SA/FA, Static-Partition, Random-Fill) shares the same
hit path -- a hit requires matching page number *and* process ID -- and the
same maintenance operations; the designs differ only in how a miss is
handled.  :class:`BaseTLB` implements the common template and defers the
miss to :meth:`BaseTLB._handle_miss`.

Translations come from a *translator* (the page-table walker in the full
system; tests use :class:`IdentityTranslator`).  The walker reports its
latency so the TLB can expose the fast/slow timing the attacks measure.

Lookups are backed by a *fast index*: a dict from ``(tag, asid, level)``
to the resident entry, maintained alongside ``_sets`` by every fill,
eviction, flush and invalidation (the coherence invariant
:meth:`BaseTLB.audit` checks).  The index turns the per-access way scan
into at most three dict probes -- one per superpage level -- and backs the
allocation-free :meth:`BaseTLB.translate_fast` and
:meth:`BaseTLB.translate_slice` kernels used by the trace simulator (see
:mod:`repro.sim.kernel`).  Both send every miss through the design's
:meth:`BaseTLB._handle_miss`, so each fill policy is written exactly once.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

from .config import TLBConfig
from .entry import TLBEntry
from .replacement import ReplacementPolicy, make_policy
from .stats import TLBStats


@dataclass(frozen=True)
class WalkResult:
    """A page-table walk's outcome: the physical page and its latency.

    ``level`` reports the leaf's superpage level (0 = 4 KiB): superpage
    walks touch fewer radix levels and their translations cover a whole
    aligned region in the TLB.
    """

    ppn: int
    cycles: int
    level: int = 0


class Translator(Protocol):
    """Anything that can resolve a (vpn, asid) to a physical page."""

    def walk(self, vpn: int, asid: int) -> WalkResult:  # pragma: no cover
        ...


class IdentityTranslator:
    """A trivial translator mapping every page to itself.

    Used by unit tests and the security benchmarks, where only hit/miss
    behaviour matters; the full system uses :class:`repro.mmu.walker`.
    """

    def __init__(self, cycles: int = 30) -> None:
        self.cycles = cycles
        self.walks = 0

    def walk(self, vpn: int, asid: int) -> WalkResult:
        self.walks += 1
        return WalkResult(ppn=vpn, cycles=self.cycles)


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one translation request."""

    hit: bool
    ppn: int
    #: Total latency in cycles: the architectural timing the attacker sees.
    cycles: int
    #: The valid entry displaced by this access's fill, if any.
    evicted: Optional[TLBEntry] = None
    #: Whether the *requested* translation was inserted into the TLB.  The
    #: Random-Fill TLB returns secure-region translations through its buffer
    #: without filling (Section 4.2.1), in which case this is False.
    filled: bool = True

    @property
    def miss(self) -> bool:
        return not self.hit


class BaseTLB(abc.ABC):
    """Template for all TLB designs."""

    def __init__(self, config: TLBConfig, name: str = "tlb") -> None:
        self.config = config
        self.name = name
        self.stats = TLBStats()
        self._policy: ReplacementPolicy = make_policy(config.replacement)
        self._clock = 0
        self._sets: List[List[TLBEntry]] = [
            [TLBEntry() for _way in range(config.ways)]
            for _set in range(config.sets)
        ]
        #: Fast lookup index: (tag, asid, level) -> the resident entry.
        #: Coherent with ``_sets`` at every step (see the module doc); a
        #: clean TLB has exactly one index key per valid entry.
        self._index: Dict[Tuple[int, int, int], TLBEntry] = {}
        #: Count of valid superpage (level > 0) entries: lets the fast
        #: path skip the level-1/2 index probes entirely for the common
        #: all-4KiB case.
        self._super_entries = 0
        #: Precomputed hit return value for :meth:`translate_fast`
        #: (cycles << 2 | hit bit; a hit never fills).
        self._hit_packed = (config.hit_latency << 2) | 0b10

    # -- the shared hit path ---------------------------------------------------

    def translate(self, vpn: int, asid: int, translator: Translator) -> AccessResult:
        """Translate one page access, updating state and statistics."""
        self._clock += 1
        entry = self._find(vpn, asid)
        if entry is not None:
            entry.touch(self._clock)
            self.stats.record_access(hit=True, asid=asid)
            # A hit inserts nothing: the entry was already resident (it may
            # even be a *random* fill's, never the requested translation).
            return AccessResult(
                hit=True,
                ppn=entry.translate(vpn),
                cycles=self.config.hit_latency,
                filled=False,
            )
        self.stats.record_access(hit=False, asid=asid)
        return self._handle_miss(vpn, asid, translator)

    def translate_fast(self, vpn: int, asid: int, translator: Translator) -> int:
        """Allocation-free translate: ``cycles << 2 | hit << 1 | filled``.

        Architecturally identical to :meth:`translate` -- same clock, LRU,
        statistics, fills and evictions -- but the hit path builds no
        :class:`AccessResult` (and, driven through
        :meth:`repro.sim.MemorySystem.translate_fast`, no events), which
        is what the batched trace simulator runs millions of times.  The
        miss path still goes through the design's :meth:`_handle_miss`,
        so each design's fill policy stays written exactly once.
        """
        self._clock += 1
        # Inlined level-0 probe (the overwhelmingly common case).  The
        # guard is exactly ``entry.matches(vpn, asid)`` for equal VPNs --
        # an entry whose own vpn/asid equal the request's covers it at any
        # level -- so index corruption can still only cause a spurious
        # miss, never a false hit.
        entry = self._index.get((vpn, asid, 0))
        if (
            entry is not None
            and entry.valid
            and entry.vpn == vpn
            and entry.asid == asid
        ):
            entry.last_used = self._clock
            stats = self.stats
            stats.accesses += 1
            stats.hits += 1
            return self._hit_packed
        if self._super_entries:
            entry = self._find(vpn, asid)
            if entry is not None:
                entry.last_used = self._clock
                stats = self.stats
                stats.accesses += 1
                stats.hits += 1
                return self._hit_packed
        self.stats.record_access(hit=False, asid=asid)
        result = self._handle_miss(vpn, asid, translator)
        return (result.cycles << 2) | (1 if result.filled else 0)

    #: Set by the Random-Fill TLB: its one-entry no-fill ``buffer`` must be
    #: cleaned at the start of every request, including batched ones.
    _NOFILL_BUFFER = False

    def translate_slice(
        self, vpns, start: int, stop: int, asid: int, translator: Translator
    ) -> Tuple[int, int]:
        """Batched :meth:`translate_fast` over ``vpns[start:stop]``.

        Returns ``(total_cycles, misses)``.  The batch form exists for the
        trace-driven quantum loop: state (clock, index, hit counters) is
        hoisted into locals across the hit run and synced back around
        every miss, so the common all-hit stretch costs one dict probe and
        a handful of local operations per access.  Misses go through the
        design's :meth:`_handle_miss`, like :meth:`translate_fast`'s.
        State transitions and statistics are identical to
        ``stop - start`` single calls.
        """
        index = self._index
        stats = self.stats
        clock = self._clock
        hit_cycles = self.config.hit_latency
        clear_buffer = self._NOFILL_BUFFER
        hits = 0
        misses = 0
        total_cycles = 0
        i = start
        while i < stop:
            vpn = vpns[i]
            i += 1
            clock += 1
            if clear_buffer:
                self.buffer = None
            entry = index.get((vpn, asid, 0))
            if (
                entry is not None
                and entry.valid
                and entry.vpn == vpn
                and entry.asid == asid
            ):
                entry.last_used = clock
                hits += 1
                total_cycles += hit_cycles
                continue
            # Sync the hoisted state, take the ordinary superpage-probe /
            # miss path, then continue the batch.
            self._clock = clock
            stats.accesses += hits
            stats.hits += hits
            hits = 0
            found = self._find(vpn, asid) if self._super_entries else None
            if found is not None:
                found.last_used = clock
                stats.accesses += 1
                stats.hits += 1
                total_cycles += hit_cycles
                continue
            stats.record_access(hit=False, asid=asid)
            result = self._handle_miss(vpn, asid, translator)
            total_cycles += result.cycles
            misses += 1
        self._clock = clock
        stats.accesses += hits
        stats.hits += hits
        return total_cycles, misses

    @abc.abstractmethod
    def _handle_miss(
        self, vpn: int, asid: int, translator: Translator
    ) -> AccessResult:
        """Design-specific miss handling (fill policy)."""

    # -- lookup helpers ---------------------------------------------------------

    #: Superpage levels a lookup probes (Sv39: 4 KiB, 2 MiB, 1 GiB).
    _LEVELS = (0, 1, 2)

    def _set_for(self, vpn: int, level: int = 0) -> List[TLBEntry]:
        return self._sets[self.config.set_index_for_level(vpn, level)]

    def _find(self, vpn: int, asid: int) -> Optional[TLBEntry]:
        """The resident entry covering ``(vpn, asid)``, via the fast index.

        One dict probe per superpage level, cheapest first.  The
        ``matches`` re-check keeps the lookup honest even if the index has
        been corrupted behind the TLB's back (the fault injector does
        exactly that): a stale or mispointed slot can cause a spurious
        miss -- which refills, and the refill plus :meth:`audit` expose the
        corruption -- but never a false hit.
        """
        index = self._index
        entry = index.get((vpn, asid, 0))
        if entry is not None and entry.matches(vpn, asid):
            return entry
        entry = index.get((vpn >> 9, asid, 1))
        if entry is not None and entry.matches(vpn, asid):
            return entry
        entry = index.get((vpn >> 18, asid, 2))
        if entry is not None and entry.matches(vpn, asid):
            return entry
        return None

    def resident(self, vpn: int, asid: int) -> bool:
        """Introspection for tests/harnesses: is the translation cached?"""
        return self._find(vpn, asid) is not None

    def entries(self) -> List[TLBEntry]:
        """All valid entries (copies), for inspection."""
        return [
            entry.snapshot()
            for tlb_set in self._sets
            for entry in tlb_set
            if entry.valid
        ]

    def occupancy(self) -> int:
        return sum(
            1 for tlb_set in self._sets for entry in tlb_set if entry.valid
        )

    def audit(self) -> List[str]:
        """Structural self-check; returns human-readable violations.

        The paper's security argument assumes the TLB state machine holds
        its structural invariants at every step; this is the programmatic
        form of the ``tests/tlb/test_invariants`` suite, callable against a
        *live* (possibly fault-injected) instance: every valid entry must
        sit in the set its VPN indexes to, and no set may hold two entries
        answering the same (tag, ASID) lookup.  A clean simulator returns
        ``[]`` always; the :mod:`repro.faults` detectors rely on seeded
        corruption making this non-empty.
        """
        problems: List[str] = []
        for index, tlb_set in enumerate(self._sets):
            seen: dict = {}
            for entry in tlb_set:
                if not entry.valid:
                    continue
                expected = self.config.set_index_for_level(
                    entry.vpn, entry.level
                )
                if expected != index:
                    problems.append(
                        f"entry vpn={entry.vpn:#x} asid={entry.asid} sits in"
                        f" set {index}, indexes to set {expected}"
                    )
                lookup = (entry._tag(entry.vpn), entry.asid, entry.level)
                if lookup in seen:
                    problems.append(
                        f"duplicate entries for vpn={entry.vpn:#x}"
                        f" asid={entry.asid} in set {index}"
                    )
                seen[lookup] = entry
        if self.occupancy() > self.config.entries:
            problems.append(
                f"occupancy {self.occupancy()} exceeds capacity"
                f" {self.config.entries}"
            )
        problems.extend(self._audit_index())
        return problems

    def _audit_index(self) -> List[str]:
        """Cross-check the fast index against ``_sets`` (both directions).

        Every valid entry must be indexed under its own key, and every
        index slot must point at the valid entry that owns its key -- the
        coherence invariant the fill/evict/flush/invalidate paths
        maintain.  A stale slot (entry evicted behind the TLB's back) or a
        mispointed one (index corruption) is silent-corruption surface the
        chaos campaign's ``tlb-audit`` detector must see.
        """
        problems: List[str] = []
        for tlb_set in self._sets:
            for entry in tlb_set:
                if entry.valid and self._index.get(entry.index_key()) is not entry:
                    problems.append(
                        f"valid entry vpn={entry.vpn:#x} asid={entry.asid}"
                        " is missing from the fast index (or its key points"
                        " at another entry)"
                    )
        for key, entry in self._index.items():
            if not entry.valid:
                problems.append(
                    f"fast-index key {key} points at an invalid entry"
                    " (stale mapping after an evict/flush)"
                )
            elif entry.index_key() != key:
                problems.append(
                    f"fast-index key {key} points at entry"
                    f" vpn={entry.vpn:#x} asid={entry.asid} whose own key is"
                    f" {entry.index_key()}"
                )
        return problems

    # -- fill helper shared by the designs ---------------------------------------

    def _fill_entry(
        self,
        victim: TLBEntry,
        vpn: int,
        ppn: int,
        asid: int,
        sec: bool = False,
        level: int = 0,
    ) -> Optional[TLBEntry]:
        """Install a translation into ``victim``; return the displaced entry."""
        evicted = victim.snapshot() if victim.valid else None
        if evicted is not None:
            self.stats.evictions += 1
            self._index.pop(victim.index_key(), None)
            if victim.level:
                self._super_entries -= 1
        victim.fill(vpn, ppn, asid, now=self._clock, sec=sec, level=level)
        self._index[victim.index_key()] = victim
        if level:
            self._super_entries += 1
        self.stats.fills += 1
        return evicted

    def _invalidate_entry(self, entry: TLBEntry) -> None:
        """Invalidate one resident entry, keeping the fast index coherent.

        Every invalidation inside the TLB must go through here (or a
        flush): ``entry.invalidate()`` alone would leave a stale index
        mapping -- exactly the corruption :meth:`audit` exists to catch.
        """
        if entry.valid:
            self._index.pop(entry.index_key(), None)
            if entry.level:
                self._super_entries -= 1
        entry.invalidate()

    # -- maintenance operations ---------------------------------------------------

    def flush_all(self) -> None:
        """Full flush (``sfence.vma`` with no operands / context switch)."""
        for tlb_set in self._sets:
            for entry in tlb_set:
                entry.invalidate()
        self._index.clear()
        self._super_entries = 0
        self.stats.flushes += 1

    def flush_asid(self, asid: int) -> None:
        """Flush every entry belonging to one process."""
        for tlb_set in self._sets:
            for entry in tlb_set:
                if entry.valid and entry.asid == asid:
                    self._invalidate_entry(entry)
        self.stats.flushes += 1

    def invalidate_page(self, vpn: int, asid: int) -> AccessResult:
        """Targeted invalidation of one translation (Appendix B semantics).

        Returns an :class:`AccessResult` whose ``cycles`` exposes the
        presence-dependent timing: invalidating a resident entry takes a
        second cycle (slow); invalidating an absent one completes in the
        probe cycle (fast).  ``hit`` reports whether the entry was present.
        """
        self._clock += 1
        self.stats.invalidations += 1
        entry = self._find(vpn, asid)
        if entry is None:
            return AccessResult(
                hit=False, ppn=0, cycles=self.config.hit_latency, filled=False
            )
        self.stats.invalidation_hits += 1
        ppn = entry.translate(vpn)
        self._invalidate_entry(entry)
        return AccessResult(
            hit=True,
            ppn=ppn,
            cycles=self.config.hit_latency + 1,
            filled=False,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.config.label()} "
            f"occupancy={self.occupancy()}/{self.config.entries}>"
        )
