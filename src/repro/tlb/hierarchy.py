"""Generic N-level TLB hierarchies (plus an optional page-walk cache).

Section 4 notes the secure designs "can be applied to instruction TLBs as
well as other levels of TLB"; this module makes that concrete.  Each level
is wired in as the previous level's *translator*: an L1 miss consults the
L2 (whose hit latency stands in for the L2 array access), an L2 miss the
L3, and only a miss in the last level pays the page-table walk -- through
the optional :class:`PageWalkCache` when the hierarchy has one.  Each
level keeps its own design logic -- any combination of SA/SP/RF is
expressible -- which lets the hierarchy sweep show the security
consequence: a protected L1 in front of a standard L2 still leaks,
because the victim's translations land in the L2 on the walk path and L2
evictions remain attacker-observable through the miss latency.

Hierarchies are built from a declarative :class:`repro.tlb.HierarchySpec`
by :func:`repro.security.kinds.make_hierarchy` (the linter-sanctioned
factory); :class:`TwoLevelTLB` remains as the two-level convenience shape
the earlier ablation used.

While an observer asks for it (:meth:`TLBHierarchy.begin_trace`), the
inter-level adapters record which levels a request consulted and whether
a true walk happened, so :class:`repro.sim.MemorySystem` can publish
level-tagged fill/evict events and ``refill`` events for inter-level
movement without the hierarchy itself knowing about the event bus.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .base import AccessResult, BaseTLB, Translator, WalkResult
from .spec import HierarchySpec, LevelSpec, PWCSpec  # noqa: F401 (re-export)
from .stats import TLBStats

#: A trace record: ``("level", level_number, vpn, AccessResult)`` for a
#: consulted lower level, or ``("walk", vpn, WalkResult, cached)`` for a
#: page-table walk (``cached`` marks a page-walk-cache hit).
TraceRecord = Tuple


@dataclass
class PWCStats:
    """Counters of one :class:`PageWalkCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


@dataclass
class PageWalkCache:
    """A small LRU cache of completed page-table walks.

    The architectural counterpart of the walker's replay memo
    (:class:`repro.mmu.PageTableWalker`): a hit is served in
    :attr:`PWCSpec.hit_latency` cycles instead of the walk's, so walks
    stop being a pure function of radix levels touched (the paper's
    footnote 3 assumes no such cache, which is why the stock detectors
    treat PWC-served walks specially).  Maintenance operations reach it
    through the owning :class:`TLBHierarchy`, exactly like a TLB level.
    """

    spec: PWCSpec
    stats: PWCStats = field(default_factory=PWCStats)

    def __post_init__(self) -> None:
        self._cache: "OrderedDict[Tuple[int, int], WalkResult]" = OrderedDict()

    def lookup(self, vpn: int, asid: int) -> Optional[WalkResult]:
        cached = self._cache.get((vpn, asid))
        if cached is None:
            self.stats.misses += 1
            return None
        self._cache.move_to_end((vpn, asid))
        self.stats.hits += 1
        return WalkResult(
            ppn=cached.ppn, cycles=self.spec.hit_latency, level=cached.level
        )

    def insert(self, vpn: int, asid: int, result: WalkResult) -> None:
        cache = self._cache
        cache[(vpn, asid)] = result
        cache.move_to_end((vpn, asid))
        if len(cache) > self.spec.entries:
            cache.popitem(last=False)
            self.stats.evictions += 1

    def occupancy(self) -> int:
        return len(self._cache)

    # -- maintenance (driven by the owning hierarchy) --------------------------

    def flush_all(self) -> None:
        self._cache.clear()
        self.stats.flushes += 1

    def flush_asid(self, asid: int) -> None:
        for key in [key for key in self._cache if key[1] == asid]:
            del self._cache[key]
        self.stats.flushes += 1

    def invalidate_page(self, vpn: int, asid: int) -> None:
        self._cache.pop((vpn, asid), None)


class _LevelAdapter:
    """Presents the next TLB level as a translator for the level above."""

    __slots__ = ("_next_level", "_translator", "_owner", "_level")

    def __init__(
        self,
        next_level: BaseTLB,
        translator: Translator,
        owner: "TLBHierarchy",
        level: int,
    ) -> None:
        self._next_level = next_level
        self._translator = translator
        self._owner = owner
        #: 1-based number of the level this adapter consults (2 = L2).
        self._level = level

    def walk(self, vpn: int, asid: int) -> WalkResult:
        result = self._next_level.translate(vpn, asid, self._translator)
        trace = self._owner._trace
        if trace is not None:
            trace.append(("level", self._level, vpn, result))
        return WalkResult(ppn=result.ppn, cycles=result.cycles)


class _WalkProbe:
    """Wraps the real walker so true walks are visible in the trace."""

    __slots__ = ("_walker", "_owner")

    def __init__(self, walker: Translator, owner: "TLBHierarchy") -> None:
        self._walker = walker
        self._owner = owner

    def walk(self, vpn: int, asid: int) -> WalkResult:
        result = self._walker.walk(vpn, asid)
        trace = self._owner._trace
        if trace is not None:
            trace.append(("walk", vpn, result, False))
        return result


class _PWCAdapter:
    """Serves walks from the page-walk cache, falling through on a miss."""

    __slots__ = ("_pwc", "_inner", "_owner")

    def __init__(
        self, pwc: PageWalkCache, inner: Translator, owner: "TLBHierarchy"
    ) -> None:
        self._pwc = pwc
        self._inner = inner
        self._owner = owner

    def walk(self, vpn: int, asid: int) -> WalkResult:
        cached = self._pwc.lookup(vpn, asid)
        if cached is not None:
            trace = self._owner._trace
            if trace is not None:
                trace.append(("walk", vpn, cached, True))
            return cached
        result = self._inner.walk(vpn, asid)
        self._pwc.insert(vpn, asid, result)
        return result


class TLBHierarchy:
    """An N-level TLB, outermost (CPU-facing) level first.

    Implements the same access interface as :class:`BaseTLB` (``translate``
    / ``translate_fast`` / ``translate_slice`` / ``flush_all`` /
    ``flush_asid`` / ``invalidate_page`` / ``resident``), so it drops into
    the CPU, the security evaluator (via the ``make_hierarchy`` factory),
    the fault injector and the performance harness unchanged.  The fast
    path composes per level: every level keeps its own fast lookup index,
    and only the outermost level's hit path is exercised per access, so
    ``repro.sim.kernel``'s ``supports_fastpath`` contract holds for any
    depth.

    ``stats`` exposes the *last* level's counters, whose ``misses`` are
    the true page-table walks: that is what the benchmarks'
    ``tlb_miss_count`` observes, matching a hardware walk counter.
    Per-level statistics are available via ``levels[i].stats``.
    """

    def __init__(
        self,
        levels: Sequence[BaseTLB],
        name: str = "hierarchy",
        pwc: Optional[PageWalkCache] = None,
        secure_levels: Optional[Sequence[int]] = None,
    ) -> None:
        levels = tuple(levels)
        if not levels:
            raise ValueError("a hierarchy needs at least one level")
        if len({id(level) for level in levels}) != len(levels):
            raise ValueError("hierarchy levels must be distinct TLB instances")
        self.levels: Tuple[BaseTLB, ...] = levels
        self.name = name
        self.pwc = pwc
        #: 0-based indices of levels whose secure-region registers are
        #: programmed by :meth:`set_secure_region` (None = every level
        #: that has them).
        self._secure_levels = (
            frozenset(secure_levels) if secure_levels is not None else None
        )
        #: Adapter chain reused across accesses while the walker stays the
        #: same, so the hot loop does not allocate adapters per translation.
        self._walker: Optional[Translator] = None
        self._chain: Optional[Translator] = None
        #: Per-access consult/walk records while an observer traces.
        self._trace: Optional[List[TraceRecord]] = None

    # -- wiring -----------------------------------------------------------------

    def _adapter_for(self, translator: Translator) -> Translator:
        """The L1's translator: the chained lower levels ending in the walk."""
        if self._chain is not None and self._walker is translator:
            return self._chain
        tail: Translator = _WalkProbe(translator, self)
        if self.pwc is not None:
            tail = _PWCAdapter(self.pwc, tail, self)
        # Build inward-out: the last level walks via `tail`, each upper
        # level consults the one below through an adapter.
        chain = tail
        for index in range(len(self.levels) - 1, 0, -1):
            chain = _LevelAdapter(self.levels[index], chain, self, index + 1)
        self._walker = translator
        self._chain = chain
        return chain

    # -- observation hooks (used by repro.sim.MemorySystem) ---------------------

    def begin_trace(self) -> None:
        """Start recording consult/walk records for the next access."""
        self._trace = []

    def pop_trace(self) -> List[TraceRecord]:
        """Return and clear the records since :meth:`begin_trace`."""
        trace = self._trace or []
        self._trace = None
        return trace

    # -- the BaseTLB-compatible surface -----------------------------------------

    @property
    def config(self):
        return self.levels[0].config

    @property
    def stats(self) -> TLBStats:
        return self.levels[-1].stats

    def per_level_stats(self) -> List[TLBStats]:
        """Each level's own counters, outermost first."""
        return [level.stats for level in self.levels]

    def translate(self, vpn: int, asid: int, translator: Translator) -> AccessResult:
        return self.levels[0].translate(vpn, asid, self._adapter_for(translator))

    def translate_fast(self, vpn: int, asid: int, translator: Translator) -> int:
        """Packed-int translate (see :meth:`BaseTLB.translate_fast`).

        Only the outermost hit path is allocation-free; a miss consults
        the lower levels through the ordinary adapters, which is already
        the slow (walk-latency) path.
        """
        return self.levels[0].translate_fast(
            vpn, asid, self._adapter_for(translator)
        )

    def translate_slice(
        self, vpns, start: int, stop: int, asid: int, translator: Translator
    ):
        """Batched fast path (see :meth:`BaseTLB.translate_slice`)."""
        return self.levels[0].translate_slice(
            vpns, start, stop, asid, self._adapter_for(translator)
        )

    def flush_all(self) -> None:
        for level in self.levels:
            level.flush_all()
        if self.pwc is not None:
            self.pwc.flush_all()

    def flush_asid(self, asid: int) -> None:
        for level in self.levels:
            level.flush_asid(asid)
        if self.pwc is not None:
            self.pwc.flush_asid(asid)

    def invalidate_page(self, vpn: int, asid: int) -> AccessResult:
        """Invalidate in every level; present if any level held it."""
        results = [level.invalidate_page(vpn, asid) for level in self.levels]
        if self.pwc is not None:
            self.pwc.invalidate_page(vpn, asid)
        hit = any(result.hit for result in results)
        ppn = next((r.ppn for r in results if r.hit), results[0].ppn)
        return AccessResult(
            hit=hit,
            ppn=ppn,
            cycles=max(result.cycles for result in results),
            filled=False,
        )

    def resident(self, vpn: int, asid: int) -> bool:
        return any(level.resident(vpn, asid) for level in self.levels)

    def entries(self):
        """All valid entries across all levels (copies), for inspection."""
        collected = []
        for level in self.levels:
            collected.extend(level.entries())
        return collected

    def occupancy(self) -> int:
        return sum(level.occupancy() for level in self.levels)

    def audit(self) -> List[str]:
        """Per-level structural self-check (see :meth:`BaseTLB.audit`)."""
        return [
            f"L{number}: {problem}"
            for number, level in enumerate(self.levels, start=1)
            for problem in level.audit()
        ]

    def set_secure_region(
        self, sbase: int, ssize: int, victim_asid: Optional[int] = None
    ) -> None:
        """Forward the RF region registers to whichever levels support them.

        Levels excluded via ``secure_levels`` (a spec's ``sec_bit: false``)
        are skipped: their Sec-bit machinery stays unprogrammed.
        """
        for index, level in enumerate(self.levels):
            if self._secure_levels is not None and index not in self._secure_levels:
                continue
            if hasattr(level, "set_secure_region"):
                level.set_secure_region(sbase, ssize, victim_asid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(repr(level) for level in self.levels)
        pwc = " +pwc" if self.pwc is not None else ""
        return f"<TLBHierarchy [{inner}]{pwc}>"

    # -- two-level conveniences -------------------------------------------------

    @property
    def l1(self) -> BaseTLB:
        return self.levels[0]

    @property
    def l2(self) -> BaseTLB:
        if len(self.levels) < 2:
            raise AttributeError("hierarchy has no L2")
        return self.levels[1]


class TwoLevelTLB(TLBHierarchy):
    """An L1 TLB backed by an L2 TLB (the original two-level shape).

    Kept as a thin :class:`TLBHierarchy` subclass for the existing
    ablation and test surface; new code should describe hierarchies with
    :class:`repro.tlb.HierarchySpec` and build them through
    :func:`repro.security.kinds.make_hierarchy`.
    """

    def __init__(self, l1: BaseTLB, l2: BaseTLB, name: str = "two-level") -> None:
        if l1 is l2:
            raise ValueError("L1 and L2 must be distinct TLB instances")
        super().__init__((l1, l2), name=name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TwoLevelTLB l1={self.l1!r} l2={self.l2!r}>"
