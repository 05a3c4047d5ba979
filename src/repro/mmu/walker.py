"""The page-table walker: the TLB's miss-path translation source.

Implements the :class:`repro.tlb.Translator` protocol.  The walker resolves
(vpn, asid) against the page table registered for that ASID, charging one
memory access per radix level touched -- the "slow" side of the timing
channel.  RISC-V has no page-walk cache (paper footnote 3), so every walk
pays the full radix traversal.

``auto_map`` reproduces the paper's footnote 5 assumption: the OS has
pre-generated page-table entries for any page the Random Fill Engine may
request, so a walk for an RFE-drawn address never page-faults.  With
``auto_map`` disabled, unmapped pages raise :class:`PageFault`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.tlb.base import WalkResult

from .address import LEVELS
from .page_table import PageFault, PageTable, Permission


@dataclass(frozen=True)
class WalkerConfig:
    """Cost model for walks."""

    #: Cycles per page-table memory access (one per level).
    cycles_per_level: int = 10

    def __post_init__(self) -> None:
        if self.cycles_per_level <= 0:
            raise ValueError("cycles_per_level must be positive")


class PageTableWalker:
    """Walks the page table registered for each address space."""

    def __init__(
        self,
        config: WalkerConfig = WalkerConfig(),
        auto_map: bool = False,
        frame_allocator: Optional[Callable[[], int]] = None,
    ) -> None:
        self.config = config
        self.auto_map = auto_map
        self._tables: Dict[int, PageTable] = {}
        self._frame_allocator = frame_allocator or _SequentialFrames().allocate
        self.walks = 0
        self.faults = 0
        #: Walk memo: (asid, vpn) -> (table version walked under, result).
        #: A memo hit still counts as a walk and charges the same cycles
        #: (RISC-V has no page-walk cache, footnote 3 -- architecturally
        #: every walk is real; the memo only skips the Python radix
        #: traversal and the WalkResult allocation, which is legal because
        #: WalkResult is frozen).  Any page-table version bump, re-register
        #: or ``sfence.vma`` invalidates.
        self._memo: Dict[Tuple[int, int], Tuple[int, WalkResult]] = {}

    def register(self, table: PageTable) -> None:
        """Attach an address space (keyed by its ASID)."""
        self._tables[table.asid] = table
        self.invalidate_memo(asid=table.asid)

    def invalidate_memo(
        self, asid: Optional[int] = None, vpn: Optional[int] = None
    ) -> None:
        """Drop memoized walks (all, per-ASID, per-page, or one).

        Wired to ``sfence.vma`` by the OS model.  Page-table version
        checks already make the memo remap-safe; this keeps the fence's
        architectural contract explicit and bounds memo growth across
        address-space teardown.
        """
        if asid is None and vpn is None:
            self._memo.clear()
        elif vpn is None:
            self._memo = {
                key: value for key, value in self._memo.items()
                if key[0] != asid
            }
        elif asid is None:
            self._memo = {
                key: value for key, value in self._memo.items()
                if key[1] != vpn
            }
        else:
            self._memo.pop((asid, vpn), None)

    def table_for(self, asid: int) -> PageTable:
        try:
            return self._tables[asid]
        except KeyError:
            if self.auto_map:
                table = PageTable(asid)
                self._tables[asid] = table
                return table
            raise PageFault(vpn=0, asid=asid) from None

    def walk(self, vpn: int, asid: int) -> WalkResult:
        """Resolve a translation, charging one access per level touched."""
        self.walks += 1
        key = (asid, vpn)
        memo = self._memo.get(key)
        if memo is not None and memo[0] == self._tables[asid].version:
            return memo[1]
        table = self.table_for(asid)
        levels_touched, entry = table.walk_levels(vpn)
        if entry is None:
            if not self.auto_map:
                self.faults += 1
                raise PageFault(vpn=vpn, asid=asid)
            entry = table.map_page(
                vpn, self._frame_allocator(), Permission.rw()
            )
            levels_touched = LEVELS
        result = WalkResult(
            ppn=entry.translate(vpn),
            cycles=levels_touched * self.config.cycles_per_level,
            level=entry.level,
        )
        self._memo[key] = (table.version, result)
        return result

    def peek(self, vpn: int, asid: int) -> Optional[int]:
        """Side-effect-free translation lookup: the PPN, or ``None``.

        Unlike :meth:`walk`, peeking never auto-maps, charges no cycles
        and counts no walks -- it reads the page table as ground truth.
        The :mod:`repro.faults` detectors use it to cross-check every live
        TLB entry against the OS's mapping, so a corrupted PPN or ASID tag
        (a translation the page tables never produced) is observable.
        """
        table = self._tables.get(asid)
        if table is None:
            return None
        entry = table.lookup(vpn)
        return None if entry is None else entry.translate(vpn)

    def allows(self, vpn: int, asid: int, required: Permission) -> bool:
        """Permission check for an already-translated access.

        Separated from :meth:`walk` on purpose: hardware caches the
        translation *before* the permission check faults, which is the
        premise of the Double Page Fault attack (a second access to a
        forbidden page is fast because the TLB already holds the entry).
        """
        table = self._tables.get(asid)
        if table is None:
            return False
        entry = table.lookup(vpn)
        if entry is None:
            # A page that would be auto-mapped defaults to user read/write.
            return self.auto_map and (Permission.rw() & required) == required
        return entry.allows(required)

    @property
    def full_walk_cycles(self) -> int:
        """Latency of a complete (successful) walk."""
        return LEVELS * self.config.cycles_per_level


class _SequentialFrames:
    """Default physical frame allocator for auto-mapped pages."""

    def __init__(self, start: int = 0x8000) -> None:
        self._next = start

    def allocate(self) -> int:
        frame = self._next
        self._next += 1
        return frame


def make_walker(
    config: Optional[WalkerConfig] = None,
    auto_map: bool = True,
    frame_allocator: Optional[Callable[[], int]] = None,
) -> PageTableWalker:
    """The registered walker factory the drive loops go through.

    Defaults match how every experiment builds its walker (``auto_map``
    on, footnote 5's pre-generated page tables); the invariant linter
    (``repro.analysis``) enforces that walkers are constructed only here
    and in the :class:`repro.sim.MemorySystem` default, so the cost model
    stays configured in one place.
    """
    return PageTableWalker(
        config=config or WalkerConfig(),
        auto_map=auto_map,
        frame_allocator=frame_allocator,
    )
