"""A Dynamic-Partition TLB: the SP TLB's run-time extension.

Section 4.1.2: "The allocation of different partitions is configurable
during the design time, but could be further extended to be dynamic at
run time."  This class implements that extension and makes its security
pitfall explicit: when ways are reassigned between partitions, any entries
left behind in the reassigned ways become evictable by the *other* side,
silently reviving the external miss-based attacks partitioning exists to
stop.  :meth:`repartition` therefore invalidates the reassigned ways by
default; ``flush_reassigned=False`` models the naive (insecure)
implementation, for the ablation that demonstrates the leak.
"""

from __future__ import annotations

from .sp import StaticPartitionTLB


class DynamicPartitionTLB(StaticPartitionTLB):
    """SP TLB whose partition split can be changed at run time."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.repartitions = 0

    def repartition(
        self, victim_ways: int, flush_reassigned: bool = True
    ) -> int:
        """Move the partition boundary; returns entries invalidated.

        A trusted OS would call this when the protected process's working
        set grows or shrinks.  With ``flush_reassigned`` (the secure
        default), every valid entry sitting in a way that changes sides is
        invalidated; without it, stale victim entries in now-attacker ways
        can be evicted by the attacker (and vice versa), re-opening the
        Evict + Time / Prime + Probe channels for those translations.
        """
        if not 0 < victim_ways < self.config.ways:
            raise ValueError(
                "the victim partition must hold between 1 and ways-1 ways "
                f"(got {victim_ways} of {self.config.ways})"
            )
        old = self.victim_ways
        self.victim_ways = victim_ways
        self.repartitions += 1
        if old == victim_ways or not flush_reassigned:
            return 0
        low, high = sorted((old, victim_ways))
        invalidated = 0
        for tlb_set in self._sets:
            for way in range(low, high):
                if tlb_set[way].valid:
                    self._invalidate_entry(tlb_set[way])
                    invalidated += 1
        return invalidated

    def misplaced_entries(self) -> int:
        """Valid entries currently sitting in the wrong partition.

        Zero whenever every repartition flushed its reassigned ways; the
        naive implementation accumulates misplaced (attackable) entries.
        """
        count = 0
        for tlb_set in self._sets:
            for way, entry in enumerate(tlb_set):
                if not entry.valid:
                    continue
                in_victim_partition = way < self.victim_ways
                if in_victim_partition != self.is_victim(entry.asid):
                    count += 1
        return count
