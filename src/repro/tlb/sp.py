"""The Static-Partition (SP) TLB (Section 4.1).

The SP TLB is a set-associative TLB whose ways are statically split between
a *victim* partition and an *attacker* partition (everything that is not the
designated victim process).  Hits are identical to the standard SA TLB --
page number and ASID must both match.  On a miss, the fill may only replace
a way inside the requesting process's own partition, each partition keeping
its own LRU order (Figure 1), so:

* the attacker can never evict the victim's translations (defeating TLB
  Prime + Probe and TLB Evict + Time, the external miss-based rows), and
* the victim can never evict the attacker's.

The victim's own internal interference (TLB Internal Collision, the TLB
version of Bernstein's Attack) is untouched -- partitioning cannot help
against contention among the victim's own pages, which is why the SP TLB
stops at 14 of the 24 rows (Section 5.3.1).

The partition split is configured at construction (the paper's default
gives the victim 50% of the ways).
"""

from __future__ import annotations

from typing import List

from .base import AccessResult, BaseTLB, Translator
from .config import TLBConfig
from .entry import TLBEntry


class StaticPartitionTLB(BaseTLB):
    """SA TLB with way-partitioning between victim and attacker processes."""

    def __init__(
        self,
        config: TLBConfig,
        victim_asid: int = 1,
        victim_ways: int | None = None,
        name: str = "sp-tlb",
    ) -> None:
        super().__init__(config, name)
        if victim_ways is None:
            victim_ways = max(config.ways // 2, 1)
        if not 0 < victim_ways < config.ways:
            raise ValueError(
                "the victim partition must hold between 1 and ways-1 ways "
                f"(got {victim_ways} of {config.ways}); a 0- or full-way "
                "partition would starve one side entirely"
            )
        self.victim_asid = victim_asid
        self.victim_ways = victim_ways

    def is_victim(self, asid: int) -> bool:
        return asid == self.victim_asid

    def _partition(self, vpn: int, asid: int, level: int = 0) -> List[TLBEntry]:
        """The ways of ``vpn``'s set that ``asid`` is allowed to fill."""
        tlb_set = self._set_for(vpn, level)
        if self.is_victim(asid):
            return tlb_set[: self.victim_ways]
        return tlb_set[self.victim_ways :]

    def _handle_miss(
        self, vpn: int, asid: int, translator: Translator
    ) -> AccessResult:
        walk = translator.walk(vpn, asid)
        victim = self._policy.select(self._partition(vpn, asid, walk.level))
        evicted = self._fill_entry(
            victim, vpn, walk.ppn, asid, level=walk.level
        )
        return AccessResult(
            hit=False,
            ppn=walk.ppn,
            cycles=self.config.hit_latency + walk.cycles,
            evicted=evicted,
            filled=True,
        )
