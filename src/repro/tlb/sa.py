"""The standard set-associative TLB (the paper's baseline).

Covers every "Standard TLB" organization of the evaluation: set-associative
(``2W``/``4W``), fully associative (``FA``, one set) and the single-entry
``1E`` configuration, depending only on :class:`repro.tlb.TLBConfig`.

On a miss the requested translation is walked and filled into the victim
way chosen by the replacement policy over the *whole* set -- any process can
evict any other process's entries, which is precisely what the external
miss-based attack rows (TLB Prime + Probe, TLB Evict + Time) exploit.  Hits
require matching ASID, which is what defends the cross-process hit-based
rows (TLB Flush + Reload).
"""

from __future__ import annotations

from .base import AccessResult, BaseTLB, Translator


class SetAssociativeTLB(BaseTLB):
    """Standard SA/FA TLB with ASID tags and per-set replacement."""

    def _handle_miss(
        self, vpn: int, asid: int, translator: Translator
    ) -> AccessResult:
        walk = translator.walk(vpn, asid)
        victim = self._policy.select(self._set_for(vpn, walk.level))
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
