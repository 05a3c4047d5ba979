"""Observers over the event bus.

* :class:`TraceObserver` -- serializes every bus event as one JSONL record
  (``python -m repro trace`` builds on it).
* :class:`StatsObserver` -- cheap aggregate counters (per event type and
  per ASID) replacing the ad-hoc tallies the drive loops used to keep.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import IO, Any, Dict, Union

from repro.persist import JsonlWriter

from .events import (
    AccessEvent,
    ContextSwitchEvent,
    EVENT_NAMES,
    EventBus,
    EvictEvent,
    FillEvent,
    FlushEvent,
    RefillEvent,
    WalkEvent,
)


class TraceObserver:
    """Dump every bus event as one JSONL record.

    Each record carries the event name, a monotonically increasing ``seq``
    number, and the event's own fields, e.g.::

        {"event": "access", "seq": 3, "vpn": 257, "asid": 1, "hit": false,
         "ppn": 257, "cycles": 31, "filled": true}
    """

    def __init__(self, target: Union[str, Path, IO[str]]) -> None:
        self._writer = JsonlWriter(target)
        self.seq = 0

    def subscribe(self, bus: EventBus) -> "TraceObserver":
        for event_type in EVENT_NAMES:
            bus.subscribe(event_type, self._record)
        return self

    def _record(self, event: object) -> None:
        record: Dict[str, Any] = {
            "event": EVENT_NAMES[type(event)],
            "seq": self.seq,
        }
        record.update(asdict(event))
        self._writer.write(record)
        self.seq += 1

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "TraceObserver":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


@dataclass
class AsidCounters:
    """Per-address-space access tallies."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    cycles: int = 0


@dataclass
class StatsObserver:
    """Aggregate counters over the event stream.

    Subscribing costs one handler per event type; when detached the
    :class:`repro.sim.MemorySystem` hot path never constructs an event, so
    the observer is pay-for-use.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    cycles: int = 0
    walks: int = 0
    walk_cycles: int = 0
    fills: int = 0
    #: Misses served from a lower hierarchy level (no page-table walk);
    #: always zero for single-level TLBs.
    refills: int = 0
    evictions: int = 0
    flushes: int = 0
    context_switches: int = 0
    by_asid: Dict[int, AsidCounters] = field(default_factory=dict)

    def subscribe(self, bus: EventBus) -> "StatsObserver":
        bus.on_access(self._on_access)
        bus.on_walk(self._on_walk)
        bus.on_fill(self._on_fill)
        bus.on_refill(self._on_refill)
        bus.on_evict(self._on_evict)
        bus.on_flush(self._on_flush)
        bus.on_context_switch(self._on_context_switch)
        return self

    def _on_access(self, event: AccessEvent) -> None:
        self.accesses += 1
        self.cycles += event.cycles
        per_asid = self.by_asid.get(event.asid)
        if per_asid is None:
            per_asid = self.by_asid[event.asid] = AsidCounters()
        per_asid.accesses += 1
        per_asid.cycles += event.cycles
        if event.hit:
            self.hits += 1
            per_asid.hits += 1
        else:
            self.misses += 1
            per_asid.misses += 1

    def _on_walk(self, event: WalkEvent) -> None:
        self.walks += 1
        self.walk_cycles += event.cycles

    def _on_fill(self, _event: FillEvent) -> None:
        self.fills += 1

    def _on_refill(self, _event: RefillEvent) -> None:
        self.refills += 1

    def _on_evict(self, _event: EvictEvent) -> None:
        self.evictions += 1

    def _on_flush(self, _event: FlushEvent) -> None:
        self.flushes += 1

    def _on_context_switch(self, _event: ContextSwitchEvent) -> None:
        self.context_switches += 1

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def summary(self) -> Dict[str, Any]:
        """A plain-dict rollup (used by the trace CLI's footer)."""
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "cycles": self.cycles,
            "walks": self.walks,
            "fills": self.fills,
            "refills": self.refills,
            "evictions": self.evictions,
            "flushes": self.flushes,
            "context_switches": self.context_switches,
            "asids": sorted(self.by_asid),
        }
