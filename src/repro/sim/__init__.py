"""The shared simulation core: one translation path for every experiment.

The paper's Section 4 flow charts describe a single state machine -- a TLB
driven by translate / flush / context-switch events -- yet a reproduction
naturally grows one hand-rolled drive loop per experiment (the CPU, the
trace-driven timing model, each end-to-end attack, the security harness).
:mod:`repro.sim` extracts that state machine once:

* :class:`MemorySystem` -- the facade owning the TLB (or hierarchy), the
  page-table walker, the context-switch policy and cycle accounting.  Every
  drive loop in the repository performs its translations through it.
* :class:`EventBus` -- a typed publish/subscribe bus carrying the seven
  architectural events (``access``, ``fill``, ``refill``, ``evict``,
  ``flush``, ``walk``, ``context_switch``) out of the translation path.
  Hierarchies tag fills/evicts with their level and announce inter-level
  movement as ``refill`` events.
* Observers -- :class:`TraceObserver` dumps the event stream as JSONL
  (``python -m repro trace <scenario>``); :class:`StatsObserver` keeps
  cheap aggregate counters without touching the hot path when detached.
* :class:`SetProber` -- the shared prime / probe-and-classify helper the
  attack modules previously re-implemented individually.
* :mod:`repro.sim.kernel` -- the allocation-free fast-path translation
  kernel (packed-int results, compiled traces) behind
  :meth:`MemorySystem.translate_fast`; differentially verified against
  the reference path (``docs/performance.md``).

See ``docs/architecture.md`` for the observer API and event schema.
"""

from .events import (
    AccessEvent,
    ContextSwitchEvent,
    EventBus,
    EvictEvent,
    FillEvent,
    FlushEvent,
    RefillEvent,
    WalkEvent,
)
from .kernel import (
    CompiledTrace,
    pack_result,
    packed_cycles,
    packed_filled,
    packed_hit,
    supports_fastpath,
)
from repro.persist import JsonlWriter, TornRecordError, read_jsonl

from .observers import StatsObserver, TraceObserver
from .probe import ProbeOutcome, SetProber, pages_for_set
from .system import MemorySystem
from .trace import SCENARIOS, TraceReport, read_trace, run_scenario

__all__ = [
    "SCENARIOS",
    "TraceReport",
    "AccessEvent",
    "CompiledTrace",
    "ContextSwitchEvent",
    "EventBus",
    "EvictEvent",
    "FillEvent",
    "FlushEvent",
    "JsonlWriter",
    "MemorySystem",
    "ProbeOutcome",
    "RefillEvent",
    "SetProber",
    "StatsObserver",
    "TornRecordError",
    "TraceObserver",
    "WalkEvent",
    "pack_result",
    "packed_cycles",
    "packed_filled",
    "packed_hit",
    "pages_for_set",
    "read_jsonl",
    "read_trace",
    "run_scenario",
    "supports_fastpath",
]
