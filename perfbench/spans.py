"""Span recorder and the wrappers that time the program's layers from outside.

Nothing under ``src/`` knows about this module.  :func:`install` replaces a
fixed list of public functions and methods with thin wrappers that open a
span on entry and close it on exit.  Every span has a name, a start, an end
and a parent (the span open on the same thread when it started).  A span's
*self time* is its duration minus the time its child spans cover.

Two kinds of span are kept:

* coarse spans (the runner's cells, cache reads and writes, log appends,
  the root ``run_all``) are stored one by one in memory and written out as
  JSON lines when the run ends;
* hot spans (TLB translations, page walks, trial setup, trace compiles)
  fire up to millions of times, so only their per-name totals are kept:
  calls, total time and self time.

Workload event generators are timed in blocks of :data:`BLOCK` events, never
per event: a per-event wrapper would add a Python call to each of millions
of events.
The same wrapper keys each ``events()`` call by workload type, workload
parameters and the random generator's state at the call, so it can count
how many generated events repeat a stream generated earlier in the run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: Events per timed generator block.  Equal to the trace compiler's chunk,
#: so block boundaries line up with its pulls and nothing extra is drawn.
BLOCK = 4096

#: Span names stored individually (everything else is aggregated only).
COARSE = frozenset(
    {
        "run_all",
        "runner.expand",
        "runner.cache_get",
        "runner.cache_put",
        "runner.cell",
        "runner.log",
        "runner.artifacts",
    }
)


class _Frame:
    __slots__ = ("ident", "name", "start", "child")

    def __init__(self, ident: int, name: str, start: float) -> None:
        self.ident = ident
        self.name = name
        self.start = start
        self.child = 0.0


class _ThreadState:
    __slots__ = ("stack", "totals", "counts", "spans")

    def __init__(self) -> None:
        self.stack: List[_Frame] = []
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        #: (id, parent id, name, start, end, thread id)
        self.spans: List[tuple] = []


def _add_total(state: _ThreadState, name: str, duration: float, self_time: float) -> None:
    total = state.totals.get(name)
    if total is None:
        total = state.totals[name] = [0, 0.0, 0.0]
    total[0] += 1
    total[1] += duration
    total[2] += self_time


class Recorder:
    """In-memory spans and counters, one stack per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._seen_streams: set = set()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> Optional[_Frame]:
        """Open a span; None when the same name is already innermost (a
        subclass method calling its base: one span, not two)."""
        stack = self._state().stack
        if stack and stack[-1].name == name:
            return None
        frame = _Frame(next(self._ids), name, perf_counter())
        stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> None:
        end = perf_counter()
        state = self._state()
        stack = state.stack
        stack.pop()
        duration = end - frame.start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += duration
        _add_total(state, frame.name, duration, duration - frame.child)
        if frame.name in COARSE:
            state.spans.append(
                (
                    frame.ident,
                    parent.ident if parent is not None else None,
                    frame.name,
                    frame.start,
                    end,
                    threading.get_ident(),
                )
            )

    def record_leaf(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller (a generator block)."""
        state = self._state()
        duration = end - start
        if state.stack:
            state.stack[-1].child += duration
        _add_total(state, name, duration, duration)

    def count(self, name: str, amount: int = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + amount

    def first_stream(self, key: tuple) -> bool:
        """True the first time a stream identity is generated in this run."""
        with self._lock:
            if key in self._seen_streams:
                return False
            self._seen_streams.add(key)
            return True

    # -- results --------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        merged: Dict[str, Dict[str, float]] = {}
        for state in list(self._states):
            for name, (calls, total, self_time) in state.totals.items():
                entry = merged.setdefault(
                    name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                )
                entry["calls"] += calls
                entry["total_s"] += total
                entry["self_s"] += self_time
        return merged

    def counts(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for state in list(self._states):
            for name, value in state.counts.items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def spans(self) -> List[tuple]:
        spans: List[tuple] = []
        for state in list(self._states):
            spans.extend(state.spans)
        spans.sort(key=lambda span: span[3])
        return spans

    def dump(self, path: str) -> None:
        """Write stored spans as JSON lines, then one totals record."""
        with open(path, "w") as handle:
            for ident, parent, name, start, end, thread in self.spans():
                handle.write(
                    json.dumps(
                        {
                            "id": ident,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )
            handle.write(
                json.dumps({"totals": self.totals(), "counts": self.counts()})
                + "\n"
            )


# -- wrappers -------------------------------------------------------------------


def _wrap(
    recorder: Recorder,
    owner: Any,
    attr: str,
    name: str,
    after: Optional[Callable[..., None]] = None,
) -> None:
    """Replace ``owner.attr`` with a span-timed wrapper.

    ``after(recorder, args, result)`` runs once the call returned, to
    record counts taken from its arguments or result.
    """
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def wrapper(*args, **kwargs):
        frame = recorder.open(name)
        if frame is None:
            return original(*args, **kwargs)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(frame)
        if after is not None:
            after(recorder, args, result)
        return result

    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", attr)
    setattr(owner, attr, wrapper)


def _wrap_events(recorder: Recorder, cls: type) -> None:
    """Time a workload's ``events(rng)`` generator in blocks."""
    original = cls.__dict__["events"]

    def events(self, rng, *args, **kwargs):
        params = hashlib.sha256(repr(self).encode()).hexdigest()
        key = (type(self).__name__, params, hash(rng.getstate()))
        repeat = not recorder.first_stream(key)
        inner = original(self, rng, *args, **kwargs)

        def blocks():
            while True:
                start = perf_counter()
                block = list(itertools.islice(inner, BLOCK))
                recorder.record_leaf("workloads.gen", start, perf_counter())
                recorder.count("workloads.events", len(block))
                if repeat:
                    recorder.count("workloads.regen_events", len(block))
                if block:
                    yield block
                if len(block) < BLOCK:
                    return

        return itertools.chain.from_iterable(blocks())

    events.__wrapped__ = original
    setattr(cls, "events", events)


def _count_positions(recorder: Recorder, args: tuple, result: Any) -> None:
    # translate_slice(self, vpns, start, stop, ...) and
    # translate_runs(self, trace, start, stop, ...)
    recorder.count("tlb.accesses", args[3] - args[2])


def _count_one(counter: str) -> Callable[[Recorder, tuple, Any], None]:
    def after(recorder: Recorder, args: tuple, result: Any) -> None:
        recorder.count(counter)

    return after


def _count_instret(recorder: Recorder, args: tuple, result: Any) -> None:
    recorder.count("isa.instret", result.instructions)


def _count_cache_get(recorder: Recorder, args: tuple, result: Any) -> None:
    recorder.count("runner.cache_hits" if result[0] else "runner.cache_misses")


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the benchmark reports on.

    Module-level names are wrapped where they are looked up (the importing
    module's namespace), methods on the class that defines them.
    """
    import repro.perf.harness as harness
    import repro.perf.timing as timing
    import repro.runner.api as api
    import repro.security.evaluate as evaluate
    from repro.isa.cpu import CPU
    from repro.mmu.walker import PageTableWalker
    from repro.runner.cache import ResultCache
    from repro.runner.progress import RunLog
    from repro.runner.scheduler import InProcessExecutor
    from repro.security.evaluate import SecurityEvaluator
    from repro.sim.kernel import CompiledTrace
    from repro.tlb.base import BaseTLB
    from repro.tlb.rf import RandomFillTLB
    from repro.workloads.rsa import RSAWorkload
    from repro.workloads.spec import SpecProfile

    # runner
    _wrap(recorder, api, "expand_units", "runner.expand")
    _wrap(recorder, api, "write_artifacts", "runner.artifacts")
    _wrap(recorder, ResultCache, "get", "runner.cache_get", _count_cache_get)
    _wrap(recorder, ResultCache, "put", "runner.cache_put")
    _wrap(recorder, RunLog, "emit", "runner.log")
    _wrap(recorder, InProcessExecutor, "submit", "runner.cell")

    # perf, workloads, sim
    for module in (harness, timing):
        _wrap(recorder, module, "simulate", "perf.simulate")
    _wrap_events(recorder, SpecProfile)
    _wrap_events(recorder, RSAWorkload)
    _wrap(recorder, CompiledTrace, "ensure", "sim.compile")
    _wrap(recorder, CompiledTrace, "ensure_structure", "sim.structure")
    _wrap(recorder, CompiledTrace, "reuse_oracle", "sim.structure")

    # tlb, mmu
    for cls in (BaseTLB, RandomFillTLB):
        if "translate" in cls.__dict__:
            _wrap(recorder, cls, "translate", "tlb.translate", _count_one("tlb.accesses"))
        for attr in ("translate_slice", "translate_runs"):
            if attr in cls.__dict__:
                _wrap(recorder, cls, attr, "tlb.translate", _count_positions)
    _wrap(recorder, PageTableWalker, "walk", "mmu.walk", _count_one("mmu.walks"))

    # security, isa
    _wrap(recorder, SecurityEvaluator, "run_trial", "security.trial")
    for attr in ("make_tlb", "make_walker", "MemorySystem"):
        _wrap(recorder, evaluate, attr, "security.setup")
    _wrap(recorder, CPU, "__init__", "security.setup")
    _wrap(recorder, CPU, "load", "security.setup")
    _wrap(recorder, evaluate, "generate", "security.benchgen")
    _wrap(recorder, evaluate, "assemble", "security.benchgen")
    _wrap(recorder, CPU, "run", "isa.run", _count_instret)
