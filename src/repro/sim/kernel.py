"""The allocation-free fast-path translation kernel.

The reference model pays, per translation, one frozen ``AccessResult``,
one ``WalkResult`` per walk, and (when traced) an event object -- fine for
correctness, ruinous for the millions of accesses behind Figure 7 and the
attack suites.  Following the specialisation idea of "Fast TLB Simulation
for RISC-V Systems" (Guo, 2019), the kernel keeps the *reference model as
the specification* and adds a differentially-verified fast path:

* ``MemorySystem.translate_fast(vpn, asid)`` returns one packed int --
  ``cycles << 2 | hit << 1 | filled`` -- instead of an ``AccessResult``,
  backed by ``BaseTLB.translate_fast`` (dict-indexed lookup, no result
  object) and the walker's walk memo.  With an active event bus it falls
  back to the reference path, so observability is never silently lost.
* :class:`CompiledTrace` materialises a workload's ``(gap, vpn)`` event
  stream into flat ``array('q')`` columns, chunk by chunk (streams may be
  infinite), so the timing model's quantum loop runs over array slices
  instead of generator frames and tuples, translating each quantum with
  one batched ``BaseTLB.translate_slice`` call (the access kernel, the
  only fast tier).

Equivalence is enforced three ways: by construction (both paths share the
TLB state machine, statistics and cycle model -- the fast path only skips
result/event *object construction*), by the differential suite
(``tests/sim/test_fastpath_equivalence.py``), and continuously by
``python -m repro bench`` which refuses to report a speedup whose counters
diverge.  See ``docs/performance.md``.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Tuple

#: Bit layout of a packed translation result.
HIT_BIT = 0b10
FILL_BIT = 0b01
CYCLE_SHIFT = 2

#: Inert, read only by the perfbench benchmark, which prints it in its
#: environment line; this module has no structure pre-pass.  Drop it
#: with the next benchmark change.
STRUCTURE_BACKEND = "none"

#: Events materialised per :meth:`CompiledTrace.extend` pull.  Large enough
#: to amortise the generator resumption, small enough that infinite SPEC
#: streams never over-materialise past the instruction budget.
CHUNK = 4096


def pack_result(cycles: int, hit: bool, filled: bool) -> int:
    """Pack a translation outcome into one int."""
    return (cycles << CYCLE_SHIFT) | (HIT_BIT if hit else 0) | (
        FILL_BIT if filled else 0
    )


def packed_cycles(packed: int) -> int:
    return packed >> CYCLE_SHIFT


def packed_hit(packed: int) -> bool:
    return bool(packed & HIT_BIT)


def packed_filled(packed: int) -> bool:
    return bool(packed & FILL_BIT)


class CompiledTrace:
    """A workload event stream compiled to flat columnar arrays.

    ``gaps[i]`` / ``vpns[i]`` are the i-th event's compute gap and page;
    ``cum[i]`` is the cumulative instruction cost ``sum(gaps[:i+1]) +
    (i+1)`` (each event costs its gap plus the access itself), which lets
    the quantum driver find a whole quantum's slice boundary with one
    binary search instead of per-event budget arithmetic.

    Materialisation is lazy and chunked: :meth:`ensure` pulls from the
    source generator only when the caller's cursor outruns what has been
    compiled, so infinite streams (SPEC profiles run under an instruction
    budget) compile exactly as far as the run consumes them.  The arrays
    only ever grow in place -- callers may cache references to them.
    """

    __slots__ = ("gaps", "vpns", "cum", "exhausted", "_source")

    def __init__(self, events: Iterable[Tuple[int, int]]) -> None:
        self.gaps = array("q")
        self.vpns = array("q")
        self.cum = array("q")
        self.exhausted = False
        self._source: Iterator[Tuple[int, int]] = iter(events)

    def __len__(self) -> int:
        return len(self.gaps)

    def ensure(self, upto: int) -> int:
        """Compile until at least ``upto`` events exist (or the stream
        ends); returns the number of events available.

        A source generator that *raises* mid-chunk leaves the columns
        consistent (each event's three appends complete before the next
        pull) and marks the trace exhausted, so the exception surfaces
        exactly once: later ``ensure`` calls return the compiled prefix
        quietly instead of re-poking a broken generator.
        """
        gaps_append = self.gaps.append
        vpns_append = self.vpns.append
        cum_append = self.cum.append
        source = self._source
        total = self.cum[-1] if self.cum else 0
        while not self.exhausted and len(self.gaps) < upto:
            pulled = 0
            try:
                for gap, vpn in source:
                    gaps_append(gap)
                    vpns_append(vpn)
                    total += gap + 1
                    cum_append(total)
                    pulled += 1
                    if pulled >= CHUNK:
                        break
            except BaseException:
                self.exhausted = True
                raise
            if pulled < CHUNK:
                self.exhausted = True
        return len(self.gaps)

    # -- inert, read only by the perfbench benchmark ------------------------
    # perfbench/spans.py wraps these two by name from the class dict.
    # Nothing in repro calls them; drop them with the next benchmark
    # change.

    def ensure_structure(self, upto: int) -> int:
        return 0

    def reuse_oracle(self, nsets: int, ways: int, upto: int) -> None:
        return None


def supports_fastpath(tlb: object) -> bool:
    """Whether a TLB-like object implements the packed fast path.

    True for every :class:`repro.tlb.BaseTLB` design and any
    :class:`repro.tlb.TLBHierarchy` depth (each level keeps its own fast
    lookup index; only the outermost hit path is exercised per access);
    duck-typed so externally-composed stand-ins simply fall back to the
    reference path instead of breaking.
    """
    return hasattr(tlb, "translate_fast")
