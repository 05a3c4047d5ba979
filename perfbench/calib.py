"""A speedometer for the host: a fixed pure-Python loop timed on each CPU
while a round runs.

The host is a shared machine whose CPUs run slower and faster by up to
1.75x, in phases that last from about a second to tens of seconds and
that differ between its two CPUs.  Timing a round's wall alone therefore
measures the host as much as the program.  While a round runs, a sampler
process times a short loop every :data:`PERIOD_S` seconds on each CPU the
round may use, by thread CPU time, so a sample is the speed of that CPU
at that moment, whether or not it had to share the CPU.  Dividing the
round's wall by the mean sample in its window gives a figure that moves
far less with the host.  The loop uses nothing from the program, so no
change to the program can move it.  It takes about 6% of each sampled CPU,
the same in every round.

Usage as a process (what :class:`Speedometer` starts)::

    python3 calib.py CPU [CPU ...]

samples until its standard input is closed, then prints the samples as
one JSON list of ``[monotonic start, loop CPU seconds, CPU]``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from array import array
from typing import List, Optional, Sequence, Tuple

#: Seconds between two samples on one CPU.
PERIOD_S = 0.25
#: Loop steps per sample (about 15 ms).
STEPS = 30_000
#: A sample's typical CPU time on the host the bounds were set on (2 vCPUs,
#: Python 3.11).  Set-up times are reported scaled to this speed.
REFERENCE_S = 0.015
_ENTRIES = 1 << 19


def _loop(table: array, steps: int = STEPS) -> int:
    """A 4 MiB array and a 64 Ki-entry dict: a working set larger than a
    core's private caches, as the simulator's is."""
    mask = len(table) - 1
    seen: dict = {}
    index = 1
    acc = 0
    for _ in range(steps):
        index = (index * 1103515245 + 12345) & mask
        acc = (acc + table[index]) & 0xFFFFFFF
        seen[index & 0xFFFF] = acc
    return acc


def _sample_cpu(cpu: int, stop: threading.Event, samples: List[Tuple[float, float, int]]) -> None:
    os.sched_setaffinity(0, {cpu})
    table = array("q", range(_ENTRIES))
    while not stop.is_set():
        start = time.monotonic()
        cpu_start = time.thread_time()
        _loop(table)
        samples.append((start, time.thread_time() - cpu_start, cpu))
        stop.wait(PERIOD_S)


def main(cpus: Sequence[int]) -> int:
    stop = threading.Event()
    samples: List[Tuple[float, float, int]] = []
    threads = [
        threading.Thread(target=_sample_cpu, args=(cpu, stop, samples)) for cpu in cpus
    ]
    for thread in threads:
        thread.start()
    sys.stdin.read()
    stop.set()
    for thread in threads:
        thread.join()
    print(json.dumps(sorted(samples)), flush=True)
    return 0


class Speedometer:
    """Samples the given CPUs while the ``with`` block runs."""

    def __init__(self, cpus: Sequence[int]) -> None:
        self.cpus = list(cpus)
        self.samples: List[Tuple[float, float, int]] = []

    def __enter__(self) -> "Speedometer":
        self._process = subprocess.Popen(
            [sys.executable, __file__, *map(str, self.cpus)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self._process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
            raise RuntimeError("the speedometer did not stop")
        self.samples = [tuple(sample) for sample in json.loads(out)]

    def speed(self, lo: float, hi: float, cpus: Optional[Sequence[int]] = None) -> float:
        """Mean loop time of the samples taken on ``cpus`` (default: all
        sampled) that started in [lo, hi], or of the one nearest to that
        window when none started inside it."""
        mine = [s for s in self.samples if cpus is None or s[2] in cpus]
        inside = [seconds for start, seconds, _cpu in mine if lo <= start <= hi]
        if inside:
            return statistics.fmean(inside)
        middle = (lo + hi) / 2
        return min(mine, key=lambda sample: abs(sample[0] - middle))[1]


def all_cpus() -> List[int]:
    return sorted(os.sched_getaffinity(0))


def serial_cpu() -> List[int]:
    """The one CPU that serial work (a set-up, a serial round, the server)
    is pinned to and sampled on."""
    return all_cpus()[-1:]


if __name__ == "__main__":
    sys.exit(main([int(cpu) for cpu in sys.argv[1:]]))
