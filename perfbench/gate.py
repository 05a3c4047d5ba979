"""Correctness gate: every computed result against the committed ``results/``.

* A Figure 7 cell must match its ``results/fig7_full.csv`` rows:
  instructions, cycles, memory accesses and misses of every process.
* A Table 4 cell must match its ``results/table4_full.csv`` row: the
  mapped and unmapped miss counts and the trial count.
* Artifacts a run writes whole (``table4_full.txt`` / ``.csv``) must be
  byte-identical to the committed files.

Values arrive either as the runner's objects (batch runs) or as the JSON a
served result document carries; both shapes are read.  Every check returns
a list of mismatch descriptions, empty when the result is correct.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Dict, List, Tuple

COUNTERS = ("instructions", "cycles", "memory_accesses", "misses")


class Reference:
    """The committed per-cell results, keyed by runner cell identity."""

    def __init__(self, results_dir: Path) -> None:
        self.results_dir = Path(results_dir)
        self.fig7: Dict[str, Dict[str, Tuple[int, ...]]] = {}
        with open(self.results_dir / "fig7_full.csv", newline="") as handle:
            for row in csv.DictReader(handle):
                ident = (
                    f"fig7/grid/{row['tlb']}/{row['config']}/"
                    f"{row['scenario']}/{row['rsa_runs']}"
                )
                self.fig7.setdefault(ident, {})[row["process"]] = tuple(
                    int(row[name]) for name in COUNTERS
                )
        self.table4: Dict[str, Tuple[int, int, int]] = {}
        with open(self.results_dir / "table4_full.csv", newline="") as handle:
            for row in csv.DictReader(handle):
                ident = (
                    f"table4/{row['tlb']}/{row['vulnerability']}"
                    f" ({row['observation']})"
                )
                self.table4[ident] = (
                    int(row["n_mm"]),
                    int(row["n_nm"]),
                    int(row["trials"]),
                )

    def check_cell(self, ident: str, value: Any) -> List[str]:
        """Compare one cell's value with its committed row(s)."""
        if ident in self.fig7:
            return self._check_fig7(ident, value)
        if ident in self.table4:
            return self._check_table4(ident, value)
        return [f"{ident}: no committed reference for this cell"]

    def _check_fig7(self, ident: str, value: Any) -> List[str]:
        results = _field(value, "results")
        expected = self.fig7[ident]
        got = {
            name: tuple(int(_field(result, counter)) for counter in COUNTERS)
            for name, result in results.items()
        }
        if got == expected:
            return []
        return [f"{ident}: counters {got} != committed {expected}"]

    def _check_table4(self, ident: str, value: Any) -> List[str]:
        estimate = _field(value, "estimate")
        got = (
            int(_field(estimate, "misses_mapped")),
            int(_field(estimate, "misses_unmapped")),
            int(_field(estimate, "trials_per_behaviour")),
        )
        expected = self.table4[ident]
        if got == expected:
            return []
        return [f"{ident}: (n_mm, n_nm, trials) {got} != committed {expected}"]

    def check_artifacts(self, produced_dir: Path, names: List[str]) -> List[str]:
        """Byte-compare produced artifact files with the committed ones."""
        problems = []
        for name in names:
            produced = Path(produced_dir) / name
            if not produced.is_file():
                problems.append(f"{name}: not written")
            elif produced.read_bytes() != (self.results_dir / name).read_bytes():
                problems.append(f"{name}: differs from results/{name}")
        return problems


def _field(value: Any, name: str) -> Any:
    """Read a field from a runner object or from its served JSON form."""
    if isinstance(value, dict):
        return value[name]
    return getattr(value, name)
