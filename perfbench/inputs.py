"""Seeded inputs for each workload.

Each function turns ``--seed`` into the cells (as runner filter globs) or
service jobs a workload runs.  The program only ever sees these inputs.
Draws are stratified, so every seed asks for about the same amount of
each kind of work and run-to-run spread comes from the host, not from the
draw.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

DESIGNS = ("SA", "SP", "RF")
COLUMN = "4W 32"


def _configs(design: str) -> Sequence[str]:
    from repro.perf.configs import labels_for
    from repro.security import TLBKind

    return labels_for(TLBKind(design))


def _spec_scenarios() -> List[str]:
    from repro.perf import all_scenarios

    return [s.label for s in all_scenarios() if s.spec is not None]


def _spec_benchmarks() -> List[str]:
    return sorted({label.split("+")[1] for label in _spec_scenarios()})


def _fig7_ident(design: str, config: str, scenario: str) -> str:
    return f"fig7/grid/{design}/{config}/{scenario}/50"


def _table2_rows() -> List[str]:
    from repro.model.table2 import table2_vulnerabilities

    return [v.pretty() for v in table2_vulnerabilities()]


def fig7_slice(seed: int) -> List[str]:
    """The 4W-32 column (30 cells) plus four drawn cells, one per SPEC
    benchmark.

    The seed deals the designs to the benchmarks (each design at least
    once) and picks each cell's configuration among its design's other
    ones, never the one-entry TLB (twice the cost of any other), and its
    plain or secured RSA.  Every benchmark is drawn once, so every seed
    asks for the same trace lengths.
    """
    rng = random.Random(f"fig7-slice/{seed}")
    filters = [f"fig7/grid/*/{COLUMN}/*"]
    designs = list(DESIGNS)
    rng.shuffle(designs)
    for index, benchmark in enumerate(_spec_benchmarks()):
        design = designs[index % len(designs)]
        config = rng.choice([c for c in _configs(design) if c not in (COLUMN, "1E")])
        rsa = rng.choice(["RSA", "SecRSA"])
        filters.append(_fig7_ident(design, config, f"{rsa}+{benchmark}"))
    return filters


def security_slice(seed: int) -> List[str]:
    """The whole Table 4 experiment.  It is fixed: the seed does not
    change it, so its artifacts can be compared byte for byte."""
    return ["table4"]


def tiny_security() -> List[str]:
    """Two Table 4 cells: the self-check's stand-in for the whole table."""
    rows = _table2_rows()
    return [f"table4/SA/{rows[0]}", f"table4/RF/{rows[1]}"]


def runall_pool(seed: int) -> List[str]:
    """A mix of Figure 7 and Table 4 cells for the process pool.

    * 8 Figure 7 cells: each SPEC benchmark twice, the designs dealt
      round-robin from a seeded order, each cell on a seeded configuration
      (never the one-entry TLB, twice the cost of any other) with plain or
      secured RSA;
    * 16 Table 4 cells: eight fast-observation and eight slow-observation
      rows drawn by the seed, the designs dealt within each class.
    """
    rng = random.Random(f"runall-pool/{seed}")
    filters: List[str] = []
    order = list(DESIGNS)
    rng.shuffle(order)
    benchmarks = _spec_benchmarks()
    for index in range(2 * len(benchmarks)):
        design = order[index % len(order)]
        config = rng.choice([c for c in _configs(design) if c != "1E"])
        scenario = f"{rng.choice(['RSA', 'SecRSA'])}+{benchmarks[index % len(benchmarks)]}"
        filters.append(_fig7_ident(design, config, scenario))
    # A "(slow)" row costs two to four times a "(fast)" one: draw as many
    # of each class.
    for observation in ("fast", "slow"):
        rows = rng.sample(
            [row for row in _table2_rows() if row.endswith(f"({observation})")], 8
        )
        filters.extend(
            f"table4/{order[index % len(order)]}/{row}" for index, row in enumerate(rows)
        )
    return filters


def serve_tasks(seed: int, clients: int, per_client: int) -> List[List[Dict[str, str]]]:
    """Novel single-cell jobs for each client of ``serve-mixed``.

    The cells are the same for every seed; the seed orders the Table 4
    slots, the same way for every client.  One draw of cells cost up to
    10% more than another, which would swamp the spread the host leaves,
    and the server's peak memory depends on the order in which it meets
    the Figure 7 traces (76-80 MB for one order, 80-85 MB for another), so
    the Figure 7 slots keep a fixed order.

    Every client's list alternates Table 4 and Figure 7 cells, with the
    same design and the same fast or slow Table 4 row class in each slot,
    so the clients' Figure 7 cells run side by side: the server's peak
    memory is then set by the same pairs of traces in every seed rather
    than by which cells happen to overlap.  The Table 4 slots alternate
    between fast- and slow-observation rows (the latter cost two to four
    times more), the SPEC benchmarks are dealt in turn, and no cell uses
    the one-entry TLB (twice the cost of any other).  No cell is given to
    two clients, so a novel job is never answered from another client's
    work.
    """
    cells = random.Random("serve-mixed")
    rows = _table2_rows()
    benchmarks = _spec_benchmarks()
    dealt = 0
    taken: set = set()
    plan: List[List[Dict[str, str]]] = []
    for _client in range(clients):
        tasks = []
        for index in range(per_client):
            design = DESIGNS[(index // 2) % len(DESIGNS)]
            if index % 2 == 0:
                observation = ("fast", "slow")[(index // 2) % 2]
                candidates = [
                    f"table4/{design}/{row}" for row in rows
                    if row.endswith(f"({observation})")
                ]
            else:
                benchmark = benchmarks[dealt % len(benchmarks)]
                dealt += 1
                candidates = [
                    _fig7_ident(design, config, f"{rsa}+{benchmark}")
                    for config in _configs(design) if config != "1E"
                    for rsa in ("RSA", "SecRSA")
                ]
            ident = cells.choice([c for c in candidates if c not in taken])
            taken.add(ident)
            tasks.append({"experiment": ident.split("/", 1)[0], "ident": ident})
        plan.append(tasks)
    # Shuffle the Table 4 slots among themselves: the lists keep
    # alternating.
    order = list(range(per_client))
    table4_slots = order[0::2]
    random.Random(f"serve-mixed/{seed}").shuffle(table4_slots)
    order[0::2] = table4_slots
    return [[tasks[slot] for slot in order] for tasks in plan]
