"""Self-check of the benchmark at tiny size.

Run from the repository root::

    python3 -m pytest perfbench -q

It drives every workload on a few cells (``run.py --tiny``) with tracing
off and on, and checks the output contract, the correctness gate and the
span accounting.  It measures nothing.
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from gate import Reference  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_what_run_py_reports():
    assert BENCHMARK["paths"] == ["perfbench"]
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_at_tiny_size(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if workload in ("fig7-slice", "security-slice"):
        assert metrics["trace.uncovered_frac"] < 0.25
        assert metrics["tlb.accesses"] > 0 and metrics["mmu.walks"] > 0
    if workload == "fig7-slice":
        assert metrics["workloads.events"] > 0 and metrics["isa.instret"] == 0
    if workload == "security-slice":
        assert metrics["isa.instret"] > 0 and metrics["workloads.events"] == 0
    if workload == "serve-mixed":
        assert metrics["serve.store_hits"] > 0 and metrics["serve.deduped"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "fig7-slice", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- correctness gate -----------------------------------------------------------


def test_gate_accepts_committed_values_and_flags_a_changed_counter():
    reference = Reference(ROOT / "results")
    ident = "fig7/grid/SP/FA 32/SecRSA+omnetpp/50"
    counters = reference.fig7[ident]
    value = {"results": {
        name: dict(zip(("instructions", "cycles", "memory_accesses", "misses"), row))
        for name, row in counters.items()
    }}
    assert reference.check_cell(ident, value) == []
    value["results"]["total"]["misses"] += 1
    assert reference.check_cell(ident, value)


def test_gate_flags_a_changed_table4_count():
    reference = Reference(ROOT / "results")
    ident, (n_mm, n_nm, trials) = next(iter(reference.table4.items()))
    value = {"estimate": {"misses_mapped": n_mm, "misses_unmapped": n_nm,
                          "trials_per_behaviour": trials}}
    assert reference.check_cell(ident, value) == []
    value["estimate"]["misses_unmapped"] = n_nm + 1
    assert reference.check_cell(ident, value)
    assert reference.check_cell("table4/XX/nothing", value)


# -- span accounting --------------------------------------------------------------


def test_self_time_is_span_minus_children():
    recorder = spans.Recorder()
    outer = recorder.open("outer")
    time.sleep(0.01)
    inner = recorder.open("inner")
    time.sleep(0.02)
    recorder.close(inner)
    recorder.close(outer)
    totals = recorder.totals()
    assert totals["outer"]["self_s"] == pytest.approx(
        totals["outer"]["total_s"] - totals["inner"]["total_s"]
    )
    assert totals["inner"]["self_s"] == totals["inner"]["total_s"] >= 0.02


def test_same_name_nested_call_is_one_span():
    class Base:
        def step(self):
            return 1

    class Derived(Base):
        def step(self):
            return super().step() + 1

    recorder = spans.Recorder()
    spans._wrap(recorder, Base, "step", "layer.step", spans._count_one("steps"))
    spans._wrap(recorder, Derived, "step", "layer.step", spans._count_one("steps"))
    assert Derived().step() == 2
    assert recorder.totals()["layer.step"]["calls"] == 1
    assert recorder.counts()["steps"] == 1


def test_cell_time_outside_layer_spans_is_uncovered():
    import child

    recorder = spans.Recorder()
    root = recorder.open("run_all")
    cell = recorder.open("runner.cell")
    time.sleep(0.02)  # no layer span below the cell: a missed wrapper
    layer = recorder.open("perf.simulate")
    time.sleep(0.02)
    recorder.close(layer)
    recorder.close(cell)
    recorder.close(root)
    summary = child.trace_summary(recorder, 0.04)
    share = summary["uncovered_s"] / summary["root_s"]
    assert 0.35 < share < 0.65


def test_speed_is_the_mean_sample_in_the_window_else_the_nearest():
    meter = calib.Speedometer([0, 1])
    meter.samples = [(0.0, 1.0, 0), (1.0, 2.0, 0), (1.5, 6.0, 1), (2.0, 4.0, 0), (9.0, 8.0, 0)]
    assert meter.speed(0.5, 2.5) == pytest.approx(4.0)
    assert meter.speed(0.5, 2.5, cpus=[0]) == pytest.approx(3.0)
    assert meter.speed(6.0, 7.0) == 8.0


def test_generator_blocks_keep_the_stream_and_count_repeats():
    @dataclasses.dataclass(frozen=True)
    class Toy:
        # Stream identity uses repr(), value-based for the dataclass
        # workloads (SpecProfile, RSAWorkload).
        name: str = "toy"

        def events(self, rng):
            for index in range(spans.BLOCK + 10):
                yield rng.randrange(100), index

    plain = list(Toy().events(random.Random(7)))
    recorder = spans.Recorder()
    spans._wrap_events(recorder, Toy)
    assert list(Toy().events(random.Random(7))) == plain
    list(Toy().events(random.Random(7)))
    list(Toy().events(random.Random(8)))
    counts = recorder.counts()
    assert counts["workloads.events"] == 3 * len(plain)
    assert counts["workloads.regen_events"] == len(plain)
    assert recorder.totals()["workloads.gen"]["calls"] == 6
