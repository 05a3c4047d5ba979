"""Tests for the CSV exporters."""

import csv

import pytest

from repro.perf import PerfSettings, Scenario, run_cell
from repro.perf.export import export_figure7_csv, export_table4_csv
from repro.security import EvaluationConfig, SecurityEvaluator, TLBKind


class TestFigure7Export:
    @pytest.fixture(scope="class")
    def cells(self):
        settings = PerfSettings(spec_instructions=20_000, key_bits=64)
        from repro.workloads.spec import POVRAY

        return [
            run_cell(
                TLBKind.SA,
                "4W 32",
                Scenario(secure=False, spec=POVRAY),
                rsa_runs=3,
                settings=settings,
            )
        ]

    def test_rows_and_header(self, cells, tmp_path):
        path = tmp_path / "fig7.csv"
        rows = export_figure7_csv(cells, path)
        assert rows == 3  # RSA + povray + total
        with path.open() as handle:
            read = list(csv.DictReader(handle))
        assert len(read) == rows
        assert read[0]["tlb"] == "SA"
        assert {"RSA", "povray", "total"} == {row["process"] for row in read}

    def test_numeric_fields_parse(self, cells, tmp_path):
        path = tmp_path / "fig7.csv"
        export_figure7_csv(cells, path)
        with path.open() as handle:
            for row in csv.DictReader(handle):
                assert float(row["ipc"]) > 0
                assert int(row["instructions"]) > 0


class TestTable4Export:
    def test_export_contains_every_row(self, tmp_path):
        evaluator = SecurityEvaluator(EvaluationConfig(trials=5))
        table = {TLBKind.SA: evaluator.evaluate_kind(TLBKind.SA)}
        path = tmp_path / "table4.csv"
        rows = export_table4_csv(table, path)
        assert rows == 24
        with path.open() as handle:
            read = list(csv.DictReader(handle))
        assert len(read) == 24
        defended = sum(int(row["defended"]) for row in read)
        assert defended == 10

    def test_extended_rows_have_empty_theory_fields(self, tmp_path):
        evaluator = SecurityEvaluator(EvaluationConfig(trials=3))
        table = {TLBKind.SA: evaluator.evaluate_extended(TLBKind.SA)[:4]}
        path = tmp_path / "ext.csv"
        export_table4_csv(table, path)
        with path.open() as handle:
            for row in csv.DictReader(handle):
                assert row["capacity_theory"] == ""


class TestWholeOrNothing:
    def test_failed_render_keeps_the_previous_file(self, tmp_path):
        evaluator = SecurityEvaluator(EvaluationConfig(trials=2))
        results = evaluator.evaluate_kind(TLBKind.SA)[:2]
        path = tmp_path / "table4.csv"
        export_table4_csv({TLBKind.SA: results}, path)
        previous = path.read_bytes()

        class Unrenderable:
            vulnerability = results[0].vulnerability

            @property
            def estimate(self):
                raise RuntimeError("render failed mid-table")

        with pytest.raises(RuntimeError, match="mid-table"):
            export_table4_csv(
                {TLBKind.SA: [results[1], results[0], Unrenderable()]}, path
            )
        assert path.read_bytes() == previous
        assert [entry.name for entry in tmp_path.iterdir()] == ["table4.csv"]
