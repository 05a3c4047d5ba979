"""The bench artifact's headline history (repro.perf.bench)."""

from __future__ import annotations

import json
from pathlib import Path

from repro.perf.bench import history_entry, with_history

REPO_ROOT = Path(__file__).resolve().parents[2]


def _report(geomean=4.0, quick=True, events=2000):
    return {
        "quick": quick,
        "events": events,
        "counters_verified": True,
        "headline": {
            "geomean_speedup": geomean,
            "floor": 3.0,
            "meets_floor": geomean >= 3.0,
            "per_design": {"SA": geomean},
        },
    }


class TestHistoryEntry:
    def test_entry_is_a_compact_headline_summary(self):
        entry = history_entry(_report(geomean=3.5))
        assert entry == {
            "geomean_speedup": 3.5,
            "per_design": {"SA": 3.5},
            "meets_floor": True,
            "quick": True,
            "events": 2000,
            "counters_verified": True,
        }


class TestWithHistory:
    def test_first_write_starts_the_history(self):
        report = with_history(_report(), previous=None)
        assert len(report["history"]) == 1
        assert report["history"][0]["geomean_speedup"] == 4.0

    def test_previous_history_is_carried_forward(self):
        first = with_history(_report(geomean=3.69), previous=None)
        second = with_history(_report(geomean=4.2), previous=first)
        assert [e["geomean_speedup"] for e in second["history"]] == [
            3.69, 4.2,
        ]

    def test_malformed_previous_artifacts_are_tolerated(self):
        report = with_history(_report(), previous={"history": "corrupt"})
        assert len(report["history"]) == 1
        report = with_history(_report(), previous={"no": "history"})
        assert len(report["history"]) == 1


class TestCommittedArtifact:
    def test_first_entry_is_the_landed_full_size_headline(self):
        data = json.loads((REPO_ROOT / "BENCH_fastpath.json").read_text())
        history = data["history"]
        assert history, "committed artifact must seed the history"
        first = history[0]
        assert first["quick"] is False
        assert first["counters_verified"] is True
        assert first["meets_floor"] is True
        assert 3.6 < first["geomean_speedup"] < 3.8
        # Later entries append behind it; the newest one is the current
        # headline.
        last = history[-1]
        assert last["geomean_speedup"] == (
            data["headline"]["geomean_speedup"]
        )
