"""The shared persistence contract: sealed blobs and JSONL journals.

Two properties pin what every caller (result cache, result store, work
board, run logs, jobs journal) relies on:

* a sealed read returns the exact bytes written, or reports the blob
  missing or corrupt -- never other bytes -- whatever one truncation or
  one bit flip did to the file;
* any byte prefix of a journal (a writer killed at any instant) reads
  back as a prefix of the appended records, the torn tail dropped with a
  warning.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.persist import (
    BlobStats,
    CorruptBlob,
    JsonlWriter,
    TornRecordError,
    append_jsonl,
    atomic_write,
    read_jsonl,
    read_sealed,
    rewrite_jsonl,
    write_sealed,
)

#: Bounded and derandomized, so CI runs the same examples every time.
PERSIST_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=12),
)
headers = st.dictionaries(
    st.text(min_size=1, max_size=8).filter(lambda key: key != "sha256"),
    json_scalars,
    max_size=4,
)
records = st.dictionaries(
    st.text(min_size=1, max_size=6),
    st.one_of(json_scalars, st.lists(json_scalars, max_size=3)),
    max_size=4,
)


class TestSealedProperty:
    @PERSIST_SETTINGS
    @given(
        payload=st.binary(max_size=200),
        header=headers,
        position=st.floats(min_value=0.0, max_value=1.0),
        operation=st.sampled_from(["truncate", "flip"]),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_damage_reads_as_exact_bytes_or_corrupt(
        self, payload, header, position, operation, bit
    ):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "blob.sealed"
            write_sealed(path, payload, header)
            raw = bytearray(path.read_bytes())
            offset = min(int(position * len(raw)), len(raw) - 1)
            if operation == "truncate":
                del raw[offset:]
            else:
                raw[offset] ^= 1 << bit
            path.write_bytes(bytes(raw))
            try:
                blob = read_sealed(path)
            except CorruptBlob:
                return
            assert blob is not None
            assert blob.payload == payload


class TestJournalProperty:
    @PERSIST_SETTINGS
    @given(
        appended=st.lists(records, max_size=6),
        position=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_every_prefix_reads_as_a_record_prefix(self, appended, position):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "journal.jsonl"
            for record in appended:
                append_jsonl(path, record)
            raw = path.read_bytes() if appended else b""
            cut = raw[: int(position * len(raw))]
            path.write_bytes(cut)

            whole = cut.count(b"\n")
            tail = cut[cut.rfind(b"\n") + 1:]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = read_jsonl(path)
            assert got == appended[: len(got)]
            assert len(got) in (whole, whole + 1)
            torn = len(got) == whole and tail != b""
            assert bool(caught) == torn
            if torn:
                assert "torn trailing" in str(caught[0].message)


class TestAtomicWrite:
    def test_creates_parents_and_leaves_no_staging(self, tmp_path):
        path = tmp_path / "a" / "b" / "file.txt"
        atomic_write(path, "one\n")
        atomic_write(path, b"two\n")
        assert path.read_bytes() == b"two\n"
        assert [p.name for p in path.parent.iterdir()] == ["file.txt"]


class TestSealed:
    def test_missing_is_none_not_corrupt(self, tmp_path):
        assert read_sealed(tmp_path / "absent.sealed") is None

    def test_header_carries_provenance_and_digest(self, tmp_path):
        path = tmp_path / "x.sealed"
        digest = write_sealed(path, b"payload", {"cell": "c1"})
        blob = read_sealed(path)
        assert blob.payload == b"payload"
        assert blob.header == {"cell": "c1", "sha256": digest}
        assert digest == hashlib.sha256(b"payload").hexdigest()

    def test_a_precomputed_digest_is_recorded_not_recomputed(self, tmp_path):
        # Bytes damaged between the caller's seal and the write must not
        # be re-blessed by the write.
        honest = hashlib.sha256(b"honest").hexdigest()
        path = tmp_path / "x.sealed"
        write_sealed(path, b"tampered", {}, digest=honest)
        with pytest.raises(CorruptBlob, match="does not match"):
            read_sealed(path)

    def test_stats_count_hits_misses_and_corrupt(self, tmp_path):
        stats = BlobStats()
        path = tmp_path / "x.sealed"
        assert stats.read(path) is None
        stats.write(path, b"\x80not a pickle", {})
        assert stats.read(path).payload == b"\x80not a pickle"
        assert stats.read(path, decode=int) is None  # undecodable: corrupt
        assert stats.as_dict() == {
            "hits": 1, "misses": 2, "stores": 1, "corrupt": 1, "hit_rate": 0.3333
        }


class TestJournal:
    def test_append_is_one_line_per_record(self, tmp_path):
        path = tmp_path / "deep" / "journal.jsonl"
        append_jsonl(path, {"b": 1, "a": 2})
        append_jsonl(path, {"odd": object})
        lines = path.read_text().splitlines(keepends=True)
        assert lines[0] == '{"b": 1, "a": 2}\n'  # insertion order kept
        assert lines[1] == '{"odd": "<class \'object\'>"}\n'  # default=str

    def test_rewrite_compacts_atomically(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        for index in range(3):
            append_jsonl(path, {"n": index})
        rewrite_jsonl(path, [{"n": 2}])
        assert read_jsonl(path) == [{"n": 2}]
        rewrite_jsonl(path, [])
        assert read_jsonl(path) == []
        assert os.listdir(tmp_path) == ["journal.jsonl"]

    def test_writer_truncates_then_appends_like_append_jsonl(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("stale\n")
        writer = JsonlWriter(path)
        writer.write({"event": "x"})
        append_jsonl(path, {"event": "y"})
        writer.write({"event": "z"})
        writer.close()
        assert read_jsonl(path) == [
            {"event": "x"}, {"event": "y"}, {"event": "z"}
        ]
        with pytest.raises(ValueError, match="closed"):
            writer.write({"event": "late"})

    def test_interior_corruption_is_not_a_torn_tail(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(b'{"n": 1}\n\xff\xfe garbage\n{"n": 2}\n')
        with pytest.raises(TornRecordError) as excinfo:
            read_jsonl(path)
        assert excinfo.value.line_number == 2
