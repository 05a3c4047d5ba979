"""Unit tests for the content-addressed result store."""

import hashlib

from repro.serve.store import ResultStore, is_content_hash


def _hash(tag: str) -> str:
    return hashlib.sha256(tag.encode()).hexdigest()


def test_is_content_hash():
    assert is_content_hash("a" * 64)
    assert is_content_hash(_hash("x"))
    assert not is_content_hash("a" * 63)
    assert not is_content_hash("A" * 64)  # uppercase is not canonical
    assert not is_content_hash("../../etc/passwd")


def test_put_get_roundtrip(tmp_path):
    store = ResultStore(tmp_path / "results")
    payload = b'{"result": 42}\n'
    digest = store.put(_hash("job"), payload)
    assert digest == hashlib.sha256(payload).hexdigest()
    assert store.get(_hash("job")) == (payload, digest)
    assert store.stats.as_dict() == {
        "hits": 1, "misses": 0, "stores": 1, "corrupt": 0, "hit_rate": 1.0
    }


def test_missing_entry_is_a_miss(tmp_path):
    store = ResultStore(tmp_path / "results")
    assert store.get(_hash("absent")) is None
    assert store.stats.misses == 1


def test_tampered_payload_reads_as_corrupt_miss(tmp_path):
    store = ResultStore(tmp_path / "results")
    content_hash = _hash("job")
    store.put(content_hash, b"honest bytes\n")
    victim = store._path(content_hash)
    header, _, payload = victim.read_bytes().partition(b"\n")
    assert payload == b"honest bytes\n"
    victim.write_bytes(header + b"\n" + b"tampered bytes\n")

    assert store.get(content_hash) is None
    assert store.stats.corrupt == 1
    assert store.stats.misses == 1

    # A fresh put repairs the entry.
    store.put(content_hash, b"honest bytes\n")
    assert store.get(content_hash) == (
        b"honest bytes\n",
        hashlib.sha256(b"honest bytes\n").hexdigest(),
    )


def test_rewrite_same_hash_is_atomic_replace(tmp_path):
    store = ResultStore(tmp_path / "results")
    content_hash = _hash("job")
    store.put(content_hash, b"first\n")
    store.put(content_hash, b"second\n")
    payload, digest = store.get(content_hash)
    assert payload == b"second\n"
    assert digest == hashlib.sha256(b"second\n").hexdigest()
