"""Cache robustness: torn or flipped entries are misses, writes are atomic."""

import pickle

from repro.persist import read_sealed
from repro.runner import ResultCache, Unit, unit_cache_key


def make_unit(**overrides):
    fields = dict(
        experiment="table4",
        key="SA/x",
        params={"kind": "SA", "row": 0, "trials": 40},
        seed=123,
    )
    fields.update(overrides)
    return Unit(**fields)


def entry_path(cache_dir, unit, version="v1"):
    key = unit_cache_key(unit, version)
    return cache_dir / key[:2] / f"{key}.sealed"


class TestTornEntries:
    def test_truncated_pickle_is_counted_and_repaired(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        unit = make_unit()
        cache.put(unit, {"answer": 42})
        path = entry_path(tmp_path, unit)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # torn mid-write

        hit, _ = cache.get(unit)
        assert not hit
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1

        # The next store repairs the entry in place.
        cache.put(unit, {"answer": 42})
        hit, value = cache.get(unit)
        assert hit and value == {"answer": 42}
        assert cache.stats.corrupt == 1

    def test_empty_entry_is_a_miss_not_an_error(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        unit = make_unit()
        cache.put(unit, "value")
        entry_path(tmp_path, unit).write_bytes(b"")
        hit, _ = cache.get(unit)
        assert not hit
        assert cache.stats.corrupt == 1

    def test_bit_flip_in_the_value_is_a_miss_not_a_wrong_hit(self, tmp_path):
        # One flipped bit inside the pickled int still unpickles -- to a
        # different number.  Only the digest can tell.
        cache = ResultCache(tmp_path, code_version="v1")
        unit = make_unit()
        cache.put(unit, {"capacity_bits": 12345})
        path = entry_path(tmp_path, unit)
        raw = bytearray(path.read_bytes())
        packed = (12345).to_bytes(2, "little")
        offset = raw.rindex(packed)
        raw[offset] ^= 0x01  # 12345 -> 12344
        path.write_bytes(bytes(raw))
        payload = path.read_bytes().partition(b"\n")[2]
        assert pickle.loads(payload) == {"capacity_bits": 12344}

        hit, value = cache.get(unit)
        assert (hit, value) == (False, None)
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1

        # The next store repairs the entry in place.
        cache.put(unit, {"capacity_bits": 12345})
        assert cache.get(unit) == (True, {"capacity_bits": 12345})
        assert cache.stats.corrupt == 1


class TestAtomicWrites:
    def test_no_staging_debris_after_puts(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        for index in range(5):
            cache.put(make_unit(key=f"SA/{index}"), index)
        assert list(tmp_path.rglob("*.tmp*")) == []
        # One sealed file per entry, no sidecars.
        assert len(list(tmp_path.rglob("*.sealed"))) == 5
        assert len(list(tmp_path.rglob("*.*"))) == 5

    def test_entry_is_a_whole_pickle(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        unit = make_unit()
        cache.put(unit, {"nested": [1, 2, 3]})
        entry = read_sealed(entry_path(tmp_path, unit))
        assert pickle.loads(entry.payload) == {"nested": [1, 2, 3]}
        assert entry.header["code_version"] == "v1"
