"""Tests for fingerprinting and the two-tier FingerprintCache."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.exceptions import ValidationError
from repro.ml import KNeighborsClassifier
from repro.runtime import FingerprintCache, fingerprint


class TestFingerprint:
    def test_deterministic(self):
        a = fingerprint(np.arange(10), "accuracy", 3, (1, 2))
        b = fingerprint(np.arange(10), "accuracy", 3, (1, 2))
        assert a == b

    def test_array_content_matters(self):
        assert fingerprint(np.arange(10)) != fingerprint(np.arange(1, 11))

    def test_dtype_and_shape_matter(self):
        assert fingerprint(np.zeros(4, dtype=np.int64)) != \
            fingerprint(np.zeros(4, dtype=np.float64))
        assert fingerprint(np.zeros((2, 2))) != fingerprint(np.zeros(4))

    @pytest.mark.parametrize("dtype", [
        "bool", "int8", "int16", "int32", "int64", "uint8", "uint16",
        "uint32", "uint64", "float16", "float32", "float64", "complex64",
        "complex128", "<U3", "|S3", ">i4", ">u8", ">f8", ">c16", ">U3",
        "object", np.dtype("float64", metadata={"unit": "m"})])
    def test_array_key_matches_the_str_dtype_oracle(self, dtype):
        # The dtype's tag is memoized per dtype: the first and the
        # memoized key hash the same bytes as str(dtype) did unmemoized.
        array = np.zeros((2, 3), dtype=dtype)
        oracle = hashlib.sha256(
            b"\x00A" + str(array.dtype).encode()
            + str(array.shape).encode() + array.tobytes()).hexdigest()
        assert fingerprint(array) == oracle
        assert fingerprint(array) == oracle

    def test_type_tags_prevent_scalar_collisions(self):
        assert fingerprint(1) != fingerprint(1.0)
        assert fingerprint(1) != fingerprint("1")
        assert fingerprint(True) != fingerprint(1)

    def test_estimator_hashed_by_hyperparameters(self):
        assert fingerprint(KNeighborsClassifier(3)) == \
            fingerprint(KNeighborsClassifier(3))
        assert fingerprint(KNeighborsClassifier(3)) != \
            fingerprint(KNeighborsClassifier(5))

    def test_dict_order_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_callables_by_qualified_name(self):
        from repro.ml.metrics import accuracy_score, f1_score

        assert fingerprint(accuracy_score) != fingerprint(f1_score)


class TestMemoryTier:
    def test_miss_then_hit(self):
        cache = FingerprintCache()
        key = fingerprint("k")
        assert cache.get(key) is None
        cache.put(key, 0.75)
        assert cache.get(key) == 0.75
        assert cache.stats.misses == 1
        assert cache.stats.memory_hits == 1

    def test_hit_is_bitwise_equal(self):
        cache = FingerprintCache()
        value = 0.1 + 0.2  # a float with a messy binary expansion
        key = fingerprint("v")
        cache.put(key, value)
        got = cache.get(key)
        assert got.hex() == value.hex()

    def test_lru_eviction_order(self):
        cache = FingerprintCache(max_items=2)
        k1, k2, k3 = (fingerprint(i) for i in range(3))
        cache.put(k1, 1.0)
        cache.put(k2, 2.0)
        assert cache.get(k1) == 1.0     # touch k1 so k2 becomes LRU
        cache.put(k3, 3.0)              # evicts k2
        assert cache.get(k2) is None
        assert cache.get(k1) == 1.0
        assert cache.get(k3) == 3.0
        assert cache.stats.evictions == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValidationError):
            FingerprintCache(max_items=0)


class TestDiskTier:
    def test_disk_roundtrip_bitwise(self, tmp_path):
        cache = FingerprintCache(disk_dir=tmp_path)
        key = fingerprint("disk")
        value = 1.0 / 3.0
        cache.put(key, value)
        fresh = FingerprintCache(disk_dir=tmp_path)  # cold memory tier
        got = fresh.get(key)
        assert got is not None and got.hex() == value.hex()
        assert fresh.stats.disk_hits == 1

    def test_disk_tier_survives_new_process(self, tmp_path):
        cache = FingerprintCache(disk_dir=tmp_path)
        key = fingerprint("cross-process")
        cache.put(key, 0.8125)
        script = (
            "from repro.runtime import FingerprintCache\n"
            f"cache = FingerprintCache(disk_dir={str(tmp_path)!r})\n"
            f"value = cache.get({key!r})\n"
            "assert value is not None\n"
            "print(float(value).hex())\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
            env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == (0.8125).hex()

    def test_memory_clear_keeps_disk(self, tmp_path):
        cache = FingerprintCache(disk_dir=tmp_path)
        key = fingerprint("persist")
        cache.put(key, 0.5)
        cache.clear_memory()
        assert len(cache) == 0
        assert cache.get(key) == 0.5
        assert cache.stats.disk_hits == 1

    def test_corrupt_entry_is_miss_and_deleted(self, tmp_path):
        """A disk entry truncated mid-bytes (torn write, bit rot) is a
        miss: the bad file is deleted, ``disk_corrupt`` counted, and the
        next put re-populates the slot cleanly."""
        cache = FingerprintCache(disk_dir=tmp_path)
        key = fingerprint("torn")
        cache.put(key, 1.0 / 3.0)
        path = cache._disk_path(key)
        path.write_bytes(path.read_bytes()[:-2])  # truncate mid-hex
        cache.clear_memory()
        assert cache.get(key) is None
        assert cache.stats.disk_corrupt == 1
        assert cache.stats.misses == 1
        assert not path.exists()
        assert cache.stats.as_dict()["disk_corrupt"] == 1
        # the slot heals on the next put
        cache.put(key, 0.25)
        cache.clear_memory()
        assert cache.get(key) == 0.25

    def test_empty_and_garbage_entries_are_corrupt(self, tmp_path):
        cache = FingerprintCache(disk_dir=tmp_path)
        for i, junk in enumerate([b"", b"not-a-hex-float"]):
            key = fingerprint("junk", i)
            cache.put(key, 1.5)
            cache._disk_path(key).write_bytes(junk)
            cache.clear_memory()
            assert cache.get(key) is None
        assert cache.stats.disk_corrupt == 2

    def test_journal_records_puts(self):
        cache = FingerprintCache()
        cache.put(fingerprint("before"), 0.1)
        journal = cache.start_journal()
        cache.put(fingerprint("during"), 0.2)
        cache.stop_journal(journal)
        cache.put(fingerprint("after"), 0.3)
        assert journal == [(fingerprint("during"), 0.2)]
        assert sorted(cache.keys()) == sorted(
            fingerprint(tag) for tag in ("before", "during", "after"))


class TestDiskPutDegradation:
    """The disk tier is best-effort: put failures (ENOSPC, permissions,
    vanished mount) must never crash the hot loop — they degrade the
    cache to memory-only, counted in ``disk_put_errors``."""

    def test_put_failure_degrades_to_memory_only(self, tmp_path):
        # disk_dir nested under a regular *file*: every mkdir fails with
        # ENOTDIR, the same OSError family as a full disk.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = FingerprintCache(disk_dir=blocker / "cache")
        keys = [fingerprint("degrade", i) for i in range(6)]
        for i, key in enumerate(keys):  # must not raise
            cache.put(key, float(i))
        assert cache.stats.disk_put_errors == cache._DISK_DEGRADE_AFTER
        assert cache.disk_degraded
        # the memory tier kept every value
        for i, key in enumerate(keys):
            assert cache.get(key) == float(i)
        assert cache.stats.as_dict()["disk_put_errors"] == \
            cache._DISK_DEGRADE_AFTER

    def test_transient_failure_does_not_degrade(self, tmp_path,
                                                monkeypatch):
        cache = FingerprintCache(disk_dir=tmp_path)
        real_replace = os.replace
        boom = {"left": 2}

        def flaky_replace(src, dst):
            if boom["left"] > 0:
                boom["left"] -= 1
                raise OSError(28, "No space left on device")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", flaky_replace)
        for i in range(5):
            cache.put(fingerprint("transient", i), float(i))
        assert cache.stats.disk_put_errors == 2
        # two failures < the degrade threshold, and the later successes
        # reset the consecutive counter: the tier stays on
        assert not cache.disk_degraded
        cache.clear_memory()
        assert cache.get(fingerprint("transient", 4)) == 4.0
        assert cache.stats.disk_hits == 1
