"""The durable-file layer: atomic publish, the verified envelope, the
checksum read, the on-disk bytes they produce, and a SIGKILL inside a
checkpoint publish.

The golden byte strings below are a checkpoint record and a dataset
manifest exactly as earlier releases wrote them; stores and datasets
already on disk must keep loading, so the format may not drift.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data import ShardWriter
from repro.data.shards import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA,
    PARTIAL_MANIFEST_NAME,
)
from repro.runtime import CHECKPOINT_SCHEMA, CheckpointStore
from repro.runtime import durable
from repro.runtime.durable import (
    IntegrityError,
    decode_envelope,
    encode_envelope,
    publish,
    read_envelope,
    read_verified,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")

GOLDEN_RECORD_PAYLOAD = {"completed": 3, "n": 7, "note": "ä",
                         "values": [0.5.hex(), (1 / 3).hex()]}
GOLDEN_RECORD = (
    b'{"schema": 1, "seq": 0, "kind": "demo", "sha256": '
    b'"11c5aa97c9e89268e3314b221d7bb3ef990fd66aab1d2f84627be44f3debab96", '
    b'"payload": "{\\"completed\\": 3, \\"n\\": 7, \\"note\\": '
    b'\\"\\\\u00e4\\", \\"values\\": [\\"0x1.0000000000000p-1\\", '
    b'\\"0x1.5555555555555p-2\\"]}"}')

GOLDEN_MANIFEST_PAYLOAD = {
    "arrays": ["X", "y"], "meta": {"origin": "golden"}, "mirror": True,
    "n_rows": 2, "n_shards": 1, "partial": False,
    "shards": [{"index": 0, "name": "shard-00000.shard", "nbytes": 416,
                "rows": 2, "sha256": "bef2aee279c3b54bb643f0a6e8a92904c0c28c"
                                     "265111f3424f49dd1219101ced"}],
}
GOLDEN_MANIFEST = (
    b'{"schema": 1, "sha256": '
    b'"b35cfe4342758d8a9bdb7a4da01fac302bb5cbd253d20571c91964ab4280e66d", '
    b'"payload": "{\\"arrays\\": [\\"X\\", \\"y\\"], \\"meta\\": '
    b'{\\"origin\\": \\"golden\\"}, \\"mirror\\": true, \\"n_rows\\": 2, '
    b'\\"n_shards\\": 1, \\"partial\\": false, \\"shards\\": [{\\"index\\": '
    b'0, \\"name\\": \\"shard-00000.shard\\", \\"nbytes\\": 416, '
    b'\\"rows\\": 2, \\"sha256\\": '
    b'\\"bef2aee279c3b54bb643f0a6e8a92904c0c28c265111f3424f49dd1219101ced'
    b'\\"}]}"}')


def _format(schema, payload, **header) -> bytes:
    """The envelope format restated independently of the library."""
    text = json.dumps(payload, sort_keys=True)
    return json.dumps({"schema": schema, **header,
                       "sha256": hashlib.sha256(text.encode()).hexdigest(),
                       "payload": text}).encode()


# --------------------------------------------------------------------------
# publish
# --------------------------------------------------------------------------

class TestPublish:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "file.bin"
        publish(target, b"first")
        assert target.read_bytes() == b"first"
        publish(target, b"second")
        assert target.read_bytes() == b"second"
        assert list(target.parent.glob("*.tmp")) == []

    def test_failed_rename_keeps_old_file_and_no_temp(self, tmp_path,
                                                      monkeypatch):
        target = tmp_path / "file.bin"
        publish(target, b"old")

        def fail(*args):
            raise OSError("disk gone")

        monkeypatch.setattr(durable.os, "replace", fail)
        with pytest.raises(OSError, match="disk gone"):
            publish(target, b"new")
        assert target.read_bytes() == b"old"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_slow_publish_seam_env_name(self):
        from repro.data.shards import _SLOW_PUBLISH_ENV

        assert _SLOW_PUBLISH_ENV == "REPRO_DATA_SLOW_PUBLISH"
        assert durable._SLOW_PUBLISH_ENV == _SLOW_PUBLISH_ENV


# --------------------------------------------------------------------------
# envelope + checksum read
# --------------------------------------------------------------------------

class TestEnvelope:
    def test_key_order_and_roundtrip(self, tmp_path):
        data = encode_envelope(4, {"b": 1, "a": [0.5]}, seq=2, kind="k")
        assert list(json.loads(data)) == ["schema", "seq", "kind", "sha256",
                                          "payload"]
        assert data == _format(4, {"b": 1, "a": [0.5]}, seq=2, kind="k")
        path = tmp_path / "env.json"
        publish(path, data)
        envelope, payload = read_envelope(path, 4)
        assert payload == {"a": [0.5], "b": 1}
        assert (envelope["seq"], envelope["kind"]) == (2, "k")

    @pytest.mark.parametrize("raw, reason", [
        (b'{"schema": 1, "sha', "garbled JSON"),
        (b"[1, 2]", "not an object"),
        (b'{"schema": 2, "sha256": "", "payload": "{}"}', "unknown schema 2"),
        (b'{"schema": 1, "sha256": ""}', "missing payload"),
        (b'{"schema": 1, "sha256": "00", "payload": "{}"}',
         "content hash mismatch"),
        (json.dumps({"schema": 1, "sha256": hashlib.sha256(b"nul").hexdigest(),
                     "payload": "nul"}).encode(), "garbled payload"),
    ])
    def test_verifier_names_the_reason(self, tmp_path, raw, reason):
        path = tmp_path / "env.json"
        path.write_bytes(raw)
        with pytest.raises(IntegrityError) as info:
            read_envelope(path, 1)
        assert info.value.reason.startswith(reason)

    def test_missing_file_is_an_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_envelope(tmp_path / "absent.json", 1)

    def test_read_verified(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"payload")
        digest = hashlib.sha256(b"payload").hexdigest()
        assert read_verified(path, digest) == b"payload"
        assert read_verified(path, None) == b"payload"
        with pytest.raises(IntegrityError, match="checksum mismatch"):
            read_verified(path, "0" * 64)
        with pytest.raises(FileNotFoundError):
            read_verified(tmp_path / "absent", digest)


# --------------------------------------------------------------------------
# golden bytes: the on-disk format does not drift
# --------------------------------------------------------------------------

class TestGoldenBytes:
    def test_checkpoint_record_bytes(self, tmp_path):
        store = CheckpointStore(tmp_path)
        payload = dict(GOLDEN_RECORD_PAYLOAD, n=np.int64(7))
        record = store.write("demo", payload)
        assert record.path.name == "records.jsonl"
        assert record.path.read_bytes() == GOLDEN_RECORD + b"\n"
        assert CHECKPOINT_SCHEMA == 1

    def test_existing_record_loads_and_continues(self, tmp_path):
        (tmp_path / "ckpt-00000000.json").write_bytes(GOLDEN_RECORD)
        store = CheckpointStore(tmp_path)
        record = store.load_latest("demo")
        assert record.payload == GOLDEN_RECORD_PAYLOAD
        assert store.write("demo", {"completed": 4}).seq == 1

    def test_manifest_envelope_bytes(self):
        assert encode_envelope(MANIFEST_SCHEMA, GOLDEN_MANIFEST_PAYLOAD) \
            == GOLDEN_MANIFEST

    def test_written_manifests_match_the_format(self, tmp_path):
        arrays = {"X": np.arange(4, dtype=np.float64).reshape(2, 2),
                  "y": np.array([0, 1], dtype=np.int64)}
        writer = ShardWriter(tmp_path, mirror=True)
        info = writer.append(arrays)
        partial = dict(GOLDEN_MANIFEST_PAYLOAD, meta={}, partial=True,
                       shards=[info.as_dict()])
        assert (tmp_path / PARTIAL_MANIFEST_NAME).read_bytes() \
            == _format(MANIFEST_SCHEMA, partial)
        writer.finalize({"origin": "golden"})
        final = dict(GOLDEN_MANIFEST_PAYLOAD, shards=[info.as_dict()])
        assert (tmp_path / MANIFEST_NAME).read_bytes() \
            == _format(MANIFEST_SCHEMA, final)
        shard = (tmp_path / info.name).read_bytes()
        assert (tmp_path / "mirror" / info.name).read_bytes() == shard
        assert hashlib.sha256(shard).hexdigest() == info.sha256


# --------------------------------------------------------------------------
# SIGKILL inside a checkpoint append
# --------------------------------------------------------------------------

_TORN_DRIVER = '''\
"""Checkpointed Shapley run (modes: ref | run | resume). In ``run``
mode the third checkpoint flush arms the slow-publish seam, so the next
record's append stalls with half the line written."""
import json
import os
import sys
from pathlib import Path

from repro.datasets import make_blobs
from repro.importance import MonteCarloShapley, Utility
from repro.ml import LogisticRegression
from repro.runtime import FingerprintCache, LoopCheckpointer, Runtime
from repro.runtime.durable import _SLOW_PUBLISH_ENV

MODE, STORE, OUT = sys.argv[1:4]
FLUSHES = [0]
flush = LoopCheckpointer.flush


def arming_flush(self):
    flush(self)
    FLUSHES[0] += 1
    if MODE == "run" and FLUSHES[0] == 3:
        os.environ[_SLOW_PUBLISH_ENV] = "60"
        Path(OUT).write_text("armed")


LoopCheckpointer.flush = arming_flush
X, y = make_blobs(48, n_features=3, centers=2, seed=7)
utility = Utility(LogisticRegression(max_iter=40), X[:32], y[:32],
                  X[32:], y[32:],
                  runtime=Runtime(backend="serial", cache=FingerprintCache()))
kwargs = {"checkpoint": STORE} if MODE == "run" \\
    else {"resume_from": STORE} if MODE == "resume" else {}
values = MonteCarloShapley(n_permutations=10, seed=13, checkpoint_every=1,
                           **kwargs).score(utility)
with open(OUT, "w") as handle:
    json.dump({"scores": [v.hex() for v in values], "calls": utility.calls,
               "cache_keys": sorted(utility.runtime.cache.keys())}, handle)
utility.runtime.close()
'''


@pytest.mark.slow
class TestTornCheckpointWrite:
    def _run(self, driver, *args):
        subprocess.run([sys.executable, str(driver), *map(str, args)],
                       check=True, timeout=120, cwd=driver.parent,
                       env=dict(os.environ, PYTHONPATH=SRC))

    def _kill_inside_append(self, driver, store_dir, armed):
        journal = store_dir / "records.jsonl"
        process = subprocess.Popen(
            [sys.executable, str(driver), "run", str(store_dir), str(armed)],
            env=dict(os.environ, PYTHONPATH=SRC), cwd=driver.parent)
        try:
            deadline = time.monotonic() + 60
            while not (armed.exists() and journal.exists()
                       and not journal.read_bytes().endswith(b"\n")):
                assert process.poll() is None, "driver exited early"
                assert time.monotonic() < deadline, "no append window"
                time.sleep(0.02)
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert process.returncode == -signal.SIGKILL

    def test_sigkill_mid_publish_keeps_previous_record(self, tmp_path):
        driver = tmp_path / "torn_ckpt.py"
        driver.write_text(_TORN_DRIVER)
        store_dir = tmp_path / "store"
        self._kill_inside_append(driver, store_dir, tmp_path / "armed")

        # The stalled record is a torn tail after the last newline:
        # every complete line is a verifying record, the newest of
        # which loads.
        store = CheckpointStore(store_dir)
        *lines, torn = store.journal.read_bytes().split(b"\n")
        assert lines and torn
        for line in lines:
            decode_envelope(line, CHECKPOINT_SCHEMA)
        latest = store.load_latest("importance.shapley_mc")
        assert latest.path == store.journal
        assert latest.seq == json.loads(lines[-1])["seq"]
        assert 0 < latest.payload["completed"] < 10

        self._run(driver, "ref", tmp_path / "unused", tmp_path / "ref.json")
        self._run(driver, "resume", store_dir, tmp_path / "resumed.json")
        ref = json.loads((tmp_path / "ref.json").read_text())
        resumed = json.loads((tmp_path / "resumed.json").read_text())
        assert resumed == ref
