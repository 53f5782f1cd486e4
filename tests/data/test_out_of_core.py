"""ISSUE acceptance: out-of-core pipelines are bit-identical to in-memory.

Every consumer wired to the sharded data layer — Shapley estimation via
``Utility.from_sharded``, the iterative cleaner on a spilled frame, and
SISA unlearning via ``fit_sharded`` — must produce results hex-identical
to the in-memory path on every backend, with or without reader-worker
crashes, a corrupted shard healed from its mirror, or a SIGKILL +
checkpoint-resume along the way.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.thread import BrokenThreadPool
from pathlib import Path

import numpy as np
import pytest

from repro.cleaning import CleaningOracle, IterativeCleaner
from repro.data import transform_shards, write_shards
from repro.dataframe import DataFrame
from repro.datasets import make_blobs
from repro.errors import inject_label_errors
from repro.importance import MonteCarloShapley, Utility
from repro.importance.base import hex_floats
from repro.ml import KNeighborsClassifier, LogisticRegression
from repro.runtime import FaultPolicy, Runtime
from repro.unlearning import ShardedUnlearner

SRC = str(Path(__file__).resolve().parents[2] / "src")

BACKENDS = ["serial", "thread", "process"]


class WorkerCrash(BrokenThreadPool):
    """A read that breaks the reader's thread pool."""


class CrashOnce:
    """load_fn seam: the first load of ``index`` kills its worker."""

    def __init__(self, index):
        self.index = index
        self.lock = threading.Lock()
        self.armed = True

    def __call__(self, dataset, index):
        with self.lock:
            if index == self.index and self.armed:
                self.armed = False
                raise WorkerCrash("injected")
        return dataset.load_shard(index)


def faulty_reader(shard_index):
    return {"workers": 2, "load_fn": CrashOnce(shard_index),
            "faults": FaultPolicy(max_worker_crashes=2)}


def corrupt_shard(dataset, index):
    path = dataset.shard_path(index)
    path.write_bytes(path.read_bytes()[:-4] + b"XXXX")


# --- Shapley via Utility.from_sharded ---------------------------------------

@pytest.fixture(scope="module")
def shapley_setting(tmp_path_factory):
    X, y = make_blobs(80, n_features=3, centers=2, seed=7)
    path = tmp_path_factory.mktemp("shapley") / "train"
    dataset = write_shards(path, {"X": X[:60], "y": y[:60]},
                           rows_per_shard=13, mirror=True)
    return {"X": X[:60], "y": y[:60], "X_valid": X[60:], "y_valid": y[60:],
            "dataset": dataset}


def shapley_scores(utility):
    return hex_floats(MonteCarloShapley(n_permutations=5, seed=3)
                      .score(utility))


@pytest.fixture(scope="module")
def shapley_reference(shapley_setting):
    s = shapley_setting
    return shapley_scores(Utility(LogisticRegression(max_iter=40),
                                  s["X"], s["y"],
                                  s["X_valid"], s["y_valid"]))


class TestShapleyOutOfCore:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hex_identical_on_every_backend(self, shapley_setting,
                                            shapley_reference, backend):
        s = shapley_setting
        with Runtime(backend=backend) as runtime:
            utility = Utility.from_sharded(
                LogisticRegression(max_iter=40), s["dataset"],
                s["X_valid"], s["y_valid"], runtime=runtime)
            assert shapley_scores(utility) == shapley_reference

    def test_hex_identical_under_worker_crash(self, shapley_setting,
                                              shapley_reference):
        s = shapley_setting
        utility = Utility.from_sharded(
            LogisticRegression(max_iter=40), s["dataset"],
            s["X_valid"], s["y_valid"], reader=faulty_reader(1))
        assert shapley_scores(utility) == shapley_reference

    def test_hex_identical_after_mirror_heal(self, shapley_setting,
                                             shapley_reference):
        s = shapley_setting
        corrupt_shard(s["dataset"], 2)
        utility = Utility.from_sharded(
            LogisticRegression(max_iter=40), s["dataset"],
            s["X_valid"], s["y_valid"],
            reader={"on_corrupt": "quarantine",
                    "faults": FaultPolicy(retries=0)})
        assert shapley_scores(utility) == shapley_reference
        assert s["dataset"].verify_all() == []  # healed in place


# --- IterativeCleaner on a spilled frame ------------------------------------

@pytest.fixture(scope="module")
def cleaning_setting():
    X, y = make_blobs(120, n_features=3, centers=2, cluster_std=1.3, seed=19)
    frame = DataFrame({
        "f0": X[:80, 0], "f1": X[:80, 1], "f2": X[:80, 2],
        "label": [str(v) for v in y[:80]],
    })
    dirty, _ = inject_label_errors(frame, column="label", fraction=0.25,
                                   seed=20)
    return {"clean": frame, "dirty": dirty, "X_valid": X[80:],
            "y_valid": np.array([str(v) for v in y[80:]])}


def encode(frame):
    X = frame.select(["f0", "f1", "f2"]).to_numpy()
    y = np.array(frame["label"].to_list())
    return X, y


def run_cleaner(setting, dirty, **run_kwargs):
    cleaner = IterativeCleaner(
        KNeighborsClassifier(5), "knn_shapley",
        CleaningOracle(setting["clean"]), encode=encode, batch=8, seed=3)
    return cleaner.run(dirty, setting["X_valid"], setting["y_valid"],
                       n_rounds=2, **run_kwargs)


class TestCleanerOutOfCore:
    def test_spilled_frame_trajectory_is_hex_identical(self, tmp_path,
                                                       cleaning_setting):
        reference = run_cleaner(cleaning_setting, cleaning_setting["dirty"])
        spilled = cleaning_setting["dirty"].to_shards(
            tmp_path / "spill", rows_per_shard=17)
        result = run_cleaner(cleaning_setting, spilled)
        assert hex_floats(result.scores) == hex_floats(reference.scores)
        assert result.cleaned_ids == reference.cleaned_ids

    def test_trajectory_survives_reader_crash(self, tmp_path,
                                              cleaning_setting):
        reference = run_cleaner(cleaning_setting, cleaning_setting["dirty"])
        spilled = cleaning_setting["dirty"].to_shards(
            tmp_path / "spill", rows_per_shard=17, mirror=True)
        corrupt_shard(spilled, 0)
        result = run_cleaner(
            cleaning_setting, spilled,
            reader={"workers": 2, "load_fn": CrashOnce(2),
                    "faults": FaultPolicy(max_worker_crashes=2, retries=0),
                    "on_corrupt": "quarantine"})
        assert hex_floats(result.scores) == hex_floats(reference.scores)
        assert result.cleaned_ids == reference.cleaned_ids


# --- ShardedUnlearner.fit_sharded -------------------------------------------

@pytest.fixture(scope="module")
def unlearn_setting(tmp_path_factory):
    X, y = make_blobs(90, n_features=3, centers=2, seed=23)
    path = tmp_path_factory.mktemp("unlearn") / "train"
    dataset = write_shards(path, {"X": X[:70], "y": y[:70]},
                           rows_per_shard=15, mirror=True)
    rows = [info.rows for info in dataset.shards]
    assignment = np.repeat(np.arange(dataset.n_shards), rows)
    return {"X": X[:70], "y": y[:70], "X_valid": X[70:], "y_valid": y[70:],
            "dataset": dataset, "assignment": assignment}


def member_bytes(unlearner):
    return [None if m is None else m.coef_.tobytes()
            for m in unlearner.models_]


class TestUnlearnerOutOfCore:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fit_and_unlearn_match_in_memory(self, unlearn_setting, backend):
        s = unlearn_setting
        reference = ShardedUnlearner(
            LogisticRegression(max_iter=40),
            n_shards=s["dataset"].n_shards, seed=0)
        reference.fit(s["X"], s["y"], assignment=s["assignment"])
        with ShardedUnlearner(LogisticRegression(max_iter=40), seed=0,
                              runtime=backend) as sharded:
            sharded.fit_sharded(s["dataset"])
            assert member_bytes(sharded) == member_bytes(reference)
            assert sharded.retrain_counter_ == reference.retrain_counter_

            targets = [3, 17, 44, 61]
            reference.unlearn(targets)
            sharded.unlearn(targets)
            assert member_bytes(sharded) == member_bytes(reference)
            assert sharded.retrain_counter_ == reference.retrain_counter_
            assert sharded.predict(s["X_valid"]).tolist() == \
                reference.predict(s["X_valid"]).tolist()

    def test_fit_sharded_under_reader_crash(self, unlearn_setting):
        s = unlearn_setting
        reference = ShardedUnlearner(
            LogisticRegression(max_iter=40),
            n_shards=s["dataset"].n_shards, seed=0)
        reference.fit(s["X"], s["y"], assignment=s["assignment"])
        sharded = ShardedUnlearner(LogisticRegression(max_iter=40), seed=0)
        sharded.fit_sharded(s["dataset"], reader=faulty_reader(2))
        assert member_bytes(sharded) == member_bytes(reference)


# --- SIGKILL + snapshot resume ----------------------------------------------

_DRIVER = '''\
"""transform_shards kill/resume driver (modes: ref | run | resume)."""
import sys
import time

from repro.data import transform_shards


def slow_double(index, arrays, rng):
    time.sleep(0.3)
    return ({"X": arrays["X"] * 2 + rng.normal(size=arrays["X"].shape)},
            [float(arrays["X"].sum())])


def main():
    mode, dataset_path, out_path, store = sys.argv[1:5]
    kwargs = {"workers": 1, "checkpoint_every": 1}
    if mode == "run":
        kwargs["checkpoint"] = store
    elif mode == "resume":
        kwargs["checkpoint"] = store
        kwargs["resume_from"] = store
    transform_shards(dataset_path, out_path, slow_double, seed=5, **kwargs)


main()
'''


@pytest.mark.slow
class TestSigkillSnapshotResume:
    def test_killed_transform_resumes_byte_identically(self, tmp_path, rng):
        dataset = write_shards(tmp_path / "in",
                               {"X": rng.normal(size=(48, 2))},
                               rows_per_shard=8)
        driver = tmp_path / "driver.py"
        driver.write_text(_DRIVER)
        env = dict(os.environ, PYTHONPATH=SRC)

        subprocess.run(
            [sys.executable, str(driver), "ref", str(dataset.path),
             str(tmp_path / "ref"), "unused"],
            check=True, timeout=120, env=env, cwd=tmp_path)

        store = tmp_path / "store"
        process = subprocess.Popen(
            [sys.executable, str(driver), "run", str(dataset.path),
             str(tmp_path / "out"), str(store)], env=env, cwd=tmp_path)
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if store.exists() and len(list(store.glob("*.json"))) >= 2:
                    break
                if process.poll() is not None:
                    raise AssertionError(
                        f"driver exited early with {process.returncode}")
                time.sleep(0.02)
            else:
                raise AssertionError("no checkpoint records within 60s")
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

        # Killed mid-pass: some output shards are journaled, no manifest.
        assert (tmp_path / "out" / "manifest.partial.json").exists()
        assert not (tmp_path / "out" / "manifest.json").exists()

        subprocess.run(
            [sys.executable, str(driver), "resume", str(dataset.path),
             str(tmp_path / "out"), str(store)],
            check=True, timeout=120, env=env, cwd=tmp_path)

        reference = tmp_path / "ref"
        for name in ["manifest.json"] + sorted(
                p.name for p in reference.glob("shard-*.shard")):
            assert (tmp_path / "out" / name).read_bytes() == \
                (reference / name).read_bytes()
