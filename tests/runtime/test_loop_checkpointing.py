"""Every resumable loop drives one ``LoopCheckpointer``.

Two contracts hold for all of them. The identity fingerprint a loop
stamps into its records is pinned, so a store written by an earlier
release still resumes. And a loop run without ``checkpoint=`` or
``resume_from=`` leaves no trace in the process: no shutdown-flush
hook, no SIGTERM/SIGINT handler, no identity hash.
"""

import gc
import signal
import weakref

import numpy as np
import pytest

import repro.runtime.checkpoint as checkpoint_module
from repro.cleaning import CleaningOracle, IterativeCleaner
from repro.data import inject_label_errors_sharded, write_shards
from repro.dataframe import DataFrame
from repro.datasets import make_blobs
from repro.errors import inject_label_errors, inject_missing_array
from repro.importance import MonteCarloShapley, Utility, leave_one_out
from repro.importance.banzhaf import DataBanzhaf
from repro.importance.beta_shapley import BetaShapley
from repro.ml import KNeighborsClassifier
from repro.runtime import CheckpointStore, LoopCheckpointer
from repro.uncertain import cpclean_greedy
from repro.unlearning import ShardedUnlearner

#: Identity hex each loop stamps into its records, on the inputs below.
GOLDEN_IDENTITIES = {
    "banzhaf":
        "072204b7d4e8232c0c1d1eb5d4a9451c949df34b569008b302292668f13bfbfa",
    "beta_shapley":
        "5d29526a3d67059c167edcdf455648fae6fc5465df420e68653e9dd00df2571f",
    "cleaning":
        "d889044ab25e2fd1b1e410302fbe37c322c6e956fee77f1305ce8048f7bb53d8",
    "cpclean":
        "d340aab1007bc0b365c11bfcbb6ecd5c81edb0daae2e039a2b5ce92c450664ef",
    "inject":
        "3f4b08db3c3ab382000bcf3440f541fa7a19d57df94c6b242a2b954f1f7c71a1",
    "loo":
        "fd0167ecfc9f46b0c216e36f6af8f43f516cad24d9738054e27abfa407530f32",
    "shapley_mc":
        "3861c2474bb820427d34243b61679bd3531f53729a5bc67cab3c1ed9dab85668",
    "unlearning":
        "d26c1f854f6c0886f4dd7bbda9313660d6d779431b8b8ef27a2c3b5f65f39a40",
    "unlearning_sharded":
        "1d06829cdbd66fbd2c33e1f73e7bbf1cf96bf9d1dd06833f217d6426f4cecce6",
}


def _blobs():
    X, y = make_blobs(40, n_features=2, centers=2, cluster_std=2.0, seed=5)
    return X[:24], y[:24], X[24:], y[24:]


def _utility():
    X, y, X_valid, y_valid = _blobs()
    return Utility(KNeighborsClassifier(3), X[:12], y[:12], X_valid, y_valid)


def _shapley_mc(**ckpt):
    MonteCarloShapley(n_permutations=3, seed=np.int64(5),
                      checkpoint_every=1, **ckpt).score(_utility())


def _beta_shapley(**ckpt):
    BetaShapley(n_permutations=2, seed=7, checkpoint_every=1,
                **ckpt).score(_utility())


def _banzhaf(**ckpt):
    DataBanzhaf(n_samples=6, seed=np.int64(11), checkpoint_every=2,
                **ckpt).score(_utility())


def _loo(**ckpt):
    leave_one_out(_utility(), checkpoint_every=4, **ckpt)


def _cleaning(**ckpt):
    X, y, X_valid, y_valid = _blobs()
    frame = DataFrame({"f0": X[:, 0], "f1": X[:, 1],
                       "label": [str(v) for v in y]},
                      row_ids=np.arange(len(y)))
    dirty, _ = inject_label_errors(frame, column="label", fraction=0.25,
                                   seed=2)

    def encode(current):
        return (current.select(["f0", "f1"]).to_numpy(),
                np.array(current["label"].to_list()))

    cleaner = IterativeCleaner(KNeighborsClassifier(3), "random",
                               CleaningOracle(frame), encode=encode,
                               batch=2, seed=np.int64(3), **ckpt)
    cleaner.run(dirty, X_valid, np.array([str(v) for v in y_valid]),
                n_rounds=2)


def _cpclean(**ckpt):
    X, y, X_test, _ = _blobs()
    X_dirty, _ = inject_missing_array(X, fraction=0.3, seed=3)
    cpclean_greedy(X_dirty, y, X, X_test, k=3, max_cleaned=2, **ckpt)


def _unlearning(**ckpt):
    X, y, _, _ = _blobs()
    ShardedUnlearner(KNeighborsClassifier(3), n_shards=2, seed=np.int64(2),
                     **ckpt).fit(X, y).unlearn([0, 3])


def _dataset(tmp_path):
    X, y, _, _ = _blobs()
    return write_shards(tmp_path / "in", {"X": X, "y": y}, rows_per_shard=8)


def _unlearning_sharded(tmp_path, **ckpt):
    ShardedUnlearner(KNeighborsClassifier(3), seed=2,
                     **ckpt).fit_sharded(_dataset(tmp_path)).unlearn([1])


def _inject(tmp_path, **ckpt):
    inject_label_errors_sharded(_dataset(tmp_path), tmp_path / "out",
                                fraction=0.25, seed=np.int64(4), workers=1,
                                **ckpt)


#: Loop name -> runner taking ``(tmp_path, **checkpoint_kwargs)``.
LOOPS = {
    "shapley_mc": lambda tmp_path, **ckpt: _shapley_mc(**ckpt),
    "beta_shapley": lambda tmp_path, **ckpt: _beta_shapley(**ckpt),
    "banzhaf": lambda tmp_path, **ckpt: _banzhaf(**ckpt),
    "loo": lambda tmp_path, **ckpt: _loo(**ckpt),
    "cleaning": lambda tmp_path, **ckpt: _cleaning(**ckpt),
    "cpclean": lambda tmp_path, **ckpt: _cpclean(**ckpt),
    "unlearning": lambda tmp_path, **ckpt: _unlearning(**ckpt),
    "unlearning_sharded": _unlearning_sharded,
    "inject": _inject,
}


@pytest.mark.parametrize("name", sorted(LOOPS))
def test_identity_is_pinned(name, tmp_path):
    store = tmp_path / "store"
    LOOPS[name](tmp_path, checkpoint=store)
    record = CheckpointStore(store).load_latest()
    assert record is not None
    assert record.payload["identity"] == GOLDEN_IDENTITIES[name]


@pytest.fixture()
def no_trace(monkeypatch):
    """Fail on a shutdown-flush hook, a SIGTERM/SIGINT handler change or
    an identity hash; check the handlers are the same afterwards."""
    def forbid(what):
        def fail(*args, **kwargs):
            raise AssertionError(f"an inert checkpointer {what}")
        return fail

    monkeypatch.setattr(checkpoint_module, "register_shutdown_flush",
                        forbid("registered a shutdown-flush hook"))
    monkeypatch.setattr(checkpoint_module, "fingerprint",
                        forbid("hashed its identity"))
    shutdown_signals = (signal.SIGTERM, signal.SIGINT)
    handlers = [signal.getsignal(signum) for signum in shutdown_signals]
    install = signal.signal

    def guarded_install(signum, handler):
        if signum in shutdown_signals:
            forbid("installed a signal handler")()
        return install(signum, handler)

    monkeypatch.setattr(signal, "signal", guarded_install)
    yield
    assert [signal.getsignal(signum) for signum in shutdown_signals] \
        == handlers
    assert not checkpoint_module._FLUSH_HOOKS


@pytest.mark.parametrize("identity", [
    ("job",), lambda: pytest.fail("an inert checkpointer built its identity")
], ids=["parts", "callable"])
def test_inert_checkpointer_leaves_no_trace(identity, no_trace):
    ckpt = LoopCheckpointer(None, kind="demo", identity=identity,
                            resume_from=None)
    assert ckpt.identity is None
    assert ckpt.resume() is None
    with ckpt.armed(lambda: {"completed": 1}):
        ckpt.maybe_flush(1)
        ckpt.flush()


@pytest.mark.parametrize("name", sorted(LOOPS))
def test_uncheckpointed_loop_leaves_no_trace(name, tmp_path, no_trace):
    LOOPS[name](tmp_path)


def test_uncheckpointed_estimator_frees_its_utility_without_gc():
    """An inert checkpointer keeps no snapshot provider, so the run
    leaves no reference cycle holding the utility (and its memo) until
    the cyclic collector runs."""
    utility = _utility()
    alive = weakref.ref(utility)
    gc.disable()
    try:
        MonteCarloShapley(n_permutations=3, seed=5).score(utility)
        del utility
        assert alive() is None
    finally:
        gc.enable()
