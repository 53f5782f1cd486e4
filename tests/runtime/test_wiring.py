"""Runtime wiring of the non-importance compute layers: CPClean's greedy
selector and the iterative cleaner produce identical results with and
without a parallel runtime."""

import numpy as np
import pytest

from repro.cleaning import CleaningOracle, IterativeCleaner
from repro.dataframe import DataFrame
from repro.datasets import make_blobs
from repro.errors import inject_label_errors, inject_missing_array
from repro.ml import LogisticRegression
from repro.observe import Observer
from repro.runtime import FingerprintCache, Runtime
from repro.uncertain import cpclean_greedy


class TestCPCleanRuntime:
    @pytest.fixture(scope="class")
    def incomplete(self):
        X, y = make_blobs(50, n_features=2, centers=2, cluster_std=1.0,
                          seed=12)
        X_test, _ = make_blobs(15, n_features=2, centers=2, cluster_std=1.0,
                               seed=13)
        X_dirty, _ = inject_missing_array(X, fraction=0.12, columns=[0],
                                          seed=3)
        return {"X": X, "y": y, "X_dirty": X_dirty, "X_test": X_test}

    def test_parallel_rounds_match_inline(self, incomplete):
        inline = cpclean_greedy(incomplete["X_dirty"], incomplete["y"],
                                incomplete["X"], incomplete["X_test"],
                                k=3, max_cleaned=3)
        for backend in ("thread", "process"):
            with Runtime(backend=backend, max_workers=2) as runtime:
                parallel = cpclean_greedy(
                    incomplete["X_dirty"], incomplete["y"], incomplete["X"],
                    incomplete["X_test"], k=3, max_cleaned=3,
                    runtime=runtime)
            assert parallel["cleaned_rows"] == inline["cleaned_rows"]
            assert parallel["certain_fraction"] == \
                inline["certain_fraction"]


class TestIterativeCleanerRuntime:
    @pytest.fixture(scope="class")
    def setting(self):
        X, y = make_blobs(120, n_features=3, centers=2, cluster_std=1.3,
                          seed=19)
        frame = DataFrame({
            "f0": X[:80, 0], "f1": X[:80, 1], "f2": X[:80, 2],
            "label": [str(v) for v in y[:80]],
        })
        dirty, _ = inject_label_errors(frame, column="label", fraction=0.25,
                                       seed=20)
        return {"clean": frame, "dirty": dirty,
                "X_valid": X[80:],
                "y_valid": np.array([str(v) for v in y[80:]])}

    @staticmethod
    def _encode(frame):
        X = frame.select(["f0", "f1", "f2"]).to_numpy()
        y = np.array(frame["label"].to_list())
        return X, y

    @pytest.mark.parametrize("strategy", ["loo", "shapley_mc", "banzhaf"])
    def test_utility_strategies_run_and_track_quality(self, setting,
                                                      strategy):
        observer = Observer()
        with Runtime(backend="serial", cache=FingerprintCache(),
                     observer=observer) as runtime:
            cleaner = IterativeCleaner(
                LogisticRegression(max_iter=60), strategy,
                CleaningOracle(setting["clean"]), encode=self._encode,
                batch=10, seed=0, runtime=runtime)
            result = cleaner.run(setting["dirty"], setting["X_valid"],
                                 setting["y_valid"], n_rounds=2)
        assert result.rounds == 2
        assert len(result.scores) == 3
        assert len(result.cleaned_ids) == 20
        # The runtime saw the strategy's utility evaluations.
        assert observer.metrics.snapshot()["runtime.tasks"] > 0
        assert observer.tracer.total_seconds() > 0

    def test_runtime_does_not_change_trajectory(self, setting):
        def run(runtime):
            cleaner = IterativeCleaner(
                LogisticRegression(max_iter=60), "loo",
                CleaningOracle(setting["clean"]), encode=self._encode,
                batch=10, seed=0, runtime=runtime)
            return cleaner.run(setting["dirty"], setting["X_valid"],
                               setting["y_valid"], n_rounds=2)

        inline = run(None)
        with Runtime(backend="thread", max_workers=2) as runtime:
            threaded = run(runtime)
        assert inline.scores == threaded.scores
        assert inline.cleaned_ids == threaded.cleaned_ids
