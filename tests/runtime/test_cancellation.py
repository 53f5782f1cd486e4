"""Cancellation-protocol tests: long scoring jobs abort cleanly."""

import pytest

from repro.observe import Observer
from repro.runtime import (
    BACKENDS,
    CancellationToken,
    JobCancelled,
    ProgressRecorder,
    Runtime,
    cancel_after,
)


def _slow_square(shared, task):
    return task * task


@pytest.mark.parametrize("backend", BACKENDS)
class TestExecutorCancellation:
    def test_pretripped_token_aborts_before_work(self, backend):
        token = CancellationToken()
        token.cancel()
        with Runtime(backend=backend, max_workers=2,
                     cancel=token) as runtime:
            with pytest.raises(JobCancelled):
                runtime.map(_slow_square, range(50), stage="squares")

    def test_mid_job_cancellation(self, backend):
        token = CancellationToken()
        with Runtime(backend=backend, max_workers=2, cancel=token,
                     progress=cancel_after(token, 2),
                     chunk_size=1) as runtime:
            with pytest.raises(JobCancelled):
                runtime.map(_slow_square, range(200), stage="squares")


class TestEstimatorCancellation:
    def test_shapley_job_aborts_and_reports_partial_cost(self, tiny_game):
        from repro.importance import MonteCarloShapley, Utility
        from repro.ml import KNeighborsClassifier

        token = CancellationToken()
        recorder = ProgressRecorder()

        def progress(event):
            recorder(event)
            if event.completed >= 2:
                token.cancel()

        observer = Observer()
        with Runtime(backend="serial", cancel=token, progress=progress,
                     chunk_size=1, observer=observer) as runtime:
            utility = Utility(KNeighborsClassifier(3), *tiny_game,
                              runtime=runtime)
            estimator = MonteCarloShapley(n_permutations=50,
                                          truncation_tol=0.0, seed=0)
            with pytest.raises(JobCancelled):
                estimator.score(utility)
        # Some work happened before the abort, and the aborted batch's
        # span records the failure.
        assert recorder.last is not None
        aborted = observer.tracer.roots[-1]
        assert aborted.name.startswith("runtime.")
        assert aborted.status == "error"


@pytest.fixture()
def tiny_game():
    import numpy as np

    from repro.datasets import make_blobs

    X, y = make_blobs(40, n_features=3, centers=2, seed=0)
    return X[:25], y[:25], X[25:], y[25:]
