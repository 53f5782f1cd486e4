"""Anytime (``partial=``) hook tests across the importance methods:
publishing is bit-neutral, CIs shrink, early stop returns the running
estimate, and a stopped job resumes to the exact full-run result."""

import numpy as np
import pytest

from repro.core.exceptions import ValidationError
from repro.datasets import make_blobs
from repro.importance import (
    BetaShapley,
    DataBanzhaf,
    MonteCarloShapley,
    Utility,
    leave_one_out,
)
from repro.importance.base import clt_stderr, resolve_partial
from repro.ml import KNeighborsClassifier


def hexes(values):
    return [float(v).hex() for v in values]


def make_utility():
    X, y = make_blobs(40, n_features=3, centers=2, seed=2)
    return Utility(KNeighborsClassifier(n_neighbors=3),
                   X[:30], y[:30], X[30:], y[30:])


class Recorder:
    """Minimal ``partial=`` hook: records snapshots, stops on demand."""

    def __init__(self, every=1, stop_at=None):
        self.every = every
        self.stop_at = stop_at
        self.snaps = []

    def publish(self, **fields):
        self.snaps.append(fields)
        return self.stop_at is not None \
            and fields["completed"] >= self.stop_at


RUNNERS = {
    "shapley_mc": lambda u, **kw: MonteCarloShapley(
        n_permutations=6, seed=0, **kw).score(u),
    "banzhaf": lambda u, **kw: DataBanzhaf(
        n_samples=8, seed=0, **kw).score(u),
    "beta_shapley": lambda u, **kw: BetaShapley(
        n_permutations=6, seed=0, **kw).score(u),
    "loo": lambda u, **kw: leave_one_out(u, **kw),
}
TOTALS = {"shapley_mc": 6, "banzhaf": 8, "beta_shapley": 6, "loo": 30}


@pytest.mark.parametrize("method", sorted(RUNNERS))
class TestPublishContract:
    def test_partial_publishing_is_bit_neutral(self, method):
        plain = RUNNERS[method](make_utility())
        recorder = Recorder(every=1)
        observed = RUNNERS[method](make_utility(), partial=recorder)
        assert hexes(observed) == hexes(plain)

    def test_snapshots_progress_to_total(self, method):
        recorder = Recorder(every=1)
        RUNNERS[method](make_utility(), partial=recorder)
        completed = [s["completed"] for s in recorder.snaps]
        assert completed == sorted(completed)
        assert completed[0] > 0
        assert completed[-1] == TOTALS[method]
        for snap in recorder.snaps:
            assert snap["method"] in ("leave_one_out", method)
            assert len(snap["values"]) == 30
            assert len(snap["stderr"]) == 30

    def test_early_stop_returns_current_estimate(self, method):
        stop_at = 3 if method != "banzhaf" else 4
        recorder = Recorder(every=1, stop_at=stop_at)
        result = RUNNERS[method](make_utility(), partial=recorder)
        last = recorder.snaps[-1]
        assert last["completed"] == stop_at
        finite = np.isfinite(result)
        np.testing.assert_array_equal(
            np.asarray(result)[finite],
            np.asarray(last["values"])[finite])

    def test_early_stop_then_resume_is_exact(self, method, tmp_path):
        full_utility = make_utility()
        full = RUNNERS[method](full_utility)
        store = tmp_path / method
        stop_at = 3 if method != "banzhaf" else 4
        RUNNERS[method](make_utility(), checkpoint=store,
                        partial=Recorder(every=1, stop_at=stop_at))
        resumed_utility = make_utility()
        resumed = RUNNERS[method](resumed_utility, checkpoint=store,
                                  resume_from=store)
        assert hexes(resumed) == hexes(full)
        # resume restores the interrupted run's call accounting, so the
        # two-leg total matches one uninterrupted run exactly
        assert resumed_utility.calls == full_utility.calls

    def test_resume_publishes_as_the_uninterrupted_run(self, method,
                                                       tmp_path):
        """The restored prefix replays batch by batch: a resumed run
        publishes the same sequence, and a stop armed below the
        snapshot stops mid-replay where the uninterrupted run would."""
        full = Recorder(every=1)
        RUNNERS[method](make_utility(), partial=full)
        store = tmp_path / method
        stop_at = 3 if method != "banzhaf" else 4
        RUNNERS[method](make_utility(), checkpoint=store,
                        partial=Recorder(every=1, stop_at=stop_at))
        resumed = Recorder(every=1)
        RUNNERS[method](make_utility(), resume_from=store, partial=resumed)
        assert [s["completed"] for s in resumed.snaps] \
            == [s["completed"] for s in full.snaps]
        for got, want in zip(resumed.snaps, full.snaps):
            assert hexes(got["values"]) == hexes(want["values"])
        stopped = Recorder(every=1, stop_at=stop_at - 1)
        RUNNERS[method](make_utility(), resume_from=store, partial=stopped)
        assert [s["completed"] for s in stopped.snaps] \
            == list(range(1, stop_at))


class TestConfidenceIntervals:
    def test_stderr_shrinks_with_sample_count(self):
        recorder = Recorder(every=1)
        MonteCarloShapley(n_permutations=40, seed=1,
                          partial=recorder).score(make_utility())

        def mean_stderr(completed):
            snap = next(s for s in recorder.snaps
                        if s["completed"] == completed)
            return float(np.mean(snap["stderr"]))

        assert mean_stderr(1) == np.inf  # one sample: spread unknowable
        assert mean_stderr(4) > mean_stderr(16) > mean_stderr(40)

    def test_loo_stderr_mask_and_nan_tail(self):
        recorder = Recorder(every=1, stop_at=10)
        result = leave_one_out(make_utility(), partial=recorder)
        assert np.isfinite(result[:10]).all()
        assert np.isnan(result[10:]).all()
        last = recorder.snaps[-1]
        stderr = np.asarray(last["stderr"])
        assert (stderr[:10] == 0.0).all()       # computed: exact
        assert np.isinf(stderr[10:]).all()      # pending: unknowable
        assert np.isnan(np.asarray(last["values"])[10:]).all()

    def test_clt_stderr_matches_manual_computation(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=(25, 4))
        sums = samples.sum(axis=0)
        sumsqs = (samples ** 2).sum(axis=0)
        got = clt_stderr(sums, sumsqs, 25)
        want = samples.std(axis=0, ddof=1) / np.sqrt(25)
        np.testing.assert_allclose(got, want)

    def test_clt_stderr_is_inf_below_two_samples(self):
        for count in (0, 1):
            assert np.isinf(clt_stderr(np.zeros(3), np.zeros(3),
                                       count)).all()


class TestResolvePartial:
    def test_none_passes_through(self):
        assert resolve_partial(None) is None

    def test_object_without_publish_rejected(self):
        with pytest.raises(ValidationError):
            resolve_partial(object())

    def test_duck_typed_hook_accepted(self):
        recorder = Recorder()
        assert resolve_partial(recorder) is recorder
