"""Runtime wiring of Utility: batch evaluation, caching, introspection."""

import numpy as np
import pytest

from repro.datasets import make_blobs
from repro.errors import inject_label_errors_array
from repro.importance import (
    Utility,
    detection_report,
    format_report,
    leave_one_out,
)
from repro.ml import KNeighborsClassifier
from repro.observe import Observer
from repro.runtime import FingerprintCache, Runtime
from repro.runtime.cache import fingerprint


@pytest.fixture(scope="module")
def game():
    X, y = make_blobs(70, n_features=3, centers=2, seed=3)
    y_dirty, flipped = inject_label_errors_array(y[:50], fraction=0.2, seed=1)
    return {"X_train": X[:50], "y_train": y_dirty,
            "X_valid": X[50:], "y_valid": y[50:], "flipped": flipped}


def _utility(game, runtime=None, **kwargs):
    return Utility(KNeighborsClassifier(3), game["X_train"], game["y_train"],
                   game["X_valid"], game["y_valid"], runtime=runtime,
                   **kwargs)


def _root_span_names(observer) -> set:
    return {span.name for span in observer.tracer.roots}


class TestEvaluateMany:
    def test_matches_scalar_calls(self, game):
        utility = _utility(game)
        coalitions = [np.arange(10), np.arange(5, 30), np.array([], dtype=int)]
        batch = utility.evaluate_many(coalitions)
        fresh = _utility(game)
        singles = [fresh(c) for c in coalitions]
        np.testing.assert_array_equal(batch, np.asarray(singles))

    def test_duplicates_trained_once(self, game):
        utility = _utility(game)
        subset = np.arange(12)
        values = utility.evaluate_many([subset, subset[::-1].copy(), subset])
        assert utility.calls == 1
        assert values[0] == values[1] == values[2]

    def test_cached_hit_is_bitwise_equal(self, game):
        cache = FingerprintCache()
        with Runtime(backend="serial", cache=cache) as runtime:
            utility = _utility(game, runtime=runtime, cache=False)
            subset = np.arange(20)
            first = utility(subset)
            again = utility(subset)
        assert float(first).hex() == float(again).hex()
        assert cache.stats.hits >= 1
        assert utility.calls == 1

    def test_runtime_cache_shared_between_utilities(self, game):
        cache = FingerprintCache()
        with Runtime(backend="serial", cache=cache) as runtime:
            a = _utility(game, runtime=runtime)
            b = _utility(game, runtime=runtime)
            value_a = a(np.arange(15))
            value_b = b(np.arange(15))
        assert value_a == value_b
        assert a.calls == 1
        assert b.calls == 0  # served from the shared fingerprint cache

    def test_different_games_never_collide(self, game):
        cache = FingerprintCache()
        with Runtime(backend="serial", cache=cache) as runtime:
            knn3 = _utility(game, runtime=runtime)
            knn5 = Utility(KNeighborsClassifier(5), game["X_train"],
                           game["y_train"], game["X_valid"], game["y_valid"],
                           runtime=runtime)
            knn3(np.arange(25))
            knn5(np.arange(25))
        # Same coalition, different model config: both trained.
        assert knn3.calls == 1
        assert knn5.calls == 1

    def test_invalid_runtime_spec_rejected(self, game):
        from repro.core.exceptions import ValidationError

        with pytest.raises(ValidationError):
            _utility(game, runtime=3.14)


class _KeyLog(FingerprintCache):
    """A fingerprint cache that records every key looked up or stored."""

    def __init__(self):
        super().__init__()
        self.got, self.put_keys = [], []

    def get(self, key):
        self.got.append(key)
        return super().get(key)

    def put(self, key, value):
        self.put_keys.append(key)
        super().put(key, value)


class TestCacheKeys:
    @pytest.mark.parametrize("memo", [True, False])
    def test_keys_are_the_sorted_coalition_fingerprint(self, game, memo):
        """Shuffled, duplicated and empty coalitions: every key stored in
        (and looked up from) the shared cache is
        ``fingerprint(base, np.sort(c))``."""
        rng = np.random.default_rng(5)
        base = [rng.choice(50, size=int(rng.integers(1, 40)), replace=False)
                for _ in range(6)]
        batch = [c.copy() for c in base]
        batch += [rng.permutation(c) for c in base[:3]]  # shuffled
        batch += [base[1].copy(), np.array([], dtype=int)]  # dup, empty
        cache = _KeyLog()
        with Runtime(backend="serial", cache=cache) as runtime:
            utility = _utility(game, runtime=runtime, cache=memo)
            values = utility.evaluate_many(batch)
            again = utility.evaluate_many(batch[::-1])
        expected = {fingerprint(utility.base_fingerprint(), np.sort(c))
                    for c in base}
        assert sorted(cache.put_keys) == sorted(expected)
        assert set(cache.got) == expected
        assert cache.put_keys == [utility.coalition_key(c) for c in base]
        assert utility.calls == len(base)
        fresh = _utility(game, cache=memo)
        assert [v.hex() for v in values] == \
            [v.hex() for v in fresh.evaluate_many(batch)]
        assert [v.hex() for v in again] == [v.hex() for v in values[::-1]]
        # One lookup per non-empty coalition of the first batch; the
        # memo, when on, answers the whole second batch.
        assert len(cache.got) == (len(batch) - 1) * (1 if memo else 2)


class TestIntrospection:
    def test_cache_info_shape(self, game):
        observer = Observer()
        with Runtime(backend="serial", cache=FingerprintCache(),
                     observer=observer) as runtime:
            utility = _utility(game, runtime=runtime)
            leave_one_out(utility)
            info = utility.cache_info()
        assert info["calls"] == utility.calls > 0
        assert set(info["runtime"]) == {"backend", "workers", "cache"}
        assert info["runtime"]["backend"] == "serial"
        assert "runtime.leave_one_out" in _root_span_names(observer)
        assert info["runtime"]["cache"]["puts"] > 0

    def test_detection_report_surfaces_runtime_stats(self, game):
        observer = Observer()
        with Runtime(backend="serial", cache=FingerprintCache(),
                     observer=observer) as runtime:
            utility = _utility(game, runtime=runtime)
            values = leave_one_out(utility)
            report = detection_report(values, game["flipped"],
                                      k=len(game["flipped"]),
                                      utility=utility, wall_time=1.25)
        assert 0.0 <= report["recall_at_k"] <= 1.0
        assert 0.0 <= report["precision_at_k"] <= 1.0
        assert report["utility_calls"] == utility.calls
        assert report["backend"] == "serial"
        assert "cache_hit_rate" in report
        assert "runtime.leave_one_out" in _root_span_names(observer)
        assert report["wall_time"] == 1.25
        line = format_report(report)
        assert "trainings=" in line and "backend=serial" in line

    def test_stage_timings_accumulate(self, game):
        observer = Observer()
        with Runtime(backend="serial", observer=observer) as runtime:
            utility = _utility(game, runtime=runtime)
            utility.evaluate_many([np.arange(8), np.arange(9), np.arange(10)],
                                  stage="custom.stage")
        spans = [span for span in observer.tracer.roots
                 if span.name == "runtime.custom.stage"]
        assert sum(span.attrs["tasks"] for span in spans) == 3
        assert sum(span.wall_seconds for span in spans) > 0
