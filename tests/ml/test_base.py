"""Unit tests for the estimator protocol (params, clone, fitted state)."""

import numpy as np
import pytest

from repro.core.exceptions import NotFittedError
from repro.ml import LogisticRegression, Pipeline, StandardScaler, clone, is_fitted
from repro.ml.base import BaseEstimator, check_fitted


class TestParams:
    def test_get_params_reflects_init(self):
        model = LogisticRegression(C=2.0, max_iter=50)
        params = model.get_params()
        assert params["C"] == 2.0
        assert params["max_iter"] == 50

    def test_set_params_roundtrip(self):
        model = LogisticRegression()
        model.set_params(C=9.0)
        assert model.C == 9.0

    def test_set_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegression().set_params(bogus=1)

    def test_repr_lists_params(self):
        text = repr(LogisticRegression(C=3.0))
        assert "LogisticRegression" in text and "C=3.0" in text

    def test_param_names_are_per_class(self):
        class Base(BaseEstimator):
            def __init__(self, a=1):
                self.a = a

        class Inherits(Base):
            pass

        class Extends(Base):
            def __init__(self, a=1, b=2):
                super().__init__(a)
                self.b = b

        # the base's memo entry must not serve the subclass, nor the reverse
        assert Base._param_names() == ("a",)
        assert Extends._param_names() == ("a", "b")
        assert Inherits._param_names() == ("a",)
        assert Base._param_names() == ("a",)
        assert Extends(b=5).get_params() == {"a": 1, "b": 5}
        with pytest.raises(ValueError):
            Base().set_params(b=3)


class TestClone:
    def test_clone_copies_params_not_state(self, blobs):
        X, y = blobs
        model = LogisticRegression(C=4.0).fit(X, y)
        copy = clone(model)
        assert copy.C == 4.0
        assert not is_fitted(copy)
        assert is_fitted(model)

    def test_clone_non_estimator_passthrough(self):
        assert clone("passthrough") == "passthrough"
        assert clone(3.5) == 3.5

    def test_clone_lists_and_tuples_recursively(self):
        cloned = clone([LogisticRegression(C=7.0), "drop"])
        assert cloned[0].C == 7.0
        assert cloned[1] == "drop"

    def test_clone_nested_pipeline(self):
        pipe = Pipeline([("s", StandardScaler()),
                         ("m", LogisticRegression(C=5.0))])
        copy = clone(pipe)
        assert copy.steps[0][1] is not pipe.steps[0][1]
        assert copy.steps[1][1].C == 5.0


class TestFittedState:
    def test_is_fitted_detects_trailing_underscore(self):
        class Dummy(BaseEstimator):
            def __init__(self):
                pass

        model = Dummy()
        assert not is_fitted(model)
        model.weights_ = np.zeros(3)
        assert is_fitted(model)

    def test_private_attributes_do_not_count(self):
        class Dummy(BaseEstimator):
            def __init__(self):
                self._cache = {}

        assert not is_fitted(Dummy())

    def test_check_fitted_raises(self):
        with pytest.raises(NotFittedError):
            check_fitted(LogisticRegression())
