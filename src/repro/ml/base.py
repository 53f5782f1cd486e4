"""Estimator protocol: construction-parameter introspection and cloning.

Hyperparameters are exactly the keyword arguments of ``__init__`` and are
stored under the same attribute names. Fitted state uses a trailing
underscore (``coef_``, ``classes_``), which is how :func:`is_fitted`
distinguishes a trained estimator.
"""

from __future__ import annotations

import inspect

from repro.core.exceptions import NotFittedError


# ``__init__`` parameter names per estimator class: ``get_params`` and
# ``set_params`` run on every clone, and ``inspect.signature`` is slow.
_PARAM_NAMES: dict[type, tuple[str, ...]] = {}


class BaseEstimator:
    """Mixin giving estimators ``get_params`` / ``set_params`` / repr."""

    @classmethod
    def _param_names(cls) -> tuple[str, ...]:
        names = _PARAM_NAMES.get(cls)
        if names is None:
            signature = inspect.signature(cls.__init__)
            names = _PARAM_NAMES[cls] = tuple(
                name
                for name, param in signature.parameters.items()
                if name != "self"
                and param.kind not in (param.VAR_POSITIONAL, param.VAR_KEYWORD)
            )
        return names

    def get_params(self) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseEstimator":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"


class TransformerMixin:
    """Adds ``fit_transform`` to transformers."""

    def fit_transform(self, X, y=None):
        return self.fit(X, y).transform(X)


def clone(estimator):
    """Return an unfitted copy with the same hyperparameters.

    Nested estimators (pipelines, column transformers) are cloned
    recursively so a clone never shares fitted state with the original.
    """
    import numpy as np

    if isinstance(estimator, list):
        return [clone(e) for e in estimator]
    if isinstance(estimator, tuple):
        return tuple(clone(e) for e in estimator)
    if isinstance(estimator, np.random.Generator):
        # A Generator hyperparameter (seed=rng) must not be *shared*:
        # each fit of a clone would advance the same stream, making
        # refits of identical data nondeterministic. Copy the state so
        # every clone replays the identical stream.
        import copy

        return copy.deepcopy(estimator)
    if not isinstance(estimator, BaseEstimator):
        return estimator  # plain values (strings, numbers, callables)
    params = {name: clone(value) for name, value in estimator.get_params().items()}
    return type(estimator)(**params)


def is_fitted(estimator) -> bool:
    """True when the estimator carries any fitted (trailing-underscore)
    attribute."""
    return any(
        name.endswith("_") and not name.startswith("_")
        for name in vars(estimator)
    )


def check_fitted(estimator) -> None:
    """Raise :class:`NotFittedError` unless ``estimator`` has been fit."""
    if not is_fitted(estimator):
        raise NotFittedError(
            f"{type(estimator).__name__} must be fit before this call"
        )
