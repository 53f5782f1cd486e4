"""Linear models: logistic regression, linear regression, linear SVM.

Logistic regression is the workhorse model of the tutorial (the influence
functions in :mod:`repro.importance.influence` and the Zorro abstraction in
:mod:`repro.uncertain.zorro` both rely on its differentiable loss), so it
is implemented carefully: multinomial softmax, L2 regularization, and an
L-BFGS solver from scipy.

The solver cores are module-level helpers (``_logistic_problem``,
``_svc_problem``, ``_ridge_theta``, ``_minimize``) shared between the
estimators' ``fit`` methods and the incremental coalition kernels in
:mod:`repro.importance.kernels` — a kernel's "cold replay" fallback runs
literally the same arithmetic as ``clone(model).fit(...)``, which is what
makes its bit-identical accounting honest. ``LogisticRegression`` and
``LinearSVC`` additionally accept ``warm_start=True`` to seed the solver
from the previous fit's coefficients (the continuation kernels drive the
same machinery across coalition prefixes).
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import ValidationError
from repro.core.validation import check_array, check_X_y
from repro.ml.base import BaseEstimator, check_fitted


def _encode_labels(y):
    classes, encoded = np.unique(y, return_inverse=True)
    if len(classes) < 2:
        raise ValidationError("need at least two classes to fit a classifier")
    return classes, encoded


def _softmax(Z: np.ndarray) -> np.ndarray:
    Z = Z - Z.max(axis=1, keepdims=True)
    expZ = np.exp(Z)
    return expZ / expZ.sum(axis=1, keepdims=True)


def _minimize(objective, w0, max_iter: int, gtol: float):
    """The one L-BFGS-B call every linear solver in the package makes."""
    from scipy import optimize

    return optimize.minimize(
        objective, w0, jac=True, method="L-BFGS-B",
        options={"maxiter": max_iter, "gtol": gtol},
    )


def _logistic_problem(X, Y, sample_weight, total_weight, alpha,
                      fit_intercept):
    """Multinomial softmax objective over an (augmented) design matrix.

    Returns ``objective(w_flat) -> (loss, grad_flat)`` with the exact
    arithmetic ``LogisticRegression.fit`` has always used; the warm-start
    coalition kernel builds the same closure for every prefix so its cold
    replays are bit-identical to the retrain path.
    """
    d, k = X.shape[1], Y.shape[1]

    def objective(w_flat):
        W = w_flat.reshape(d, k)
        P = _softmax(X @ W)
        weighted = sample_weight[:, None]
        loss = -np.sum(weighted * Y * np.log(P + 1e-12)) / total_weight
        reg_mask = np.ones((d, 1))
        if fit_intercept:
            reg_mask[-1] = 0.0  # never regularize the bias
        loss += 0.5 * alpha * np.sum((W * reg_mask) ** 2)
        grad = X.T @ (weighted * (P - Y)) / total_weight + alpha * W * reg_mask
        return loss, grad.ravel()

    return objective


def _svc_problem(X, signs, sample_weight, C, fit_intercept):
    """Squared-hinge SVM objective over an (augmented) design matrix,
    shared by ``LinearSVC.fit`` and its continuation kernel."""

    def objective(w):
        margins = 1.0 - signs * (X @ w)
        active = np.maximum(margins, 0.0)
        reg_vector = w.copy()
        if fit_intercept:
            reg_vector[-1] = 0.0
        loss = 0.5 * reg_vector @ reg_vector + \
            C * np.sum(sample_weight * active ** 2)
        grad = reg_vector - 2.0 * C * X.T @ (sample_weight * active * signs)
        return loss, grad

    return objective


def _ridge_theta(Xa, y, alpha, fit_intercept):
    """Normal-equation solve ``(Xa'Xa + reg) theta = Xa'y`` — the exact
    arithmetic of ``LinearRegression.fit`` on an already-augmented design
    matrix, reused by the Sherman–Morrison kernel's direct replays."""
    gram = Xa.T @ Xa
    if alpha > 0:
        reg = alpha * np.eye(Xa.shape[1])
        if fit_intercept:
            reg[-1, -1] = 0.0
        gram = gram + reg
    return np.linalg.lstsq(gram, Xa.T @ y, rcond=None)[0]


class LogisticRegression(BaseEstimator):
    """Multinomial logistic regression with L2 regularization.

    Parameters
    ----------
    C:
        Inverse regularization strength; larger means weaker regularization.
    max_iter:
        L-BFGS iteration cap.
    fit_intercept:
        Whether to learn a bias term.
    tol:
        Gradient-norm termination tolerance of the solver.
    warm_start:
        When ``True``, ``fit`` seeds the solver from the previous fit's
        coefficients if the class set and feature count match (otherwise
        it falls back to the usual zero start). The solution satisfies
        the same convergence criteria either way; warm starts only change
        how many iterations it takes to get there.
    """

    def __init__(self, C: float = 1.0, max_iter: int = 200,
                 fit_intercept: bool = True, tol: float = 1e-6,
                 warm_start: bool = False):
        self.C = C
        self.max_iter = max_iter
        self.fit_intercept = fit_intercept
        self.tol = tol
        self.warm_start = warm_start

    # ------------------------------------------------------------------
    def _warm_w0(self):
        """Previous solution as a flat (d, k) start vector, or ``None``."""
        if getattr(self, "coef_", None) is None:
            return None
        W = self.coef_.T
        if self.fit_intercept:
            W = np.vstack([W, self.intercept_[None, :]])
        return self.classes_, W

    def fit(self, X, y, sample_weight=None) -> "LogisticRegression":
        X, y = check_X_y(X, y)
        previous = self._warm_w0() if self.warm_start else None
        self.classes_, encoded = _encode_labels(y)
        n, d = X.shape
        k = len(self.classes_)
        if sample_weight is None:
            sample_weight = np.ones(n)
        else:
            sample_weight = np.asarray(sample_weight, dtype=float)
            if len(sample_weight) != n:
                raise ValidationError("sample_weight length mismatch")

        if self.fit_intercept:
            X = np.column_stack([X, np.ones(n)])
            d += 1
        Y = np.zeros((n, k))
        Y[np.arange(n), encoded] = 1.0
        total_weight = sample_weight.sum()
        if total_weight <= 0:
            raise ValidationError("sample weights must have positive sum")
        # Match the usual convention: sum-of-losses + ||W||^2 / (2C); on
        # the mean-loss scale used below that is alpha = 1 / (C * n).
        alpha = 1.0 / (max(self.C, 1e-12) * total_weight)

        objective = _logistic_problem(X, Y, sample_weight, total_weight,
                                      alpha, self.fit_intercept)
        w0 = np.zeros(d * k)
        if previous is not None:
            prev_classes, prev_W = previous
            if prev_W.shape == (d, k) and np.array_equal(prev_classes,
                                                         self.classes_):
                w0 = prev_W.ravel()
        result = _minimize(objective, w0, self.max_iter, self.tol)
        W = result.x.reshape(d, k)
        if self.fit_intercept:
            self.coef_ = W[:-1].T
            self.intercept_ = W[-1]
        else:
            self.coef_ = W.T
            self.intercept_ = np.zeros(k)
        self.n_features_in_ = X.shape[1] - (1 if self.fit_intercept else 0)
        self.n_iter_ = int(result.nit)
        self.grad_norm_ = float(np.max(np.abs(result.jac)))
        return self

    def decision_function(self, X) -> np.ndarray:
        check_fitted(self)
        X = check_array(X)
        return X @ self.coef_.T + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        return _softmax(self.decision_function(X))

    def predict(self, X) -> np.ndarray:
        scores = self.decision_function(X)
        return self.classes_[np.argmax(scores, axis=1)]

    def score(self, X, y) -> float:
        from repro.ml.metrics import accuracy_score

        return accuracy_score(y, self.predict(X))


class LinearRegression(BaseEstimator):
    """Ordinary least squares / ridge regression (closed form)."""

    def __init__(self, alpha: float = 0.0, fit_intercept: bool = True):
        self.alpha = alpha
        self.fit_intercept = fit_intercept

    def fit(self, X, y, sample_weight=None) -> "LinearRegression":
        X = check_array(X)
        y = np.asarray(y, dtype=float)
        if y.ndim != 1 or len(y) != len(X):
            raise ValidationError("y must be a 1-D vector matching X")
        n, d = X.shape
        if sample_weight is not None:
            w = np.sqrt(np.asarray(sample_weight, dtype=float))
            X = X * w[:, None]
            y = y * w
        if self.fit_intercept:
            X = np.column_stack([X, np.ones(n)])
        theta = _ridge_theta(X, y, self.alpha, self.fit_intercept)
        if self.fit_intercept:
            self.coef_ = theta[:-1]
            self.intercept_ = float(theta[-1])
        else:
            self.coef_ = theta
            self.intercept_ = 0.0
        return self

    def predict(self, X) -> np.ndarray:
        check_fitted(self)
        X = check_array(X)
        return X @ self.coef_ + self.intercept_

    def score(self, X, y) -> float:
        """Coefficient of determination (R^2)."""
        y = np.asarray(y, dtype=float)
        pred = self.predict(X)
        ss_res = np.sum((y - pred) ** 2)
        ss_tot = np.sum((y - y.mean()) ** 2)
        return 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0


class LinearSVC(BaseEstimator):
    """Binary linear SVM with squared hinge loss, solved by L-BFGS.

    The certain-model analysis in :mod:`repro.uncertain.certain_models`
    targets this loss, matching reference [92] of the paper. Accepts
    ``warm_start=True`` with the same semantics as
    :class:`LogisticRegression`.
    """

    def __init__(self, C: float = 1.0, max_iter: int = 200,
                 fit_intercept: bool = True, tol: float = 1e-6,
                 warm_start: bool = False):
        self.C = C
        self.max_iter = max_iter
        self.fit_intercept = fit_intercept
        self.tol = tol
        self.warm_start = warm_start

    def _warm_w0(self):
        """Previous solution as a flat start vector, or ``None``."""
        if getattr(self, "coef_", None) is None:
            return None
        w = self.coef_
        if self.fit_intercept:
            w = np.concatenate([w, [self.intercept_]])
        return self.classes_, w

    def fit(self, X, y, sample_weight=None) -> "LinearSVC":
        X, y = check_X_y(X, y)
        previous = self._warm_w0() if self.warm_start else None
        self.classes_, encoded = _encode_labels(y)
        if len(self.classes_) != 2:
            raise ValidationError("LinearSVC is binary; got "
                                  f"{len(self.classes_)} classes")
        signs = np.where(encoded == 1, 1.0, -1.0)
        n, d = X.shape
        if sample_weight is None:
            sample_weight = np.ones(n)
        else:
            sample_weight = np.asarray(sample_weight, dtype=float)
        if self.fit_intercept:
            X = np.column_stack([X, np.ones(n)])
            d += 1

        objective = _svc_problem(X, signs, sample_weight, self.C,
                                 self.fit_intercept)
        w0 = np.zeros(d)
        if previous is not None:
            prev_classes, prev_w = previous
            if prev_w.shape == (d,) and np.array_equal(prev_classes,
                                                       self.classes_):
                w0 = prev_w
        result = _minimize(objective, w0, self.max_iter, self.tol)
        w = result.x
        if self.fit_intercept:
            self.coef_ = w[:-1]
            self.intercept_ = float(w[-1])
        else:
            self.coef_ = w
            self.intercept_ = 0.0
        self.n_iter_ = int(result.nit)
        self.grad_norm_ = float(np.max(np.abs(result.jac)))
        return self

    def decision_function(self, X) -> np.ndarray:
        check_fitted(self)
        X = check_array(X)
        return X @ self.coef_ + self.intercept_

    def predict(self, X) -> np.ndarray:
        return self.classes_[(self.decision_function(X) > 0).astype(int)]

    def score(self, X, y) -> float:
        from repro.ml.metrics import accuracy_score

        return accuracy_score(y, self.predict(X))
