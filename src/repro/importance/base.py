"""The utility function shared by game-theoretic importance methods.

Data Shapley, Banzhaf and Beta Shapley all view training as a cooperative
game: a coalition is a subset of training examples, and the coalition's
payoff is the quality (validation metric) of a model trained on it.
:class:`Utility` packages that game, with caching and well-defined
behaviour on degenerate coalitions (empty or single-class subsets, which
most models cannot fit).

Evaluation runs through :mod:`repro.runtime`: pass ``runtime=`` to pick a
backend (``serial`` / ``thread`` / ``process``), share a
:class:`~repro.runtime.FingerprintCache` across estimators and runs, and
get progress/cancellation hooks. The batch APIs
(:meth:`Utility.evaluate_many`, :meth:`Utility.walk_permutations`) are
what the estimators submit work through; their results are
backend-invariant because every task is a pure function of its inputs.

When the model has a registered incremental kernel
(:mod:`repro.importance.kernels` — the registry covers the whole
``repro.ml`` model zoo), coalition values come from the kernel's
precomputed state instead of a fresh clone-and-fit, with bit-identical
(or certified-exact) scores, identical ``calls`` accounting and
unchanged cache keys. Models with a documented fallback registration use
the retrain path exactly as before; either way
:attr:`Utility.kernel_resolution` records how dispatch concluded.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import ValidationError
from repro.core.validation import check_X_y
from repro.importance.kernels import CoalitionKernel, resolve_kernel
from repro.ml.base import clone
from repro.ml.metrics import accuracy_score
from repro.runtime.cache import fingerprint
from repro.runtime.runtime import Runtime, resolve_runtime


class _UtilityCore:
    """Picklable evaluation core: everything a worker needs to compute
    ``u(S)``, and nothing it does not (no caches, no pools). The optional
    incremental kernel lives here so process workers receive its
    precomputed state (distance matrix / sufficient statistics) once,
    with the shared payload, not per task."""

    def __init__(self, model, X_train, y_train, X_valid, y_valid, metric,
                 kernel: CoalitionKernel | None = None):
        self.model = model
        self.X_train = X_train
        self.y_train = y_train
        self.X_valid = X_valid
        self.y_valid = y_valid
        self.metric = metric
        self.majority = _majority_class(y_valid)
        self.kernel = kernel

    def null_value(self) -> float:
        constant = np.full(len(self.y_valid), self.majority)
        return float(self.metric(self.y_valid, constant))

    def evaluate(self, subset: np.ndarray) -> tuple[float, int, bool]:
        """Value of one coalition.

        Returns ``(value, n_trainings, used_kernel)``; ``n_trainings``
        counts the model fits the retrain path performs (the kernel
        reports the same counts without fitting, so convergence and
        ``Utility.calls`` accounting are path-independent).
        """
        if len(subset) == 0:
            return self.null_value(), 0, False
        y_sub = self.y_train[subset]
        classes = np.unique(y_sub)
        if len(classes) < 2:
            # Single-class coalition: the induced model is the constant
            # predictor of that class.
            constant = np.full(len(self.y_valid), classes[0])
            return float(self.metric(self.y_valid, constant)), 0, False
        if self.kernel is not None:
            # `incremental` is the kernel's honesty flag: False means it
            # answered by replaying a full direct solve, which must land
            # in the fallback_retrains counter like any other retrain.
            return self.kernel.evaluate(subset, y_sub, classes)
        trained = 0
        try:
            model = clone(self.model)
            model.fit(self.X_train[subset], y_sub)
            trained = 1
            predictions = model.predict(self.X_valid)
        except ValidationError:
            # Coalition too small for this model (e.g. k-NN with
            # |S| < k): fall back to the coalition's majority class,
            # the best constant predictor the coalition supports.
            predictions = np.full(len(self.y_valid), _majority_class(y_sub))
        return float(self.metric(self.y_valid, predictions)), trained, False

    def walk_steps(self, permutation: np.ndarray):
        """Yield ``(value, trained, used_kernel)`` per prefix of
        ``permutation`` — the kernel's incremental walk when one is
        attached, otherwise one retrain-path evaluation per prefix."""
        if self.kernel is not None:
            return self.kernel.walk_steps(permutation)
        return (self.evaluate(permutation[: pos + 1])
                for pos in range(len(permutation)))


def _evaluate_subset_task(core: _UtilityCore,
                          subset) -> tuple[float, int, bool]:
    return core.evaluate(subset)


def _walk_permutation_task(core: _UtilityCore, task):
    """Walk one permutation's prefix chain; returns ``(marginals,
    n_trainings, kernel_steps, fallback_retrains)`` where
    ``marginals[pos]`` belongs to player ``permutation[pos]``. Positions
    after a truncation point keep marginal 0."""
    permutation, truncation_tol, full_value, null_value = task
    marginals = np.zeros(len(permutation))
    previous = null_value
    trainings = 0
    kernel_steps = 0
    fallback_retrains = 0
    for pos, (value, trained, used_kernel) in enumerate(
            core.walk_steps(permutation)):
        trainings += trained
        if used_kernel:
            kernel_steps += 1
        else:
            fallback_retrains += trained
        marginals[pos] = value - previous
        previous = value
        if truncation_tol > 0 and abs(full_value - value) < truncation_tol:
            break
    return marginals, trainings, kernel_steps, fallback_retrains


class Utility:
    """Coalition-value function ``u(S) = metric(model trained on S)``.

    Parameters
    ----------
    model:
        Unfitted estimator prototype; cloned for every evaluation.
    X_train, y_train:
        The full player pool; coalitions index into these.
    X_valid, y_valid:
        Held-out data the metric is computed on.
    metric:
        ``metric(y_true, y_pred) -> float``; accuracy by default.
    cache:
        Memoize coalition values by index frozenset in-process. Worth it
        for MSR-style estimators that revisit coalitions; permutation
        sampling rarely repeats, so it can be disabled.
    runtime:
        ``None`` for inline serial evaluation, a backend name
        (``"serial"``/``"thread"``/``"process"``), or a
        :class:`repro.runtime.Runtime`. A runtime with a
        :class:`~repro.runtime.FingerprintCache` additionally memoizes
        values across Utility instances and (with a disk tier) processes.
        When the utility builds the runtime itself (backend name or bare
        executor), it owns it: use the utility as a context manager, or
        call :meth:`close`, to release the worker pool deterministically.
    faults:
        Optional :class:`repro.runtime.FaultPolicy` (or dict of its
        fields) for the runtime this utility builds — retries, per-chunk
        timeouts, and the ``on_worker_failure`` degradation strategy
        applied to every batch. Only valid together with a backend-name
        ``runtime``; a shared :class:`~repro.runtime.Runtime` carries
        its own policy.
    kernel:
        ``"auto"`` (default) attaches the registered incremental kernel
        for the model's type when one exists (dispatch walks the MRO and
        covers the whole ``repro.ml`` zoo — k-NN, GaussianNB, the linear
        Sherman–Morrison kernel, the warm-start continuation kernels and
        coalition-invariant Pipelines), making coalition evaluation
        O(update) instead of O(retrain) with bit-identical or
        certified-exact scores; ``"off"`` / ``None`` / ``False`` forces
        the retrain path; a :class:`repro.importance.CoalitionKernel`
        instance is used as-is. :attr:`kernel_resolution` records how
        auto-dispatch concluded (kernel / declined / documented fallback
        / unregistered). The kernel is built eagerly so the process
        backend ships its precomputed state to workers exactly once.
    """

    def __init__(self, model, X_train, y_train, X_valid, y_valid,
                 metric=accuracy_score, cache: bool = True, runtime=None,
                 kernel="auto", faults=None):
        X_train, y_train = check_X_y(X_train, y_train)
        X_valid, y_valid = check_X_y(X_valid, y_valid)
        if kernel == "auto":
            kernel, resolution = resolve_kernel(model, X_train, y_train,
                                                X_valid, y_valid, metric)
        elif kernel in (None, False, "off"):
            kernel = None
            resolution = {"resolution": "disabled",
                          "reason": "kernel explicitly disabled"}
        elif isinstance(kernel, CoalitionKernel):
            resolution = {"resolution": "kernel", "kernel": kernel.name,
                          "registered_for": None,
                          "reason": "caller-supplied kernel instance"}
        else:
            raise ValidationError(
                "kernel must be 'auto', 'off'/None/False, or a "
                f"CoalitionKernel — got {type(kernel).__name__}")
        self.kernel_resolution = resolution
        self._core = _UtilityCore(model, X_train, y_train, X_valid, y_valid,
                                  metric, kernel=kernel)
        self.runtime = resolve_runtime(runtime, faults=faults)
        self._owns_runtime = (self.runtime is not None
                              and not isinstance(runtime, Runtime))
        self._cache: dict[tuple, float] | None = {} if cache else None
        self.calls = 0  # number of *model trainings* performed (or skipped
        # by an incremental kernel — the count is path-independent)
        self.kernel_steps = 0       # coalition values via the kernel
        self.fallback_retrains = 0  # actual clone+fit evaluations
        self._kernel_announced = False
        self._base_fingerprint: str | None = None

    @classmethod
    def from_sharded(cls, model, train, X_valid, y_valid, *,
                     features: str = "X", label: str = "y",
                     reader: dict | None = None, observer=None, **kwargs):
        """Build a utility whose player pool lives in a sharded dataset.

        ``train`` is a :class:`repro.data.ShardedDataset` (or its
        directory path) holding the ``features``/``label`` arrays. The
        pool is streamed in through the fault-tolerant reading service —
        pass ``reader={"workers": ..., "faults": ..., "on_corrupt":
        ...}`` to control it — and, because shard reads are bit-exact,
        every downstream score (and every coalition fingerprint) is
        hex-identical to a utility built on the in-memory arrays, on
        every backend, with or without reader faults along the way.
        Remaining ``**kwargs`` go to the regular constructor.
        """
        from repro.data import read_arrays, resolve_dataset
        dataset = resolve_dataset(train, observer=observer)
        arrays = read_arrays(dataset, observer=observer, **(reader or {}))
        for name in (features, label):
            if name not in arrays:
                raise ValidationError(
                    f"sharded dataset {dataset.path} has no array named "
                    f"{name!r}; have {dataset.array_names}")
        return cls(model, arrays[features], arrays[label],
                   X_valid, y_valid, **kwargs)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Release the worker pool of a runtime this utility built for
        itself (``runtime="thread"`` / ``"process"``). A shared
        :class:`~repro.runtime.Runtime` passed in by the caller is left
        untouched — its owner closes it."""
        if self._owns_runtime and self.runtime is not None:
            self.runtime.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- convenience views (kept for backwards compatibility) --------------
    @property
    def model(self):
        return self._core.model

    @property
    def X_train(self):
        return self._core.X_train

    @property
    def y_train(self):
        return self._core.y_train

    @property
    def X_valid(self):
        return self._core.X_valid

    @property
    def y_valid(self):
        return self._core.y_valid

    @property
    def metric(self):
        return self._core.metric

    @property
    def n_players(self) -> int:
        return len(self._core.y_train)

    @property
    def kernel(self) -> CoalitionKernel | None:
        """The attached incremental kernel, or ``None`` (retrain path)."""
        return self._core.kernel

    @property
    def kernel_name(self) -> str | None:
        """Short name of the active kernel (``"knn"``, ``"gaussian_nb"``)
        or ``None`` when evaluations retrain the model."""
        return self._core.kernel.name if self._core.kernel else None

    # -- fingerprinting ----------------------------------------------------
    def base_fingerprint(self) -> str:
        """Hash of (model config, data, metric) — the game's identity.
        Computed once; coalition keys extend it with the sorted indices."""
        if self._base_fingerprint is None:
            core = self._core
            self._base_fingerprint = fingerprint(
                core.model, core.X_train, core.y_train, core.X_valid,
                core.y_valid, core.metric)
        return self._base_fingerprint

    def coalition_key(self, subset: np.ndarray) -> str:
        return fingerprint(self.base_fingerprint(), np.sort(subset))

    # -- scalar values -----------------------------------------------------
    def null_value(self) -> float:
        """Utility of the empty coalition: predict the validation majority
        class (the best label-free constant predictor)."""
        return self._core.null_value()

    def full_value(self) -> float:
        """Utility of the grand coalition (all training data)."""
        return self(np.arange(self.n_players))

    def __call__(self, subset_indices) -> float:
        return float(self.evaluate_many([subset_indices],
                                        stage="utility.call")[0])

    # -- batch APIs --------------------------------------------------------
    def _check_subset(self, subset_indices) -> np.ndarray:
        subset = np.asarray(subset_indices, dtype=int)
        if subset.ndim != 1:
            raise ValidationError("subset indices must be a 1-D index array")
        return subset

    def _poll_cancel(self, stage: str) -> None:
        # The executor polls between chunks, but small batches may take
        # the inline fast path; a tripped token must abort those too.
        if self.runtime is not None and self.runtime.cancel is not None:
            self.runtime.cancel.raise_if_cancelled(stage)

    def evaluate_many(self, coalitions, *,
                      stage: str = "utility.batch") -> np.ndarray:
        """Evaluate a batch of coalitions; returns values in batch order.

        Cache hits (in-process memo and the runtime's fingerprint cache)
        are resolved up front; only the distinct misses are dispatched to
        the runtime's executor. Duplicate coalitions inside one batch —
        under the canonical sorted-index key, so element order never
        matters — are evaluated once, even when the in-process memo is
        disabled.
        """
        self._poll_cancel(stage)
        subsets = [self._check_subset(c) for c in coalitions]
        values = np.empty(len(subsets))
        memo = self._cache
        shared_cache = self.runtime.cache if self.runtime is not None else None
        pending: dict[tuple, list[int]] = {}
        # (memo key, subset as given, shared-cache key or None) per miss
        order: list[tuple[tuple, np.ndarray, str | None]] = []
        for i, subset in enumerate(subsets):
            if len(subset) == 0:
                values[i] = self._core.null_value()
                continue
            # One sort per coalition: it yields both the memo key and the
            # shared-cache key, which is hashed only on a memo miss.
            ordered = np.sort(subset)
            memo_key = tuple(ordered.tolist())
            if memo is not None and memo_key in memo:
                values[i] = memo[memo_key]
                continue
            shared_key = None
            if shared_cache is not None:
                shared_key = fingerprint(self.base_fingerprint(), ordered)
                cached = shared_cache.get(shared_key)
                if cached is not None:
                    values[i] = cached
                    continue
            if memo_key in pending:
                pending[memo_key].append(i)
            else:
                pending[memo_key] = [i]
                order.append((memo_key, subset, shared_key))
        if order:
            if self.runtime is not None and len(order) > 1:
                results = self.runtime.map(
                    _evaluate_subset_task, [s for _, s, _ in order],
                    shared=self._core, stage=stage)
            else:
                results = [self._core.evaluate(s) for _, s, _ in order]
            kernel_steps = 0
            fallback_retrains = 0
            for (memo_key, _, shared_key), (value, trained, used_kernel) in \
                    zip(order, results):
                self.calls += trained
                if used_kernel:
                    kernel_steps += 1
                else:
                    fallback_retrains += trained
                if memo is not None:
                    memo[memo_key] = value
                if shared_key is not None:
                    shared_cache.put(shared_key, value)
                for i in pending[memo_key]:
                    values[i] = value
            self._record_kernel_activity(kernel_steps, fallback_retrains)
        return values

    def walk_permutations(self, permutations, *, truncation_tol: float = 0.0,
                          full_value: float | None = None,
                          stage: str = "utility.walks") -> list[np.ndarray]:
        """Walk each permutation's prefix chain (optionally truncated).

        Returns one marginal-contribution array per permutation, aligned
        by position (``marginals[pos]`` belongs to ``permutation[pos]``).
        Each walk is an independent task, so batches parallelize across
        permutations on any backend with identical results.
        """
        self._poll_cancel(stage)
        if truncation_tol < 0:
            raise ValidationError("truncation_tol must be >= 0")
        if truncation_tol > 0 and full_value is None:
            full_value = self.full_value()
        null_value = self.null_value()
        tasks = [(self._check_subset(p), float(truncation_tol),
                  0.0 if full_value is None else float(full_value),
                  null_value)
                 for p in permutations]
        if self.runtime is not None and len(tasks) > 1:
            results = self.runtime.map(_walk_permutation_task, tasks,
                                       shared=self._core, stage=stage)
        else:
            results = [_walk_permutation_task(self._core, t) for t in tasks]
        marginal_arrays = []
        kernel_steps = 0
        fallback_retrains = 0
        for marginals, trainings, steps, fallbacks in results:
            self.calls += trainings
            kernel_steps += steps
            fallback_retrains += fallbacks
            marginal_arrays.append(marginals)
        self._record_kernel_activity(kernel_steps, fallback_retrains)
        return marginal_arrays

    # -- introspection -----------------------------------------------------
    def _record_kernel_activity(self, kernel_steps: int,
                                fallback_retrains: int) -> None:
        """Fold one batch's path counters into the utility totals and,
        when the runtime carries an enabled observer, emit them as
        ``kernel.incremental_steps`` / ``kernel.fallback_retrains`` plus
        a one-time ``utility.kernel`` selection event."""
        self.kernel_steps += kernel_steps
        self.fallback_retrains += fallback_retrains
        observer = self.runtime.observer if self.runtime is not None else None
        if observer is None or not observer.enabled:
            return
        if not self._kernel_announced:
            self._kernel_announced = True
            observer.event("utility.kernel", kernel=self.kernel_name,
                           model=type(self._core.model).__name__,
                           n_players=self.n_players,
                           resolution=self.kernel_resolution.get(
                               "resolution"),
                           reason=self.kernel_resolution.get("reason"))
        if kernel_steps:
            observer.count("kernel.incremental_steps", kernel_steps)
        if fallback_retrains:
            observer.count("kernel.fallback_retrains", fallback_retrains)

    def restore_accounting(self, *, calls: int = 0, kernel_steps: int = 0,
                           fallback_retrains: int = 0) -> None:
        """Fold a resumed checkpoint's recorded work back into the
        counters, so a resumed run reports the same training/kernel
        totals as an uninterrupted one (the skipped permutations'
        trainings happened — in the killed process)."""
        self.calls += int(calls)
        self.kernel_steps += int(kernel_steps)
        self.fallback_retrains += int(fallback_retrains)

    def cache_info(self) -> dict:
        """Counters for reports: trainings, memo size, kernel path
        counters, runtime stats."""
        return {
            "calls": self.calls,
            "memo_entries": len(self._cache) if self._cache is not None else 0,
            "kernel": {
                "name": self.kernel_name,
                "incremental_steps": self.kernel_steps,
                "fallback_retrains": self.fallback_retrains,
                "resolution": self.kernel_resolution,
            },
            "runtime": self.runtime.stats() if self.runtime is not None
            else None,
        }


def _majority_class(y: np.ndarray):
    classes, counts = np.unique(y, return_counts=True)
    return classes[np.argmax(counts)]


# --- anytime/partial-result plumbing shared by the estimator loops ----------

def clt_stderr(sums: np.ndarray, sumsqs: np.ndarray,
               count: int) -> np.ndarray:
    """Per-player standard error of the running mean after ``count``
    i.i.d. samples.

    ``sums``/``sumsqs`` accumulate each player's samples and squared
    samples; the CLT estimate is ``sqrt(sample_var / count)`` with the
    unbiased (``count - 1``) variance. Returns ``inf`` for every player
    while ``count < 2`` — one sample carries no spread information, so
    an anytime consumer's ``stop_when(width)`` can never fire on it.
    """
    if count < 2:
        return np.full(len(sums), np.inf)
    mean = sums / count
    var = np.maximum(sumsqs - count * mean * mean, 0.0) / (count - 1)
    return np.sqrt(var / count)


def resolve_partial(partial):
    """Normalize the ``partial=`` anytime-results hook the sampling
    estimators accept.

    ``None`` disables partial publishing. Anything else must expose a
    callable ``publish(method=, completed=, total=, values=, stderr=)``
    returning truthy to stop the loop early, plus an optional integer
    ``every`` attribute bounding the units folded between two publishes
    (the loop publishes once per batch; default 1). Estimators may pass
    additional keyword fields (e.g. ``exact=True`` from the closed-form
    Shapley dispatch), so duck-typed hooks should accept ``**fields``.
    :class:`repro.serve.AnytimeEstimate` implements this protocol.
    """
    if partial is None:
        return None
    if not callable(getattr(partial, "publish", None)):
        raise ValidationError(
            "partial= must be None or expose a publish(**fields) callable "
            f"(see repro.serve.AnytimeEstimate) — got "
            f"{type(partial).__name__}")
    return partial


# --- checkpoint/resume plumbing shared by the estimator loops ---------------

def hex_floats(values) -> list[str]:
    """Bitwise-exact serialization of a float sequence (``float.hex``)."""
    return [float(v).hex() for v in values]


def unhex_floats(hexes) -> np.ndarray:
    """Inverse of :func:`hex_floats`; restores the exact bit patterns."""
    return np.array([float.fromhex(h) for h in hexes], dtype=float)


def require_checkpoint_seed(seed, method: str) -> int:
    """Checkpoint/resume needs the sample stream to be regenerable: the
    resumed process re-derives permutation/coalition ``i`` from
    ``spawn_rngs(seed, n)[i]``, which is only deterministic for an
    integer root seed (``None`` draws OS entropy; a shared ``Generator``
    carries cross-run state)."""
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        return int(seed)
    raise ValidationError(
        f"{method}: checkpoint=/resume_from= require an integer seed so "
        "the resumed run regenerates the identical sample streams — got "
        f"{type(seed).__name__}")
