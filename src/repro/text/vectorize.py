"""Text vectorizers: hashing bag-of-words, TF-IDF, dense sentence
embeddings (the SentenceBERT stand-in)."""

from __future__ import annotations

import hashlib
import weakref

import numpy as np

from repro.core.exceptions import ValidationError
from repro.ml.base import BaseEstimator, TransformerMixin, check_fitted
from repro.text.tokenize import tokenize


def _stable_hash(token: str) -> int:
    """Deterministic 64-bit token hash, stable across processes
    (Python's built-in ``hash`` is salted per process)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


# Memo of finished (normalized) hashed rows keyed by the full vectorizer
# parameters plus the text. Re-running a pipeline over the same frame —
# what-if analysis, importance scoring, repeated serve jobs — re-embeds
# the same texts; a hit skips tokenization, hashing and normalization
# entirely. Rows are cached *before* any downstream projection, so batch
# composition cannot change results (per-row ops only). Bounded: cleared
# wholesale when the cap would be exceeded.
_ROW_CACHE_LIMIT = 4096
_row_cache: dict[tuple, np.ndarray] = {}


# Memo of per-text vocabulary column arrays, one per fitted TfidfVectorizer
# (weakly keyed, so it goes with the vectorizer) and tagged with the
# vocabulary object and stopword setting it was built for: a refit or a
# different vocabulary starts a fresh memo. Re-encoding the same frame --
# one cleaning round after another -- then skips tokenization. Stores
# integer arrays, never token strings. Bounded per vectorizer: cleared
# wholesale at the cap.
_TFIDF_CACHE_LIMIT = 4096
_tfidf_columns_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _gram_hashes(text: str, ngram_range: tuple[int, int],
                 drop_stopwords: bool) -> np.ndarray:
    tokens = tokenize(text, drop_stopwords=drop_stopwords)
    lo, hi = ngram_range
    return np.array(
        [_stable_hash(" ".join(tokens[i:i + n]))
         for n in range(lo, hi + 1)
         for i in range(len(tokens) - n + 1)],
        dtype=np.uint64,
    )


def _as_texts(X) -> list[str]:
    if hasattr(X, "to_list"):  # Column
        return ["" if t is None else str(t) for t in X.to_list()]
    X = np.asarray(X, dtype=object)
    if X.ndim == 2 and X.shape[1] == 1:
        X = X[:, 0]
    if X.ndim != 1:
        raise ValidationError(f"expected a vector of texts, got shape {X.shape}")
    return ["" if t is None or (isinstance(t, float) and np.isnan(t)) else str(t)
            for t in X]


class HashingVectorizer(BaseEstimator, TransformerMixin):
    """Feature-hashed bag of words with signed buckets.

    Parameters
    ----------
    n_features:
        Number of hash buckets.
    ngram_range:
        ``(min_n, max_n)`` word n-gram sizes.
    norm:
        ``"l2"``, ``"l1"`` or ``None`` row normalization.
    """

    def __init__(self, n_features: int = 512, ngram_range: tuple[int, int] = (1, 1),
                 norm: str | None = "l2", drop_stopwords: bool = False):
        self.n_features = n_features
        self.ngram_range = ngram_range
        self.norm = norm
        self.drop_stopwords = drop_stopwords

    def fit(self, X, y=None) -> "HashingVectorizer":
        self.fitted_ = True  # stateless, but keep the protocol uniform
        return self

    def transform(self, X) -> np.ndarray:
        if self.norm not in ("l2", "l1", None):
            raise ValidationError(f"unknown norm {self.norm!r}")
        texts = _as_texts(X)
        params = (self.n_features, self.ngram_range, self.drop_stopwords,
                  self.norm)
        out = np.empty((len(texts), self.n_features))
        missing: list[int] = []
        for i, text in enumerate(texts):
            row = _row_cache.get((params, text))
            if row is None:
                missing.append(i)
            else:
                out[i] = row
        if missing:
            fresh = self._transform_uncached([texts[i] for i in missing])
            if len(_row_cache) + len(missing) > _ROW_CACHE_LIMIT:
                _row_cache.clear()
            for j, i in enumerate(missing):
                out[i] = fresh[j]
                _row_cache[(params, texts[i])] = fresh[j].copy()
        return out

    def _transform_uncached(self, texts: list[str]) -> np.ndarray:
        rows = [_gram_hashes(text, self.ngram_range, self.drop_stopwords)
                for text in texts]
        lengths = np.array([len(r) for r in rows], dtype=np.int64)
        total = int(lengths.sum())
        if total == 0:
            out = np.zeros((len(texts), self.n_features))
        else:
            hashes = np.concatenate(rows)
            buckets = (hashes % np.uint64(self.n_features)).astype(np.int64)
            signs = np.where((hashes >> np.uint64(63)).astype(bool), 1.0, -1.0)
            row_idx = np.repeat(np.arange(len(texts), dtype=np.int64), lengths)
            # One flattened bincount over (row, bucket) pairs. Sums of
            # +-1.0 are exact in float64 regardless of order, so this
            # matches the scalar accumulation bit-for-bit.
            flat = np.bincount(row_idx * self.n_features + buckets,
                               weights=signs,
                               minlength=len(texts) * self.n_features)
            out = flat.reshape(len(texts), self.n_features)
        # Normalization is strictly per-row (the reduction never crosses
        # rows), so rows normalized in different batches are identical —
        # which is what makes the per-text row cache bit-exact.
        if self.norm == "l2":
            norms = np.linalg.norm(out, axis=1, keepdims=True)
            out = out / np.maximum(norms, 1e-12)
        elif self.norm == "l1":
            norms = np.abs(out).sum(axis=1, keepdims=True)
            out = out / np.maximum(norms, 1e-12)
        return out


class TfidfVectorizer(BaseEstimator, TransformerMixin):
    """Vocabulary-based TF-IDF with smoothed document frequencies."""

    def __init__(self, max_features: int | None = None, min_df: int = 1,
                 drop_stopwords: bool = True):
        self.max_features = max_features
        self.min_df = min_df
        self.drop_stopwords = drop_stopwords

    def fit(self, X, y=None) -> "TfidfVectorizer":
        texts = _as_texts(X)
        doc_freq: dict[str, int] = {}
        for text in texts:
            for token in set(tokenize(text, drop_stopwords=self.drop_stopwords)):
                doc_freq[token] = doc_freq.get(token, 0) + 1
        items = [(t, c) for t, c in doc_freq.items() if c >= self.min_df]
        items.sort(key=lambda tc: (-tc[1], tc[0]))
        if self.max_features is not None:
            items = items[: self.max_features]
        self.vocabulary_ = {token: i for i, (token, _) in enumerate(items)}
        n_docs = len(texts)
        self.idf_ = np.array([
            np.log((1.0 + n_docs) / (1.0 + count)) + 1.0 for _, count in items
        ])
        return self

    def _columns_memo(self) -> dict[str, np.ndarray]:
        vocabulary, drop_stopwords, memo = _tfidf_columns_cache.get(
            self, (None, None, None))
        if (vocabulary is not self.vocabulary_
                or drop_stopwords != self.drop_stopwords):
            memo = {}
            _tfidf_columns_cache[self] = (self.vocabulary_,
                                          self.drop_stopwords, memo)
        return memo

    def _columns(self, text: str, memo: dict) -> np.ndarray:
        cols = memo.get(text)
        if cols is None:
            vocabulary = self.vocabulary_
            cols = np.array(
                [vocabulary[token]
                 for token in tokenize(text,
                                       drop_stopwords=self.drop_stopwords)
                 if token in vocabulary], dtype=np.intp)
            if len(memo) >= _TFIDF_CACHE_LIMIT:
                memo.clear()
            memo[text] = cols
        return cols

    def transform(self, X) -> np.ndarray:
        check_fitted(self)
        texts = _as_texts(X)
        width = len(self.vocabulary_)
        memo = self._columns_memo()
        rows = [self._columns(text, memo) for text in texts]
        lengths = np.array([len(r) for r in rows], dtype=np.intp)
        if lengths.sum() == 0:
            out = np.zeros((len(texts), width))
        else:
            # Term counts are sums of 1.0, exact in any order.
            flat = (np.repeat(np.arange(len(texts), dtype=np.intp), lengths)
                    * width + np.concatenate(rows))
            out = np.bincount(flat, weights=np.ones(len(flat)),
                              minlength=len(texts) * width
                              ).reshape(len(texts), width)
        out *= self.idf_
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        return out / np.maximum(norms, 1e-12)


class SentenceEmbedder(BaseEstimator, TransformerMixin):
    """Dense sentence embeddings: hashed bag-of-words -> signed random
    projection (Johnson–Lindenstrauss), producing SentenceBERT-shaped
    ``(n, dim)`` float vectors.

    Parameters
    ----------
    dim:
        Output embedding dimensionality.
    n_buckets:
        Intermediate hashing width; larger means fewer collisions.
    seed:
        Seed for the fixed projection matrix (the "pretrained weights").
    """

    def __init__(self, dim: int = 64, n_buckets: int = 2048, seed: int = 13):
        self.dim = dim
        self.n_buckets = n_buckets
        self.seed = seed

    def fit(self, X, y=None) -> "SentenceEmbedder":
        rng = np.random.default_rng(self.seed)
        self.projection_ = rng.standard_normal((self.n_buckets, self.dim)) / np.sqrt(self.dim)
        self._hasher = HashingVectorizer(n_features=self.n_buckets, norm="l2",
                                         ngram_range=(1, 2))
        self._hasher.fit(X)
        return self

    def transform(self, X) -> np.ndarray:
        check_fitted(self)
        hashed = self._hasher.transform(X)
        embedded = hashed @ self.projection_
        norms = np.linalg.norm(embedded, axis=1, keepdims=True)
        return embedded / np.maximum(norms, 1e-12)
