"""TF-IDF transform: golden output digests and the per-vectorizer
column memo.

The digests were taken from the tokenize-every-call transform the memo
replaced; the memoized transform must reproduce them byte for byte.
"""

import hashlib

import numpy as np
import pytest

from repro.runtime.cache import fingerprint
from repro.text import TfidfVectorizer
from repro.text import vectorize

FIT_CORPUS = [
    "The quick brown fox jumps over the lazy dog dog dog",
    "A lazy cat and a quick quick mouse",
    "",
    None,
    "Dog's day: dogs, cats & 42 mice!",
    "brown brown brown bread",
    "it is what it is",
    "The end.",
]
# Repeated tokens, out-of-vocabulary tokens, stopwords, empty and None
# texts, and a text repeated within one call.
TEXTS = [
    "quick quick quick fox",
    "unseen words only here",
    "the and of",
    "",
    None,
    "Dog's brown bread, the lazy DOG",
    "fox " * 50,
    "cat mouse 42 zebra",
    "quick quick quick fox",
]
GOLDEN = [
    ({}, (9, 18),
     "33ce77c4f7ae4ae7364fe455255d4499e2115d9f29b342afda3d0b027fe1b827"),
    ({"drop_stopwords": False}, (9, 23),
     "9adae1c731c9069fee2be6c11807707c7e891b13445908638037da3ec80bf799"),
    ({"max_features": 3}, (9, 3),
     "c3a78ee232d8263084e1aeedc07fd7aec152d691486a80cdf6a886ce475b8c69"),
    ({"min_df": 2}, (9, 3),
     "c3a78ee232d8263084e1aeedc07fd7aec152d691486a80cdf6a886ce475b8c69"),
    ({"max_features": 5, "min_df": 2, "drop_stopwords": False}, (9, 4),
     "24d60f9c0dc833872bfa335bc1ebb44b668effcb323e8dfebdfba3e035a89b00"),
    ({"min_df": 100}, (9, 0),
     "15de2d579c5d1f32c2d76c369887a3b436647de523d6ff7c5c06077c3ddf179a"),
]


def _digest(Z: np.ndarray) -> str:
    return hashlib.sha256(str(Z.dtype).encode() + str(Z.shape).encode()
                          + np.ascontiguousarray(Z).tobytes()).hexdigest()


def _memo(vectorizer) -> dict:
    return vectorize._tfidf_columns_cache[vectorizer][2]


@pytest.mark.parametrize("params,shape,digest", GOLDEN)
def test_transform_matches_golden_digest(params, shape, digest):
    vectorizer = TfidfVectorizer(**params).fit(FIT_CORPUS)
    first = vectorizer.transform(TEXTS)
    assert first.shape == shape
    assert _digest(first) == digest
    # The second call is served from the memo.
    assert _digest(vectorizer.transform(TEXTS)) == digest


def _unmemoized(vectorizer, texts) -> np.ndarray:
    """``transform`` starting from an empty memo."""
    vectorize._tfidf_columns_cache.pop(vectorizer, None)
    return vectorizer.transform(texts)


def test_memo_cleared_wholesale_at_cap(monkeypatch):
    monkeypatch.setattr(vectorize, "_TFIDF_CACHE_LIMIT", 3)
    vectorizer = TfidfVectorizer().fit(FIT_CORPUS)
    vectorizer.transform(["quick fox", "lazy dog", "brown bread"])
    assert set(_memo(vectorizer)) == {"quick fox", "lazy dog",
                                      "brown bread"}
    vectorizer.transform(["the end"])
    # Reaching the cap drops every entry, not just the oldest one.
    assert set(_memo(vectorizer)) == {"the end"}
    for params, _, digest in GOLDEN:
        capped = TfidfVectorizer(**params).fit(FIT_CORPUS)
        for _ in range(2):
            assert _digest(capped.transform(TEXTS)) == digest
            assert len(_memo(capped)) <= 3


def test_memo_leaves_params_and_fingerprint_unchanged():
    vectorizer = TfidfVectorizer(max_features=7).fit(FIT_CORPUS)
    params = vectorizer.get_params()
    key = fingerprint(vectorizer)
    vectorizer.transform(TEXTS)
    assert _memo(vectorizer)
    assert vectorizer.get_params() == params
    assert fingerprint(vectorizer) == key
    assert key == fingerprint(TfidfVectorizer(max_features=7))


def test_other_vocabulary_never_reads_the_first_memo():
    text = "quick brown fox and the lazy dog"
    first = TfidfVectorizer().fit(["quick brown fox", "lazy dog"])
    first.transform([text])
    # Poison the first vectorizer's entry: a reader would get zero rows.
    _memo(first)[text] = np.zeros(0, dtype=np.intp)

    second = TfidfVectorizer().fit(["lazy dog jumps", "fox hunts"])
    row = second.transform([text])
    assert _memo(second) is not _memo(first)
    assert np.any(row != 0)
    np.testing.assert_array_equal(row, _unmemoized(second, [text]))


def test_refit_and_set_params_start_a_fresh_memo():
    text = "quick brown fox and the lazy dog"
    vectorizer = TfidfVectorizer().fit(["quick brown fox", "lazy dog"])
    vectorizer.transform([text])
    _memo(vectorizer)[text] = np.zeros(0, dtype=np.intp)

    vectorizer.fit(["lazy dog jumps", "the fox hunts"])
    row = vectorizer.transform([text])
    assert np.any(row != 0)
    np.testing.assert_array_equal(row, _unmemoized(vectorizer, [text]))

    _memo(vectorizer)[text] = np.zeros(0, dtype=np.intp)
    vectorizer.set_params(drop_stopwords=False)
    row = vectorizer.transform([text])
    assert np.any(row != 0)
    np.testing.assert_array_equal(row, _unmemoized(vectorizer, [text]))
