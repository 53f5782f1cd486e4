"""Golden digest of every corpus verdict, scores down to the bit.

The corpus oracle only asks whether each run finds its culprit, and the
backend matrix only compares backends with each other, so a change to
an estimator that shifts a score but still finds the culprit passes
both.  This test pins the exact outputs of all corpus entries (serial,
uncached) to one SHA-256: any change to a verdict's score, a root cause
or the number of configurations evaluated changes the digest.

If a change is meant to alter the debugger's outputs, recompute the
digest with :func:`corpus_digest` and say why in the change log.
"""

import hashlib

from repro.pipelines.debugger import load_corpus
from repro.runtime import Runtime
from tests.pipelines.debugger.test_backends import _signature

CORPUS_DIGEST = "ad2862711246eadac23079591bab56979db3a8c518d4ab9cb9579e1880999066"


def corpus_digest() -> str:
    """SHA-256 over every entry's name and run signature, in corpus order."""
    digest = hashlib.sha256()
    for entry in load_corpus():
        with Runtime(backend="serial", cache=False) as runtime:
            report = entry.debugger(runtime=runtime).run()
        digest.update(repr((entry.name, _signature(report))).encode())
    return digest.hexdigest()


def test_corpus_verdicts_match_golden_digest():
    assert corpus_digest() == CORPUS_DIGEST
