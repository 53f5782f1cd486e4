"""scipy and networkx load on first use, never at ``import repro``.

Each check runs in a fresh interpreter: the test process itself has
long since imported both packages through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from repro.serve import AnytimeEstimate

SRC = str(Path(__file__).resolve().parents[2] / "src")

_REPORT = """
import json, sys
loaded = sorted({name for name in sys.modules
                 if name.split(".")[0] in ("scipy", "networkx")})
print(json.dumps(loaded))
"""


def _loaded_after(body: str) -> set[str]:
    """Run ``body`` in a fresh interpreter; the heavy modules it left in
    ``sys.modules``."""
    proc = subprocess.run([sys.executable, "-c", body + _REPORT],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_every_module_loads_neither():
    loaded = _loaded_after("""
import importlib, pkgutil
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
assert len(names) > 100, names
""")
    assert loaded == set()


@pytest.mark.parametrize("call, expected", [
    ("""
from repro.datasets import make_blobs
from repro.ml import LogisticRegression
X, y = make_blobs(40, n_features=2, centers=2, seed=0)
LogisticRegression().fit(X, y)
""", "scipy.optimize"),
    ("""
from repro.importance.beta_shapley import beta_size_weights
beta_size_weights(10, 16.0, 1.0)
""", "scipy.special"),
    ("""
from repro.pipelines import source, to_networkx
to_networkx(source("a").filter(("x", 1)))
""", "networkx"),
], ids=["logistic_fit", "beta_size_weights", "to_networkx"])
def test_each_deferred_site_loads_its_dependency(call, expected):
    loaded = _loaded_after(call)
    assert expected in loaded
    assert {name.split(".")[0] for name in loaded} \
        == {expected.split(".")[0]}
    if expected == "scipy.special":
        assert "scipy.stats" not in loaded


@pytest.mark.parametrize("call", [
    """
from repro.serve import AnytimeEstimate
AnytimeEstimate()
""",
    """
import tempfile
from repro.datasets import make_blobs
from repro.importance import Utility
from repro.ml import KNeighborsClassifier
from repro.serve import Server
X, y = make_blobs(30, n_features=3, centers=2, seed=0)
def factory():
    return Utility(KNeighborsClassifier(n_neighbors=3),
                   X[:20], y[:20], X[20:], y[20:])
with tempfile.TemporaryDirectory() as tmp, Server(tmp, workers=1) as server:
    scores = server.result(server.submit("loo", factory), timeout=60)
assert len(scores) == 20
""",
], ids=["anytime_estimate", "served_loo_job"])
def test_serve_path_loads_neither(call):
    """The CI z-score is a pure-Python port of ``ndtri``: serving a job
    needs numpy alone."""
    assert _loaded_after(call) == set()


def test_concurrent_first_anytime_estimates_agree():
    """Two threads build the first estimates together; both get the
    same z, the bits ``scipy.special.ndtri`` returns."""
    loaded = _loaded_after("""
import sys, threading
from repro.serve import AnytimeEstimate
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(2)
zs = []
def build():
    barrier.wait()
    zs.append(AnytimeEstimate(confidence=0.95)._z)
threads = [threading.Thread(target=build) for _ in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
assert not any(thread.is_alive() for thread in threads)
assert len(zs) == 2 and zs[0].hex() == zs[1].hex(), zs
assert "scipy" not in sys.modules
from scipy.special import ndtri
assert zs[0].hex() == float(ndtri(0.975)).hex(), zs
""")
    assert "scipy.special" in loaded


def test_ndtri_is_the_normal_quantile_bit_for_bit():
    confidences = np.concatenate([
        np.linspace(0.001, 0.999, 999),
        [1e-9, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1 - 1e-9]])
    q = 0.5 + confidences / 2.0
    assert ndtri(q).tobytes() == norm.ppf(q).tobytes()
    for c in confidences:
        z = AnytimeEstimate(confidence=float(c))._z
        assert z.hex() == float(norm.ppf(0.5 + c / 2.0)).hex()
