"""The serve path's private normal quantile against scipy's.

``AnytimeEstimate`` computes its CI z-score with a pure-Python port of
Cephes ``ndtri`` so that serving never imports scipy; this module
checks the port bit for bit where scipy is installed.
"""

import numpy as np
import pytest

from repro.serve.anytime import _EXPM2, _ndtri

ndtri = pytest.importorskip("scipy.special").ndtri


def test_port_matches_scipy_bit_for_bit():
    """A dense grid, both geometric tails, the branch boundaries and
    the endpoints."""
    tails = np.geomspace(1e-300, 0.5, 4001)
    points = np.concatenate([
        np.linspace(0.0, 1.0, 20001), tails, 1.0 - tails,
        np.geomspace(1e-16, 0.5, 2001),
        [0.0, 0.5, 1.0, 5e-324, np.nextafter(1.0, 0.0),
         np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
         _EXPM2, np.nextafter(_EXPM2, 1.0), 1.0 - _EXPM2, np.exp(-32.0)]])
    ours = np.array([_ndtri(float(p)) for p in points])
    assert ours.tobytes() == ndtri(points).tobytes()
    assert _ndtri(0.0) == -np.inf and _ndtri(1.0) == np.inf
    assert _ndtri(0.5) == 0.0
