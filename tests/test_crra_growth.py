"""The build of CRRA growth, a model with no closed form, pinned to its measured values.

The model (``tests/crra_growth.py``) has a stable root near the unit
circle and a residual nonlinear in next-period variables.  Each value is
pinned to 1e-5 relative of what ``build_system(model, 1e-13)`` gave when
it was set.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from crra_growth import build_model, steady_state
from stablemanifold import build_system, search_domain
from stablemanifold.manifold import contraction_rate

RTOL = 1e-5


@pytest.fixture(scope="module")
def system():
    return build_system(build_model(), 1e-13)


def test_steady_state(system):
    assert_allclose([system.ss.x_bar[0], system.ss.y_bar[0]], [6.366837, 1.310525], rtol=RTOL)
    assert_allclose([system.ss.x_bar[0], system.ss.y_bar[0]], steady_state(), rtol=1e-12)


def test_split(system):
    split = system.split
    assert_allclose(np.sort(np.linalg.eigvals(split.A).real), [0.9, 0.923469], rtol=RTOL)
    assert_allclose(np.linalg.eigvals(split.B).real, [1.093812], rtol=RTOL)
    assert_allclose([split.normA, split.normBinv, contraction_rate(split)],
                    [0.999032, 0.914234, 0.955637], rtol=RTOL)


def test_search_verifies_the_radius(system):
    dom, report = search_domain(system, sample_count=2048)
    assert dom.r_u == dom.r_v == 0.08
    assert report.cond1_ok and report.cond2_ok and report.cond3_ok
    assert_allclose(report.rho, 0.0075178, rtol=RTOL)
