from __future__ import annotations

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from stablemanifold import (
    GrowthParams,
    ModelSpec,
    build_growth_pipeline,
    make_exogenous_test_system,
    manifold,
    search_domain,
)


@pytest.fixture(scope="session")
def growth():
    """Full pipeline for the benchmark calibration (alpha=0.36, beta=0.99)."""
    return build_growth_pipeline(GrowthParams())


@pytest.fixture(scope="session")
def growth_domain(growth):
    """Largest verified ball for the benchmark growth model, with its report."""
    return search_domain(growth.system)


def _counting_fg(sysm):
    """A copy of ``sysm`` whose ``fg`` counts its calls in the returned list.

    The wrapper is set on the copy, as a tracer sets it on the instance,
    where it shadows the :meth:`TransformedSystem.fg` method.
    """
    calls = [0]

    def fg(u, v):
        calls[0] += 1
        return sysm.fg(u, v)

    counted = copy.copy(sysm)
    counted.fg = fg
    return counted, calls


@pytest.fixture(scope="session")
def counting_fg():
    """``counting_fg(sysm) -> (counted, calls)``: ``counted.fg`` adds one to ``calls[0]`` per call."""
    return _counting_fg


@pytest.fixture()
def counting_sweeps(monkeypatch):
    """Counts of the ``manifold.picard`` solves and of their sweeps, one per image ``T(x)``.

    ``solves`` counts every call, so a solve made inside another would
    count twice.
    """
    counts = SimpleNamespace(solves=0, sweeps=0)
    real = manifold.picard

    def picard(sys, U, X, ahead, tol, max_iter, trace=None, **kwargs):
        images = [] if trace is None else trace
        start = len(images)
        try:
            return real(sys, U, X, ahead, tol, max_iter, images, **kwargs)
        finally:
            counts.solves += 1
            counts.sweeps += len(images) - start

    monkeypatch.setattr(manifold, "picard", picard)
    return counts


@pytest.fixture(scope="session")
def exo_system():
    return make_exogenous_test_system()


def build_linear_model(
    a_zz: float = 0.5,
    a_xx: float = 0.4,
    a_xz: float = 0.1,
    b_yy: float = 2.0,
    b_yx: float = 0.3,
    b_yz: float = 0.2,
) -> ModelSpec:
    """Saddle test model with one exogenous, one state, one control.

    Dynamics in deviations: ``x' = a_xx x + a_xz z`` and
    ``y' = b_yy y + b_yx x + b_yz z``; the residual is exactly linear so
    the nonlinear remainder vanishes identically.
    """

    def residual(y_next, y, x_next, x, z):
        euler = y_next[0] - b_yy * y[0] - b_yx * x[0] - b_yz * z[0]
        transition = x_next[0] - a_xx * x[0] - a_xz * z[0]
        return np.array([euler, transition])

    return ModelSpec(
        n_x=1,
        n_y=1,
        n_z=1,
        residual=residual,
        lambda_mat=np.array([[a_zz]]),
        steady_guess=np.zeros(2),
        linear_in_next=True,
    )


@pytest.fixture()
def linear_model():
    return build_linear_model()
