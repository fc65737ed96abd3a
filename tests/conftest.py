from __future__ import annotations

import dataclasses
from collections import Counter
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
    """A copy of ``sysm`` whose ``fg`` counts its calls in the returned list."""
    calls = [0]

    def fg(u, v):
        calls[0] += 1
        return sysm.fg(u, v)

    return dataclasses.replace(sysm, fg=fg), calls


@pytest.fixture(scope="session")
def counting_fg():
    """``counting_fg(sysm) -> (counted, calls)``: ``counted.fg`` adds one to ``calls[0]`` per call."""
    return _counting_fg


@pytest.fixture()
def counting_sweeps(monkeypatch):
    """Counts of the ``manifold.picard`` solves and their sweeps, per nesting depth.

    ``solves[d]`` and ``sweeps[d]`` (``Counter``s) count the solves at depth
    ``d`` (0 for an outermost solve, 1 for a solve inside its look-ahead,
    and so on) and the sweeps they made, one per image ``T(v)``.
    """
    counts = SimpleNamespace(solves=Counter(), sweeps=Counter())
    depth = [0]
    real = manifold.picard

    def picard(sys, U, V, ahead, tol, max_iter, trace=None, **kwargs):
        images = [] if trace is None else trace
        start, d = len(images), depth[0]
        depth[0] += 1
        try:
            return real(sys, U, V, ahead, tol, max_iter, images, **kwargs)
        finally:
            depth[0] -= 1
            counts.solves[d] += 1
            counts.sweeps[d] += len(images) - start

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
