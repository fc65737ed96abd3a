"""The manufactured manifold of ``tests/manufactured.py``: a nonlinear oracle for the split's complex-pair path."""

from __future__ import annotations

import numpy as np
import pytest

import manufactured
from stablemanifold import DomainSpec, PolicyApprox, eval_policy, search_domain
from stablemanifold.manifold import domain_samples

SEEDS = (0, 1, 2, 3)
RADII = {0: 0.3, 1: 0.3, 2: 0.3, 3: 0.5}  # verified at 2048 samples
# twice the largest sup |v - phi(u)| over seeds 0-3 at orders 1-7 (inner_tol 1e-13, 512 samples)
ERROR_BOUNDS = 2 * np.array([4.58e-3, 7.55e-4, 1.03e-4, 7.29e-6, 9.91e-7, 1.47e-7, 2.59e-8])


@pytest.fixture(scope="module", params=SEEDS)
def case(request):
    system, Z = manufactured.build_system(request.param)
    return request.param, system, Z


def test_construction_leaves_the_manifold_invariant():
    U = np.random.default_rng(0).uniform(-0.5, 0.5, (512, 2))
    assert manufactured.invariance_defect(U) <= 1e-16


def test_split_keeps_the_complex_pair_as_one_block(case):
    _, system, _ = case
    assert system.split.A.shape == (2, 2) and system.split.B.shape == (1, 1)
    eig = np.linalg.eigvals(system.split.A)
    assert np.all(np.abs(eig.imag) > 0.3)
    assert np.allclose(np.sort_complex(eig), np.sort_complex(np.linalg.eigvals(manufactured.A)))


def test_orders_converge_to_the_manufactured_manifold(case):
    seed, system, Z = case
    dom, report = search_domain(system, sample_count=2048)
    assert (dom.r_u, dom.r_v) == (RADII[seed], RADII[seed])
    assert report.cond1_ok and report.cond2_ok and report.cond3_ok
    U, _ = domain_samples(DomainSpec(dom.r_u, dom.r_v, 512), system.n_u, system.n_v)
    errors = np.array([
        manufactured.manifold_error(system, Z, U, eval_policy(PolicyApprox(n, system, 1e-13), U))
        for n in range(1, 8)
    ])
    assert np.all(errors <= ERROR_BOUNDS), errors
    assert np.all(np.diff(errors) < 0), errors
