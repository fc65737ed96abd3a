"""The manufactured manifolds of ``tests/manufactured.py``: nonlinear oracles for the split's complex-pair and Jordan-block paths."""

from __future__ import annotations

import numpy as np
import pytest

import manufactured
from stablemanifold import DomainSpec, PolicyApprox, eval_policy, search_domain
from stablemanifold.manifold import domain_samples

SEEDS = (0, 1, 2, 3)
CASES = {"complex": manufactured.COMPLEX, "jordan": manufactured.JORDAN}
# radius verified at 2048 samples, per seed
RADII = {"complex": {0: 0.3, 1: 0.3, 2: 0.3, 3: 0.5}, "jordan": {0: 0.3, 1: 0.25, 2: 0.3, 3: 0.4}}
# twice the largest sup |v - phi(u)| over seeds 0-3 at orders 1-7 (inner_tol 1e-13, 512 samples)
ERROR_BOUNDS = {
    "complex": 2 * np.array([4.58e-3, 7.55e-4, 1.03e-4, 7.29e-6, 9.91e-7, 1.47e-7, 2.59e-8]),
    "jordan": 2 * np.array([3.04e-3, 4.81e-4, 7.23e-5, 1.05e-5, 1.50e-6, 2.11e-7, 2.93e-8]),
}


# the complex pair keeps the bare seed as its id
@pytest.fixture(scope="module", params=[(name, seed) for name in CASES for seed in SEEDS],
                ids=lambda p: str(p[1]) if p[0] == "complex" else f"{p[0]}-{p[1]}")
def case(request):
    name, seed = request.param
    system, Z = manufactured.build_system(seed, CASES[name])
    return name, seed, system, Z


def test_construction_leaves_the_manifold_invariant():
    for case in CASES.values():
        U = np.random.default_rng(0).uniform(-0.5, 0.5, (512, case.n_u))
        assert manufactured.invariance_defect(U, case) <= 1e-16


@pytest.mark.parametrize("seed", SEEDS)
def test_split_keeps_the_complex_pair_as_one_block(seed):
    system, _ = manufactured.build_system(seed, manufactured.COMPLEX)
    assert system.split.A.shape == (2, 2) and system.split.B.shape == (1, 1)
    eig = np.linalg.eigvals(system.split.A)
    assert np.all(np.abs(eig.imag) > 0.3)
    assert np.allclose(np.sort_complex(eig), np.sort_complex(np.linalg.eigvals(manufactured.COMPLEX.A)))


@pytest.mark.parametrize("seed", SEEDS)
def test_split_keeps_the_jordan_block_as_one_block(seed):
    system, _ = manufactured.build_system(seed, manufactured.JORDAN)
    assert system.split.A.shape == (1, 1) and system.split.B.shape == (2, 2)
    assert np.allclose(system.split.A, manufactured.JORDAN.A)
    assert np.all(np.abs(np.linalg.eigvals(system.split.B) - 2.0) <= 1e-6)


def test_orders_converge_to_the_manufactured_manifold(case):
    name, seed, system, Z = case
    dom, report = search_domain(system, sample_count=2048)
    assert (dom.r_u, dom.r_v) == (RADII[name][seed], RADII[name][seed])
    assert report.cond1_ok and report.cond2_ok and report.cond3_ok
    U, _ = domain_samples(DomainSpec(dom.r_u, dom.r_v, 512), system.n_u, system.n_v)
    errors = np.array([
        manufactured.manifold_error(system, Z, U, eval_policy(PolicyApprox(n, system, 1e-13), U), CASES[name])
        for n in range(1, 8)
    ])
    assert np.all(errors <= ERROR_BOUNDS[name]), errors
    assert np.all(np.diff(errors) < 0), errors
