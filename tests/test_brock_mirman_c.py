"""Brock-Mirman in consumption form against its closed form ``c = (1 - alpha beta) e^z k^alpha``.

The first oracle whose residual is nonlinear in next-period variables, so
the remainder's inner Newton solve takes several steps, and fails at some
points far from the steady state.  A point whose next-period solve fails
is a NaN row of the remainder: the domain search rejects the radius, and a
start or level there is reported where it stands.  Bounds are about twice
the errors measured when they were set.
"""

from __future__ import annotations

import numpy as np
import pytest

from brock_mirman_c import ALPHA, BETA, K_BAR, build_system, closed_form
from stablemanifold import (
    InfeasibleInitialError,
    PolicyApprox,
    eval_policy_hadamard,
    policy_at_levels,
    search_domain,
    simulate,
    solve_initial,
)

#: (k0 / k_bar, z0) of the deterministic paths
STARTS = ((0.5, -0.05), (1.0, 0.0), (2.0, 0.05))
T = 40
#: rho_z -> order -> bound on max_t |k_{t+1} - alpha beta e^{z_t} k_t^alpha|; measured
#: 2.60e-4 / 1.17e-5 / 5.37e-7 at rho_z = 0, 1.33e-4 / 1.79e-5 / 5.63e-6 at 0.9 and
#: 1.40e-4 / 2.64e-5 / 8.93e-6 at 0.95
PATH_BOUNDS = {
    0.0: {1: 5.2e-4, 2: 2.4e-5, 3: 1.1e-6},
    0.9: {1: 2.7e-4, 2: 3.6e-5, 3: 1.2e-5},
    0.95: {1: 2.8e-4, 2: 5.3e-5, 3: 1.8e-5},
}
#: 11 levels of k from 0.5 to 2 k_bar, where h11 is defined
K_GRID = np.linspace(0.5 * K_BAR, 2.0 * K_BAR, 11)
#: graph -> bound on sup |c - closed form| over K_GRID at z = 0; measured 6.86e-3 /
#: 1.16e-3 / 5.42e-5 / 2.52e-6, the same at every rho_z
LEVEL_BOUNDS = {"h11": 1.4e-2, 1: 2.4e-3, 2: 1.1e-4, 3: 5e-6}
#: rho_z -> the radius the domain search verifies at 2048 samples
SEARCH_RADIUS = {0.0: 0.015, 0.9: 0.01, 0.95: 0.01}


@pytest.fixture(scope="module")
def systems():
    """``rho_z -> TransformedSystem``, built as the CLI builds a module model."""
    return {rho: build_system(rho) for rho in PATH_BOUNDS}


@pytest.mark.parametrize("rho", sorted(PATH_BOUNDS))
def test_stable_eigenvalues_are_alpha_and_rho(systems, rho):
    eig = np.sort(np.linalg.eigvals(systems[rho].split.A).real)
    assert np.allclose(eig, sorted([ALPHA, rho]), atol=1e-9)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("rho", sorted(PATH_BOUNDS))
def test_paths_meet_the_closed_form(systems, rho, order):
    pol = PolicyApprox(order=order, system=systems[rho])
    for k0, z0 in STARTS:
        path = simulate(pol, solve_initial(pol, [k0 * K_BAR], [z0]), T)
        assert len(path) == T + 1 and path.truncated_at is None
        k, z = path.x_path[:, 0], path.z_path[:, 0]
        gap = np.max(np.abs(k[1:] - ALPHA * BETA * np.exp(z[:-1]) * k[:-1] ** ALPHA))
        assert gap <= PATH_BOUNDS[rho][order], (k0, z0, gap)


@pytest.mark.parametrize("rho", sorted(PATH_BOUNDS))
def test_level_grid_meets_the_closed_form(systems, rho):
    sysm = systems[rho]
    for graph, bound in LEVEL_BOUNDS.items():
        if graph == "h11":
            graph = lambda u: eval_policy_hadamard(sysm, 1, u)
        c = policy_at_levels(sysm, graph, K_GRID)[:, 0]
        assert np.max(np.abs(c - closed_form(K_GRID, 0.0))) <= bound, graph


@pytest.mark.parametrize("rho", sorted(SEARCH_RADIUS))
def test_search_rejects_radii_with_failed_next_period_solves(systems, rho):
    # at the larger radii some samples have no next-period root; their NaN rows
    # reject the radius, as a non-finite residual does, and the search goes on
    dom, report = search_domain(systems[rho], sample_count=2048)
    assert dom.r_u == dom.r_v == SEARCH_RADIUS[rho]
    assert report.cond1_ok and report.cond2_ok and report.cond3_ok


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("k0", [0.1, 10.0])
def test_far_start_is_outside_the_evaluable_region(systems, k0, order):
    # the policy at the matching initial condition needs next-period solves that fail
    pol = PolicyApprox(order=order, system=systems[0.9])
    with pytest.raises(InfeasibleInitialError, match="outside the evaluable region"):
        solve_initial(pol, [k0 * K_BAR], [0.0])
