"""Brock-Mirman with a productivity shock against its closed form ``k' = alpha beta e^z k^alpha``.

The first nonlinear oracle with two stable coordinates (``n_z = 1``,
``n_x = 1``) and, with ``linear_in_next=False``, the remainder's inner
Newton solve.  Bounds are about twice the errors measured when they were
set; the level grid's sup errors are pinned to 1e-3 of their measured values.
"""

from __future__ import annotations

import numpy as np
import pytest

from brock_mirman import ALPHA, K_BAR, build_model, closed_form
from stablemanifold import (
    PolicyApprox,
    build_system,
    eval_policy,
    eval_policy_hadamard,
    policy_at_levels,
    simulate,
    simulate_stochastic,
    solve_initial,
)

#: (k0 / k_bar, z0) of the deterministic paths
STARTS = ((0.9, -0.05), (1.0, 0.0), (1.1, 0.05))
T = 40
#: rho_z -> order -> bound on max_t |k_{t+1} - alpha beta e^{z_t} k_t^alpha|; measured
#: 9.5e-6 / 4.5e-7 / 2.1e-8 at rho_z = 0, 2.2e-5 / 6.5e-6 / 1.9e-6 at 0.9 and
#: 2.95e-5 / 9.51e-6 / 3.07e-6 at 0.95
PATH_BOUNDS = {
    0.0: {1: 2e-5, 2: 1e-6, 3: 5e-8},
    0.9: {1: 5e-5, 2: 1.5e-5, 3: 4e-6},
    0.95: {1: 6e-5, 2: 2e-5, 3: 7e-6},
}
#: rho_z -> bound on the gap between the paths of the two remainders; the
#: next-period solve stops at a residual of 1e-12 (1 + |w|), and the gap
#: measured 2.9e-13 at rho_z = 0, 4.7e-14 at 0.9 and 4.1e-14 at 0.95
REMAINDER_GAP = {0.0: 6e-13, 0.9: 1e-13, 0.95: 1e-13}
#: order -> bound on the stochastic path's max_t |k_{t+1} - alpha beta e^{z_t} k_t^alpha|
#: at rho_z = 0.9, sigma = 0.01, T = 20 from 0.8 k_bar; measured 1.04e-5 / 2.96e-6 / 8.5e-7
STOCHASTIC_BOUNDS = {1: 2.1e-5, 2: 6e-6, 3: 1.7e-6}
#: the policy CLI's grid: 11 levels of k from 0.01 to 5 k_bar
K_GRID = np.linspace(0.01 * K_BAR, 5.0 * K_BAR, 11)
#: graph -> sup |k' - alpha beta k^alpha| over K_GRID at z = 0, from the linear start; the
#: same at every rho_z and with both remainders, and the same as growth's columns
LEVEL_SUP_ERR = {"h11": 6.4746e-2, 1: 5.600e-3, 2: 2.367e-4, 3: 1.062e-5}
#: order -> bound on the same sup at z = -0.05 and 0.05; the largest measured, over
#: rho_z in {0, 0.9, 0.95}, was 7.05e-3 / 2.95e-4 / 1.54e-5
SHOCKED_LEVEL_BOUNDS = {1: 1.5e-2, 2: 6e-4, 3: 3.2e-5}


@pytest.fixture(scope="module")
def systems():
    """``(rho_z, linear_in_next) -> TransformedSystem``, built as the CLI builds a module model."""
    return {(rho, linear): build_system(build_model(rho_z=rho, linear_in_next=linear), 1e-13)
            for rho in PATH_BOUNDS for linear in (True, False)}


def _paths(sysm, order):
    pol = PolicyApprox(order=order, system=sysm)
    return [simulate(pol, solve_initial(pol, [k * K_BAR], [z0]), T) for k, z0 in STARTS]


@pytest.mark.parametrize("rho", sorted(PATH_BOUNDS))
def test_stable_eigenvalues_are_alpha_and_rho(systems, rho):
    eig = np.sort(np.linalg.eigvals(systems[rho, True].split.A).real)
    assert np.allclose(eig, sorted([ALPHA, rho]), atol=1e-9)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("linear", [True, False])
@pytest.mark.parametrize("rho", sorted(PATH_BOUNDS))
def test_paths_meet_the_closed_form(systems, rho, linear, order):
    for path in _paths(systems[rho, linear], order):
        assert len(path) == T + 1 and path.truncated_at is None
        k, z = path.x_path[:, 0], path.z_path[:, 0]
        assert np.max(np.abs(k[1:] - closed_form(k[:-1], z[:-1]))) <= PATH_BOUNDS[rho][order]


@pytest.mark.parametrize("rho", sorted(PATH_BOUNDS))
def test_inner_newton_gives_the_linear_remainders_paths(systems, rho):
    for order in (1, 2, 3):
        for direct, solved in zip(_paths(systems[rho, True], order),
                                  _paths(systems[rho, False], order)):
            for field in ("z_path", "x_path", "y_path", "u_path", "v_path"):
                gap = np.max(np.abs(getattr(direct, field) - getattr(solved, field)))
                assert gap <= REMAINDER_GAP[rho], (order, field, gap)


@pytest.mark.parametrize("linear", [True, False])
@pytest.mark.parametrize("rho", sorted(PATH_BOUNDS))
def test_fg_rows_match_single_points(systems, rho, linear):
    sysm = systems[rho, linear]
    rng = np.random.default_rng(0)
    U, V = rng.uniform(-0.02, 0.02, (300, 2)), rng.uniform(-0.02, 0.02, (300, 1))
    F_val, G_val = sysm.fg(U, V)
    for j in range(U.shape[0]):
        F_j, G_j = sysm.fg(U[j], V[j])
        assert np.array_equal(F_val[j], F_j) and np.array_equal(G_val[j], G_j), j


@pytest.mark.parametrize("linear", [True, False])
@pytest.mark.parametrize("rho", sorted(PATH_BOUNDS))
def test_level_grid_meets_the_closed_form(systems, rho, linear):
    sysm = systems[rho, linear]
    for graph, expected in LEVEL_SUP_ERR.items():
        if graph == "h11":
            graph = lambda u: eval_policy_hadamard(sysm, 1, u)
        k_next = policy_at_levels(sysm, graph, K_GRID)[:, 0]
        sup = np.max(np.abs(k_next - closed_form(K_GRID, 0.0)))
        assert abs(sup - expected) <= 1e-3 * expected, (graph, sup)
    for z in (-0.05, 0.05):
        for order, bound in SHOCKED_LEVEL_BOUNDS.items():
            k_next = policy_at_levels(sysm, order, K_GRID, np.full(K_GRID.size, z))[:, 0]
            assert np.max(np.abs(k_next - closed_form(K_GRID, z))) <= bound, (z, order)


@pytest.mark.parametrize("rho", sorted(PATH_BOUNDS))
def test_level_grid_is_the_policy_at_the_matched_initial_condition(systems, rho):
    # both solve the pinned row to inner_tol; the gap measured at most 2.3e-14
    sysm = systems[rho, True]
    k, z = np.array([0.8, 1.0, 1.3]) * K_BAR, np.array([-0.03, 0.0, 0.04])
    for order in (1, 2, 3):
        pol = PolicyApprox(order=order, system=sysm)
        got = policy_at_levels(sysm, order, k, z)[:, 0]
        for j in range(k.size):
            u = solve_initial(pol, [k[j]], [z[j]])
            assert abs(sysm.to_levels(u, eval_policy(pol, u))[2][0] - got[j]) <= 1e-13


@pytest.mark.parametrize("order", sorted(STOCHASTIC_BOUNDS))
@pytest.mark.parametrize("linear", [True, False])
def test_stochastic_path_meets_the_closed_form(systems, linear, order):
    T = 20
    shocks = np.random.default_rng(7).normal(0.0, 0.01, size=(T, 1))
    path = simulate_stochastic(PolicyApprox(order=order, system=systems[0.9, linear]),
                               [0.8 * K_BAR], [0.0], shocks, T)
    k, z = path.x_path[:, 0], path.z_path[:, 0]
    assert len(path) == T + 1 and np.array_equal(z[1:], 0.9 * z[:-1] + shocks[:, 0])
    assert np.max(np.abs(k[1:] - closed_form(k[:-1], z[:-1]))) <= STOCHASTIC_BOUNDS[order]
