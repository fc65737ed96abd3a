"""Brock-Mirman with a productivity shock against its closed form ``k' = alpha beta e^z k^alpha``.

The first nonlinear oracle with two stable coordinates (``n_z = 1``,
``n_x = 1``) and, with ``linear_in_next=False``, the remainder's inner
Newton solve.  Bounds are twice the errors measured when they were set.
"""

from __future__ import annotations

import numpy as np
import pytest

from brock_mirman import ALPHA, K_BAR, build_model, closed_form
from stablemanifold import (
    PolicyApprox,
    build_first_order,
    build_transformed,
    find_steady_state,
    schur_split,
    simulate,
    solve_initial,
)

#: (k0 / k_bar, z0) of the deterministic paths
STARTS = ((0.9, -0.05), (1.0, 0.0), (1.1, 0.05))
T = 40
#: rho_z -> order -> bound on max_t |k_{t+1} - alpha beta e^{z_t} k_t^alpha|;
#: measured 9.5e-6 / 4.5e-7 / 2.1e-8 at rho_z = 0 and 2.2e-5 / 6.5e-6 / 1.9e-6 at 0.9
PATH_BOUNDS = {0.0: {1: 2e-5, 2: 1e-6, 3: 5e-8}, 0.9: {1: 5e-5, 2: 1.5e-5, 3: 4e-6}}
#: rho_z -> bound on the gap between the paths of the two remainders; the
#: next-period solve stops at a residual of 1e-12 (1 + |w|), and the gap
#: measured 2.9e-13 at rho_z = 0 and 4.7e-14 at 0.9
REMAINDER_GAP = {0.0: 6e-13, 0.9: 1e-13}


@pytest.fixture(scope="module")
def systems():
    """``(rho_z, linear_in_next) -> TransformedSystem``, split as the CLI splits a module model."""
    out = {}
    for rho in PATH_BOUNDS:
        for linear in (True, False):
            model = build_model(rho_z=rho, linear_in_next=linear)
            fos = build_first_order(model, find_steady_state(model, tol=1e-13))
            out[rho, linear] = build_transformed(fos, schur_split(fos.K, n_u=2, eps_unit=1e-6))
    return out


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
