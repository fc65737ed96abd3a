from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import bisect, closed_form_path, solve_ep_pointwise
from stablemanifold import (
    EPConfig,
    NonContractionError,
    PolicyApprox,
    build_first_order,
    build_transformed,
    eval_policy,
    eval_residual,
    find_steady_state,
    schur_split,
    simulate,
    simulate_stochastic,
    solve_ep,
    solve_initial,
    transformed_from_maps,
)


def _policy(growth, order=2, domain=None):
    return PolicyApprox(
        order=order, system=growth.system, inner_tol=1e-13, domain=domain
    )


class TestInitialCondition:
    def test_steady_start_maps_to_origin(self, growth):
        pol = _policy(growth)
        u0 = solve_initial(pol, growth.split, growth.ss.x_bar, np.zeros(0))
        assert np.linalg.norm(u0) <= 1e-10

    def test_growth_start_agrees_with_scalar_bisection(self, growth):
        pol = _policy(growth)
        k0 = 0.25
        u0 = solve_initial(pol, growth.split, np.array([k0]), np.zeros(0), tol=1e-13)

        def capital_mismatch(u):
            return u + eval_policy(pol, np.array([u]))[0] - (k0 - growth.params.k_bar)

        expected = bisect(capital_mismatch, 0.0, 0.1)
        assert abs(u0[0] - expected) <= 1e-10

    def test_unreachable_start_is_infeasible(self, growth):
        from stablemanifold import InfeasibleInitialError

        # capital levels below the graph's fold have no solution on the
        # branch the contraction iteration can reach
        pol = _policy(growth, order=1)
        with pytest.raises(InfeasibleInitialError):
            solve_initial(pol, growth.split, np.array([0.004]), np.zeros(0), max_iter=20)

    def test_linear_model_reduces_to_matrix_solve(self, linear_model):
        ss = find_steady_state(linear_model, tol=1e-13)
        fos = build_first_order(linear_model, ss)
        split = schur_split(fos.K, n_u=2)
        tsys = build_transformed(fos, split)
        pol = PolicyApprox(order=2, system=tsys, inner_tol=1e-13)
        x0, z0 = np.array([0.2]), np.array([-0.1])
        u0 = solve_initial(pol, split, x0, z0, tol=1e-12)
        expected = np.linalg.solve(split.Z[:2, :2], np.array([z0[0], x0[0]]))
        assert_allclose(u0, expected, atol=1e-10)


class TestSimulate:
    def test_steady_initial_gives_constant_path(self, growth):
        pol = _policy(growth)
        traj = simulate(pol, growth.split, np.zeros(1), 10)
        kb = growth.params.k_bar
        assert np.max(np.abs(traj.x_path - kb)) <= 1e-12
        assert np.max(np.abs(traj.y_path - kb)) <= 1e-12
        assert traj.truncated_at is None

    def test_capital_path_matches_exact_iteration(self, growth):
        pol = _policy(growth, order=2)
        kb = growth.params.k_bar
        k0 = 0.5 * kb
        u0 = solve_initial(pol, growth.split, np.array([k0]), np.zeros(0), tol=1e-13)
        traj = simulate(pol, growth.split, u0, 50)
        exact = closed_form_path(growth.params, k0, 50)
        assert np.max(np.abs(traj.x_path[:, 0] - exact)) <= 1e-4

    def test_stable_coordinate_decay_rate(self, growth):
        pol = _policy(growth, order=2)
        traj = simulate(pol, growth.split, np.array([0.006]), 25)
        norms = np.linalg.norm(traj.u_path, axis=1)
        rates = norms[1:12] / norms[:11]
        assert np.all(rates <= growth.system.split.normA + 0.01)

    def test_reconstruction_consistency(self, growth):
        pol = _policy(growth, order=2)
        traj = simulate(pol, growth.split, np.array([0.005]), 15)
        kb = growth.params.k_bar
        Z_inv = growth.split.Z_inv
        for t in range(len(traj)):
            dev = np.concatenate([traj.z_path[t], traj.x_path[t] - kb, traj.y_path[t] - kb])
            uv = Z_inv @ dev
            assert np.linalg.norm(uv[:1] - traj.u_path[t]) <= 1e-9
            assert np.linalg.norm(uv[1:] - traj.v_path[t]) <= 1e-9

    def test_start_outside_ball_is_marked_truncated(self, growth, growth_domain):
        dom, _ = growth_domain
        pol = _policy(growth, order=1, domain=dom)
        traj = simulate(pol, growth.split, np.array([3 * dom.r_u]), 10)
        assert traj.truncated_at == 0
        assert len(traj) == 1

    def test_residual_along_path_shrinks_with_order(self, growth, growth_domain):
        dom, _ = growth_domain
        peaks = []
        for order in (1, 2, 3):
            pol = _policy(growth, order=order, domain=dom)
            traj = simulate(pol, growth.split, np.array([0.004]), 25)
            res = [
                np.linalg.norm(
                    eval_residual(
                        growth.model,
                        traj.y_path[t + 1],
                        traj.y_path[t],
                        traj.x_path[t + 1],
                        traj.x_path[t],
                        np.zeros(0),
                    )
                )
                for t in range(len(traj) - 1)
            ]
            peaks.append(max(res))
        assert peaks[0] > peaks[1] > peaks[2]


class TestExtendedPath:
    def _u_path(self, exo_system, u0, n):
        return np.array([[u0 * 0.5 ** i] for i in range(n + 1)])

    def test_first_sweep_recovers_order_one(self, exo_system):
        n = 20
        u_path = self._u_path(exo_system, 0.8, n)
        V = solve_ep(exo_system, u_path, EPConfig(horizon=n, type2_iters=1, tol=1e-14))
        pol = PolicyApprox(order=1, system=exo_system, inner_tol=1e-14)
        for i in range(n + 1):
            assert abs(V[1, i, 0] - eval_policy(pol, u_path[i])[0]) <= 1e-10

    def test_sweeps_match_policy_orders(self, exo_system):
        n = 20
        u_path = self._u_path(exo_system, 0.8, n)
        V = solve_ep(exo_system, u_path, EPConfig(horizon=n, type2_iters=4, tol=1e-14))
        for j in (1, 2, 3, 4):
            pol = PolicyApprox(order=j, system=exo_system, inner_tol=1e-14)
            for i in range(n + 1 - j):
                assert abs(V[j, i, 0] - eval_policy(pol, u_path[i])[0]) <= 1e-8

    def test_zero_feed_gives_zero_iterates(self):
        sysm = transformed_from_maps(
            A=[[0.5]],
            B=[[2.0]],
            F=lambda u, v: np.zeros(1),
            G=lambda u, v: np.zeros(1),
            dims=(1, 0, 1),
        )
        u_path = self._u_path(sysm, 0.9, 10)
        V = solve_ep(sysm, u_path, EPConfig(horizon=10, type2_iters=3))
        assert np.max(np.abs(V)) == 0.0

    def test_geometric_convergence_of_sweeps(self, exo_system):
        n = 30
        u_path = self._u_path(exo_system, 0.8, n)
        V = solve_ep(exo_system, u_path, EPConfig(horizon=n, type2_iters=12, tol=1e-15))
        ref = V[12, 0, 0]
        errs = [abs(V[j, 0, 0] - ref) for j in range(1, 9)]
        split = exo_system.split
        rate = 2 * split.normBinv / (1 + split.normBinv * split.normA)
        rate *= (split.normA + 0.01) ** 2
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= (rate + 0.05) * hi

    def test_batched_sweeps_equal_period_by_period(self, exo_system):
        n = 20
        u_path = self._u_path(exo_system, 0.8, n)
        V = solve_ep(exo_system, u_path, EPConfig(horizon=n, type2_iters=4))
        assert np.array_equal(V, solve_ep_pointwise(exo_system, u_path, n, 4, 1e-13))

    def test_failed_period_is_reported(self, exo_system):
        # at u = 0 one iteration converges; at u = 0.4 it cannot
        u_path = np.array([[0.0], [0.4], [0.2]])
        with pytest.raises(NonContractionError, match="sweep 1, period 1") as err:
            solve_ep(exo_system, u_path, EPConfig(horizon=2, type2_iters=2, max_inner_iter=1))
        assert np.array_equal(err.value.point, [0.4])

    def test_requires_exogenous_drift(self, growth):
        u_path = np.zeros((3, 1))
        with pytest.raises(ValueError):
            solve_ep(growth.system, u_path, EPConfig(horizon=2, type2_iters=1))


class TestStochastic:
    def test_zero_shocks_reproduce_deterministic_path(self, exo_system):
        pol = PolicyApprox(order=2, system=exo_system, inner_tol=1e-13)
        z0 = np.array([0.4])
        det = simulate(pol, exo_system.split, z0, 12)
        sto = simulate_stochastic(
            pol, exo_system.split, np.zeros(0), z0, np.zeros((12, 1)), 12
        )
        assert np.max(np.abs(det.u_path - sto.u_path)) <= 1e-10
        assert np.max(np.abs(det.v_path - sto.v_path)) <= 1e-10

    def test_single_shock_equals_restarted_path(self, exo_system):
        pol = PolicyApprox(order=2, system=exo_system, inner_tol=1e-13)
        shocks = np.zeros((10, 1))
        shocks[0, 0] = 0.05
        sto = simulate_stochastic(pol, exo_system.split, np.zeros(0), np.array([0.4]), shocks, 10)
        restarted = simulate_stochastic(
            pol, exo_system.split, np.zeros(0), sto.z_path[1], np.zeros((9, 1)), 9
        )
        assert np.max(np.abs(sto.z_path[1:] - restarted.z_path)) <= 1e-12
        assert np.max(np.abs(sto.v_path[1:] - restarted.v_path)) <= 1e-10

    def test_controls_stay_on_policy_graph(self, exo_system):
        pol = PolicyApprox(order=3, system=exo_system, inner_tol=1e-13)
        rng = np.random.default_rng(0)
        shocks = rng.choice([-0.01, 0.01], size=(20, 1))
        traj = simulate_stochastic(
            pol, exo_system.split, np.zeros(0), np.array([0.3]), shocks, 20
        )
        for t in range(len(traj)):
            expected = eval_policy(pol, traj.u_path[t])
            assert np.linalg.norm(traj.v_path[t] - expected) <= 1e-12
