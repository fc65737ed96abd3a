from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (
    bisect,
    closed_form_path,
    simulate_stepwise,
    simulate_stochastic_stepwise,
    solve_ep_pointwise,
    solve_initial_pointwise,
)
from stablemanifold import (
    EPConfig,
    InfeasibleInitialError,
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
from stablemanifold.spectral import SpectralSplit


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


#: the benchmark's transition starts, as multiples of the steady-state capital
STARTS = (0.25, 0.5, 2.0)


def _path_fields(traj):
    return traj.u_path, traj.v_path, traj.x_path, traj.y_path, traj.z_path


class TestBatchedTransition:
    """One batched evaluation per Newton point, and paths stopped at their fixed point."""

    @pytest.mark.parametrize("start", STARTS)
    def test_initial_condition_matches_pointwise_newton(self, growth, start):
        pol = PolicyApprox(order=3, system=growth.system)
        x0 = np.array([start * growth.params.k_bar])
        u0 = solve_initial(pol, growth.split, x0, np.zeros(0), tol=1e-10)
        ref = solve_initial_pointwise(pol, growth.split, x0, np.zeros(0), tol=1e-10)
        assert np.max(np.abs(u0 - ref)) <= 1e-15

    def test_initial_condition_with_two_stable_coordinates(self):
        # a mixing basis puts the policy into both matched rows, so the
        # (1, 2) policy Jacobian enters the Newton matrix column by column
        plane = transformed_from_maps(
            A=[[0.5, 0.1], [0.0, 0.3]],
            B=[[2.0]],
            F=lambda u, v: np.array([0.1 * u[0] * v[0], 0.05 * u[1] ** 2]),
            G=lambda u, v: np.array([0.3 * u[1] ** 2 + 0.2 * u[0] * u[1] + 0.1 * u[0] * v[0]]),
            dims=(0, 2, 1),
        )
        Z = np.array([[1.0, 0.2, 0.7], [-0.3, 1.0, 0.5], [0.1, 0.4, 1.0]])
        split = SpectralSplit(Z=Z, Z_inv=np.linalg.inv(Z), A=plane.split.A, B=plane.split.B)
        pol = PolicyApprox(order=3, system=plane)
        for x0 in ([0.3, -0.2], [0.5, 0.4], [-0.4, 0.3]):
            u0 = solve_initial(pol, split, x0, [], tol=1e-13)
            ref = solve_initial_pointwise(pol, split, x0, [], tol=1e-13)
            assert np.max(np.abs(u0 - ref)) <= 1e-13
            assert abs(eval_policy(pol, u0)[0]) > 1e-3  # the policy term is not negligible

    @pytest.mark.parametrize("start, budget", zip(STARTS, (1000, 500, 560)))
    def test_fg_budget_of_the_initial_condition(self, growth, counting_fg, start, budget):
        # three one-point evaluations per Newton step took 2,315 / 1,048 / 1,187 calls
        sysm, calls = counting_fg(growth.system)
        pol = PolicyApprox(order=3, system=sysm)
        solve_initial(pol, growth.split, [start * growth.params.k_bar], [], tol=1e-10)
        assert 0 < calls[0] <= budget

    @pytest.mark.parametrize("start, budget", zip(STARTS, (700, 540, 550)))
    def test_fg_budget_of_the_path(self, growth, counting_fg, start, budget):
        # every one of the 201 periods evaluated took 1,297 / 1,137 / 1,160 calls
        u0 = solve_initial(PolicyApprox(order=3, system=growth.system), growth.split,
                           [start * growth.params.k_bar], [], tol=1e-10)
        sysm, calls = counting_fg(growth.system)
        traj = simulate(PolicyApprox(order=3, system=sysm), growth.split, u0, 200)
        assert 0 < calls[0] <= budget
        assert len(traj) == 201

    @pytest.mark.parametrize("start", STARTS)
    def test_path_equals_stepwise_iteration(self, growth, start):
        pol = PolicyApprox(order=3, system=growth.system)
        u0 = solve_initial(pol, growth.split, [start * growth.params.k_bar], [], tol=1e-10)
        traj = simulate(pol, growth.split, u0, 200)
        for got, ref in zip(_path_fields(traj), simulate_stepwise(pol, u0, 200)):
            assert np.array_equal(got, ref)
        assert np.array_equal(traj.u_path[-1], traj.u_path[-2])  # the fixed point was reached

    def test_short_path_equals_stepwise_iteration(self, growth):
        # T = 20 ends well before the path reaches its floating-point fixed point
        pol = PolicyApprox(order=3, system=growth.system)
        u0 = solve_initial(pol, growth.split, [0.5 * growth.params.k_bar], [], tol=1e-10)
        traj = simulate(pol, growth.split, u0, 20)
        assert not np.array_equal(traj.u_path[-1], traj.u_path[-2])
        for got, ref in zip(_path_fields(traj), simulate_stepwise(pol, u0, 20)):
            assert np.array_equal(got, ref)

    def test_truncated_path_equals_stepwise_iteration(self, growth, growth_domain):
        dom, _ = growth_domain
        pol = PolicyApprox(order=2, system=growth.system, domain=dom)
        u0 = np.array([3 * dom.r_u])
        traj = simulate(pol, growth.split, u0, 10)
        assert traj.truncated_at == 0
        for got, ref in zip(_path_fields(traj), simulate_stepwise(pol, u0, 10)):
            assert np.array_equal(got, ref)

    def test_exogenous_path_equals_stepwise_iteration(self, exo_system):
        pol = PolicyApprox(order=3, system=exo_system, inner_tol=1e-13)
        traj = simulate(pol, exo_system.split, [0.4], 60)
        for got, ref in zip(_path_fields(traj), simulate_stepwise(pol, [0.4], 60)):
            assert np.array_equal(got, ref)

    def test_stochastic_path_equals_pointwise_resolves(self, exo_system):
        pol = PolicyApprox(order=3, system=exo_system, inner_tol=1e-13)
        shocks = np.random.default_rng(0).choice([-0.01, 0.01], size=(20, 1))
        traj = simulate_stochastic(pol, exo_system.split, np.zeros(0), [0.3], shocks, 20)
        u_ref, v_ref = simulate_stochastic_stepwise(
            pol, exo_system.split, np.zeros(0), [0.3], shocks, 20
        )
        assert np.array_equal(traj.u_path, u_ref)
        assert np.array_equal(traj.v_path, v_ref)

    def test_fg_budget_of_the_stochastic_path(self, exo_system, counting_fg):
        # with no endogenous state the next period's state needs no policy
        # value; evaluating one anyway took 820 calls
        sysm, calls = counting_fg(exo_system)
        pol = PolicyApprox(order=3, system=sysm, inner_tol=1e-13)
        shocks = np.random.default_rng(0).choice([-0.01, 0.01], size=(20, 1))
        simulate_stochastic(pol, sysm.split, np.zeros(0), [0.3], shocks, 20)
        assert 0 < calls[0] <= 500

    def test_failed_stencil_row_of_a_rejected_trial(self):
        # matching atan(u) = x0 from u = x0 / a = 2: the full Newton step
        # overshoots to u = -1.04, where |atan(u) - x0| is larger, and is
        # halved.  The policy is made undefined at one stencil row of that
        # trial; the rejected trial's Jacobian is never needed.
        a, x0, bad = 0.25, 0.5, set()

        def G(u, v):
            if u[0] in bad:
                return np.array([np.nan])
            return np.array([-2.0 * (np.arctan(u[0]) - a * u[0])])  # h1(u) = atan(u) - a u

        sysm = transformed_from_maps(A=[[0.5]], B=[[2.0]], F=lambda u, v: np.zeros(1), G=G,
                                     dims=(0, 1, 1))
        split = SpectralSplit(Z=np.array([[a, 1.0], [0.0, 1.0]]), Z_inv=np.array(
            [[1.0 / a, -1.0 / a], [0.0, 1.0]]), A=sysm.split.A, B=sysm.split.B)
        batches = []

        def fg(u, v):
            if not batches or not np.array_equal(batches[-1], u):
                batches.append(u.copy())
            return sysm.fg(u, v)

        pol = PolicyApprox(order=1, system=dataclasses.replace(sysm, fg=fg))
        clean = solve_initial(pol, split, [x0], [])
        assert clean[0] == pytest.approx(np.tan(x0), abs=1e-12)
        start, trial = batches[0][0, 0], batches[1][0, 0]
        assert start == 2.0 and abs(np.arctan(trial) - x0) > abs(np.arctan(start) - x0)

        bad.add(batches[1][1, 0])  # trial + h
        assert np.array_equal(solve_initial(pol, split, [x0], []), clean)
        # at an accepted point Newton still needs its Jacobian, as before
        bad.add(batches[2][2, 0])
        with pytest.raises(InfeasibleInitialError, match="outside the evaluable region"):
            solve_initial(pol, split, [x0], [])


class TestAcceleratedTransition:
    """The transition's cost with mixed Picard steps in every policy evaluation."""

    @pytest.mark.parametrize("start, budget", zip(STARTS, (450, 300, 310)))
    def test_fg_budget_of_the_initial_condition(self, growth, counting_fg, start, budget):
        # plain Picard sweeps made 922 / 448 / 509 calls
        sysm, calls = counting_fg(growth.system)
        pol = PolicyApprox(order=3, system=sysm)
        solve_initial(pol, growth.split, [start * growth.params.k_bar], [], tol=1e-10)
        assert 0 < calls[0] <= budget

    @pytest.mark.parametrize("start, budget", zip(STARTS, (520, 450, 450)))
    def test_fg_budget_of_the_path(self, growth, counting_fg, start, budget):
        # plain Picard sweeps made 650 / 482 / 501 calls
        u0 = solve_initial(PolicyApprox(order=3, system=growth.system), growth.split,
                           [start * growth.params.k_bar], [], tol=1e-10)
        sysm, calls = counting_fg(growth.system)
        traj = simulate(PolicyApprox(order=3, system=sysm), growth.split, u0, 200)
        assert 0 < calls[0] <= budget
        assert len(traj) == 201


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
