from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import brock_mirman
import brock_mirman_c
import crra_growth
from oracles import (
    bisect,
    closed_form_path,
    simulate_stepwise,
    simulate_stochastic_stepwise,
    solve_ep_pointwise,
    solve_initial_pointwise,
)
from stablemanifold import (
    DomainSpec,
    InfeasibleInitialError,
    NonContractionError,
    PolicyApprox,
    build_system,
    build_transformed,
    eval_policy,
    eval_residual,
    rescale_columns,
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
        u0 = solve_initial(pol, growth.ss.x_bar, np.zeros(0))
        assert np.linalg.norm(u0) <= 1e-10

    def test_growth_start_agrees_with_scalar_bisection(self, growth):
        pol = _policy(growth)
        k0 = 0.25
        u0 = solve_initial(pol, np.array([k0]), np.zeros(0), tol=1e-13)

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
            solve_initial(pol, np.array([0.004]), np.zeros(0), max_iter=20)

    @pytest.mark.parametrize("order", [1, 3, 8])
    def test_row_on_another_branch_is_infeasible(self, growth, order):
        # from 0.01 k_bar the pinned row converges, but the policy at its u misses the
        # start by about 0.016: the row solved a fixed point other than the policy's
        pol = PolicyApprox(order=order, system=growth.system)
        with pytest.raises(InfeasibleInitialError, match=r"misses the initial condition by "
                                                         r"1\.[0-9]{3}e-02 \(tolerance 1\.0e-10\)"):
            solve_initial(pol, [0.01 * growth.params.k_bar], [], tol=1e-10)

    # solve_initial's u at order 3 and init_tol = 1e-10; the transition paths'
    # first repeated state moves with any change in these bits
    TRANSITION_U0 = {0.25: "-0x1.1de07a303802ep-3", 0.5: "-0x1.8ae5d170c47c3p-4",
                     2.0: "0x1.a553d393fba3dp-3"}

    @pytest.mark.parametrize("start", [0.25, 0.5, 2.0])
    def test_transition_start_keeps_its_bits(self, growth, start):
        pol = PolicyApprox(order=3, system=growth.system)
        u0 = solve_initial(pol, [start * growth.params.k_bar], [], tol=1e-10)
        assert u0[0].hex() == self.TRANSITION_U0[start]

    @pytest.mark.parametrize("tol", [1e-14, 1e-15])
    @pytest.mark.parametrize("start", [0.25, 0.5, 2.0])
    def test_tolerance_below_inner_tol_names_the_floor(self, growth, start, tol):
        # the check evaluation is accurate only to the Picard stop: at inner_tol
        # 1e-12 the miss is 3.1e-14 from 0.5 k_bar and 1.3e-15-1.6e-15 from the others
        pol = PolicyApprox(order=3, system=growth.system, inner_tol=1e-12)
        try:
            u0 = solve_initial(pol, [start * growth.params.k_bar], [], tol=tol)
        except InfeasibleInitialError as exc:
            assert re.fullmatch(
                r"the policy at the matched point misses the initial condition by "
                r"[0-9.]+e-1[45] \(tolerance 1\.0e-1[45]\); a miss within the policy's inner_tol "
                r"1\.0e-12 is its own evaluation error, so tol cannot be met below inner_tol",
                str(exc)), str(exc)
        else:  # u is never corrected: a start that passes has the bits of a loose check
            assert u0[0].hex() == self.TRANSITION_U0[start]

    def test_tight_tolerance_still_rejects_another_branch(self, growth):
        pol = PolicyApprox(order=3, system=growth.system, inner_tol=1e-12)
        with pytest.raises(InfeasibleInitialError) as err:
            solve_initial(pol, [0.01 * growth.params.k_bar], [], tol=1e-15)
        assert str(err.value).endswith("(tolerance 1.0e-15)")  # a real miss: no floor named

    def test_start_below_the_old_fold_solves(self, growth):
        # from 0.1 k_bar the pinned row and the policy agree; Newton over policy
        # evaluations stopped outside the evaluable region here
        pol = _policy(growth, order=3)
        k0 = 0.1 * growth.params.k_bar
        u0 = solve_initial(pol, np.array([k0]), np.zeros(0), tol=1e-13)

        def capital_mismatch(u):
            return u + eval_policy(pol, np.array([u]))[0] - (k0 - growth.params.k_bar)

        expected = bisect(capital_mismatch, -0.1603, -0.15)  # evaluable from -0.1603 up
        assert abs(u0[0] - expected) <= 1e-10

    def test_basis_without_u_in_the_matched_rows_is_infeasible(self):
        # the x-row of a swapped basis has no u column, so it cannot pin the row's first point
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        sysm = _under_basis(transformed_from_maps(A=[[0.5]], B=[[2.0]],
                                                  F=lambda U, V: np.zeros_like(U),
                                                  G=lambda U, V: 0.1 * U**2),
                            swap, swap)
        with pytest.raises(InfeasibleInitialError, match="singular"):
            solve_initial(PolicyApprox(order=2, system=sysm), [0.1], [])

    def test_order_zero_is_the_linear_solve(self):
        # the zero policy puts no v in the matched rows: u = R1^-1 (x0 - x_bar), bitwise
        sysm = _mixed_plane()
        x0 = np.array(PLANE_STARTS[0])
        u0 = solve_initial(PolicyApprox(order=0, system=sysm), x0, [])
        assert np.array_equal(u0, np.linalg.solve(sysm.split.Z[:2, :2], x0 - sysm.ss.x_bar))

    def test_linear_model_reduces_to_matrix_solve(self, linear_model):
        tsys = build_system(linear_model, 1e-13)
        pol = PolicyApprox(order=2, system=tsys, inner_tol=1e-13)
        x0, z0 = np.array([0.2]), np.array([-0.1])
        u0 = solve_initial(pol, x0, z0, tol=1e-12)
        expected = np.linalg.solve(tsys.split.Z[:2, :2], np.array([z0[0], x0[0]]))
        assert_allclose(u0, expected, atol=1e-10)


class TestSimulate:
    def test_steady_initial_gives_constant_path(self, growth):
        pol = _policy(growth)
        traj = simulate(pol, np.zeros(1), 10)
        kb = growth.params.k_bar
        assert np.max(np.abs(traj.x_path - kb)) <= 1e-12
        assert np.max(np.abs(traj.y_path - kb)) <= 1e-12
        assert traj.truncated_at is None

    def test_capital_path_matches_exact_iteration(self, growth):
        pol = _policy(growth, order=2)
        kb = growth.params.k_bar
        k0 = 0.5 * kb
        u0 = solve_initial(pol, np.array([k0]), np.zeros(0), tol=1e-13)
        traj = simulate(pol, u0, 50)
        exact = closed_form_path(growth.params, k0, 50)
        assert np.max(np.abs(traj.x_path[:, 0] - exact)) <= 1e-4

    def test_stable_coordinate_decay_rate(self, growth):
        pol = _policy(growth, order=2)
        traj = simulate(pol, np.array([0.006]), 25)
        norms = np.linalg.norm(traj.u_path, axis=1)
        rates = norms[1:12] / norms[:11]
        assert np.all(rates <= growth.system.split.normA + 0.01)

    def test_reconstruction_consistency(self, growth):
        pol = _policy(growth, order=2)
        traj = simulate(pol, np.array([0.005]), 15)
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
        traj = simulate(pol, np.array([3 * dom.r_u]), 10)
        assert traj.truncated_at == 0
        assert len(traj) == 1

    def test_residual_along_path_shrinks_with_order(self, growth, growth_domain):
        dom, _ = growth_domain
        peaks = []
        for order in (1, 2, 3):
            pol = _policy(growth, order=order, domain=dom)
            traj = simulate(pol, np.array([0.004]), 25)
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
#: the first period of the order-3 growth path from each start that is at the
#: steady state, after the step to |u| <= 1e-15
FLOOR_PERIODS = {0.25: 33, 0.5: 32, 2.0: 32}
PLANE_STARTS = ([0.3, -0.2], [0.5, 0.4], [-0.4, 0.3])


def _under_basis(sysm, Z, Z_inv):
    """``sysm``'s maps ``(F, G)`` of ``(u, v)`` kept under the basis ``Z``.

    The remainder on ``w = Z (u, v)`` is ``(F, G)(W Z_inv^T) Z^T``, so ``fg``,
    which conjugates it by ``Z``, gives ``(F, G)`` back up to rounding.
    """
    split = SpectralSplit(Z=Z, Z_inv=Z_inv, A=sysm.split.A, B=sysm.split.B)
    return dataclasses.replace(
        sysm, split=split, nonlinear=lambda W: sysm.nonlinear(W @ Z_inv.T) @ Z.T
    )


def _mixed_plane():
    """Two stable coordinates and one unstable one, under a basis that mixes all three."""
    plane = transformed_from_maps(
        A=[[0.5, 0.1], [0.0, 0.3]],
        B=[[2.0]],
        F=lambda U, V: np.column_stack([0.1 * U[:, 0] * V[:, 0], 0.05 * U[:, 1] ** 2]),
        G=lambda U, V: 0.3 * U[:, 1:] ** 2 + 0.2 * U[:, :1] * U[:, 1:] + 0.1 * U[:, :1] * V,
    )
    Z = np.array([[1.0, 0.2, 0.7], [-0.3, 1.0, 0.5], [0.1, 0.4, 1.0]])
    return _under_basis(plane, Z, np.linalg.inv(Z))


def _mixed_pair():
    """One stable coordinate and two unstable ones, with ``B`` upper triangular, under a mixing basis."""
    pair = transformed_from_maps(
        A=[[0.5]],
        B=[[2.0, 0.3], [0.0, 2.5]],
        F=lambda U, V: 0.1 * U * V[:, :1],
        G=lambda U, V: np.column_stack([0.3 * U[:, 0] ** 2 + 0.1 * U[:, 0] * V[:, 1],
                                        0.2 * U[:, 0] ** 2 + 0.05 * U[:, 0] * V[:, 0]]),
    )
    Z = np.array([[1.0, 0.4, -0.3], [0.2, 1.0, 0.5], [-0.1, 0.3, 1.0]])
    return _under_basis(pair, Z, np.linalg.inv(Z))


def _path_fields(traj):
    return traj.u_path, traj.v_path, traj.x_path, traj.y_path, traj.z_path


#: how far each path column of :func:`simulate` may be from the path solved one period at
#: a time (:func:`oracles.simulate_stepwise`): each row stops at inner_tol from another
#: start, and the path already keeps to the path of cold rows within this bound
STEPWISE_ATOL = 2e-13


def _assert_near_stepwise(traj, ref, atol=STEPWISE_ATOL):
    for got, want in zip(_path_fields(traj), ref):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= atol)


class TestBatchedTransition:
    """One batched evaluation per Newton point, and paths warm-started and stopped at the floor."""

    @pytest.mark.parametrize("start", STARTS)
    def test_initial_condition_matches_pointwise_newton(self, growth, start):
        # the pinned row against Newton on u over one-point policy evaluations
        pol = PolicyApprox(order=3, system=growth.system)
        x0 = np.array([start * growth.params.k_bar])
        u0 = solve_initial(pol, x0, np.zeros(0), tol=1e-13)
        ref = solve_initial_pointwise(pol, x0, np.zeros(0), tol=1e-13)
        assert np.max(np.abs(u0 - ref)) <= 1e-13

    def test_initial_condition_with_two_stable_coordinates(self):
        # a mixing basis puts the policy into both matched rows, so the
        # (1, 2) policy Jacobian enters the Newton matrix column by column
        pol = PolicyApprox(order=3, system=_mixed_plane())
        for x0 in PLANE_STARTS:
            u0 = solve_initial(pol, x0, [], tol=1e-13)
            ref = solve_initial_pointwise(pol, x0, [], tol=1e-13)
            assert np.max(np.abs(u0 - ref)) <= 1e-13
            assert abs(eval_policy(pol, u0)[0]) > 1e-3  # the policy term is not negligible

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_initial_condition_with_two_unstable_coordinates(self, order):
        # the pin moves u with both values of the row's first pair
        pol = PolicyApprox(order=order, system=_mixed_pair())
        for x0 in ([0.3], [-0.4]):
            u0 = solve_initial(pol, x0, [], tol=1e-13)
            ref = solve_initial_pointwise(pol, x0, [], tol=1e-13)
            assert np.max(np.abs(u0 - ref)) <= 1e-13
            assert np.min(np.abs(eval_policy(pol, u0))) > 1e-3  # the policy term is not negligible

    @pytest.mark.parametrize("start", STARTS)
    def test_path_keeps_to_stepwise_iteration(self, growth, start):
        # within STEPWISE_ATOL; at most 2.0e-15 measured
        pol = PolicyApprox(order=3, system=growth.system)
        u0 = solve_initial(pol, [start * growth.params.k_bar], [], tol=1e-10)
        traj = simulate(pol, u0, 200)
        _assert_near_stepwise(traj, simulate_stepwise(pol, u0, 200))
        # the path runs to T and is the steady state from the step to the floor on
        floor, ss = FLOOR_PERIODS[start], growth.system.ss
        assert len(traj) == 201
        assert np.all(np.linalg.norm(traj.u_path[:floor], axis=1) > 1e-15)
        assert not np.any(traj.u_path[floor:]) and not np.any(traj.v_path[floor:])
        assert np.all(traj.x_path[floor:] == ss.x_bar) and np.all(traj.y_path[floor:] == ss.y_bar)

    @pytest.mark.parametrize("order", [1, 2, 3, 8])
    @pytest.mark.parametrize("start", STARTS)
    def test_path_keeps_to_the_path_of_cold_rows(self, growth, order, start):
        # the path of cold rows, iterated to T with no floor, is the reference: every
        # path column within 2e-13 on all 201 rows (at most 5.0e-14 measured, at order 2)
        pol = PolicyApprox(order=order, system=growth.system)
        u0 = solve_initial(pol, [start * growth.params.k_bar], [], tol=1e-10)
        traj = simulate(pol, u0, 200)
        for got, want in zip(_path_fields(traj), simulate_stepwise(pol, u0, 200, cold=True)):
            assert got.shape == want.shape and len(got) == 201
            assert np.all(np.abs(got - want) <= 2e-13)

    @pytest.mark.parametrize("order", [2, 3, 8])
    @pytest.mark.parametrize("start", STARTS)
    def test_path_stays_on_the_one_step_closed_loop(self, growth, order, start):
        # the row's look-ahead point against A u + F(u, v) at the returned v,
        # by one fg call per period: they differ by at most |F_v| * inner_tol a step
        pol = PolicyApprox(order=order, system=growth.system)
        u0 = solve_initial(pol, [start * growth.params.k_bar], [], tol=1e-10)
        traj = simulate(pol, u0, 200)
        ref = simulate_stepwise(pol, u0, 200, from_row=False)
        for got, want in zip(_path_fields(traj), ref):
            assert got.shape == want.shape and len(got) == 201
            assert np.all(np.abs(got - want) <= 2e-13)

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("make, u0", [(_mixed_plane, [0.3, -0.2]), (_mixed_pair, [0.3])],
                             ids=["plane", "pair"])
    def test_path_steps_near_the_rows_look_ahead_point(self, make, u0, order):
        # F depends on v on both systems: |F_v| = 0.1 |u[0]| on the plane and 0.1 |u|
        # on the pair, so a row's look-ahead point is A u + F(u, v) at the returned v to
        # within 0.1 |u| * inner_tol, with 1e-16 for the rounding of fg under the basis;
        # the next row may be solved at a point within 1e-15 of it.  The path keeps to
        # the stepwise one within STEPWISE_ATOL (at most 2.1e-15 measured)
        sysm = make()
        pol = PolicyApprox(order=order, system=sysm)
        traj = simulate(pol, u0, 30)
        _assert_near_stepwise(traj, simulate_stepwise(pol, u0, 30))
        moved = []
        for t in range(30):
            u, v = traj.u_path[t], traj.v_path[t]
            miss = np.linalg.norm(traj.u_path[t + 1] - (sysm.split.A @ u + sysm.fg(u, v)[0]))
            assert miss <= 0.1 * np.linalg.norm(u) * pol.inner_tol + 1e-15 + 1e-16
            moved.append(miss > 0)
        assert any(moved)  # the look-ahead point is not the one-step image

    def test_order_two_path_keeps_to_stepwise_iteration(self, growth, counting_fg):
        # within STEPWISE_ATOL (2.9e-15 measured) in 27 fg calls; one period at a time from
        # the shifted rows took 69, evaluating every period after the path's first repeat
        # 693, stepping by one more fg call a period 114, and cold rows to a repeat 93
        pol = PolicyApprox(order=2, system=growth.system)
        u0 = solve_initial(pol, [0.5 * growth.params.k_bar], [], tol=1e-10)
        sysm, calls = counting_fg(growth.system)
        traj = simulate(PolicyApprox(order=2, system=sysm), u0, 200)
        assert calls[0] == 27
        _assert_near_stepwise(traj, simulate_stepwise(pol, u0, 200))

    def test_path_on_a_cycle_runs_to_T(self, counting_fg):
        # the states 1, 0.25, -0.25, 0.25, ... never reach the floor, so every period is
        # solved: in 208 fg calls, where one period at a time took 1,409.  F does not depend
        # on v, so every state is exact, and a row depends only on the rows ahead of it, so
        # a short path is the long one's prefix bit for bit
        counted, calls = counting_fg(_cycle(_remainder))
        pol = PolicyApprox(order=2, system=counted)
        short = simulate(pol, [1.0], 3)
        evaluated = calls[0]
        traj = simulate(pol, [1.0], 200)
        assert calls[0] - evaluated == 208
        assert np.array_equal(traj.u_path[:, 0], [1.0] + [0.25, -0.25] * 100)
        for got, prefix in zip(_path_fields(traj), _path_fields(short)):
            assert np.array_equal(got[:4], prefix)
        _assert_near_stepwise(traj, simulate_stepwise(pol, [1.0], 200))

    def test_short_path_keeps_to_stepwise_iteration(self, growth):
        # T = 20 ends well before the path reaches the floor; within STEPWISE_ATOL
        pol = PolicyApprox(order=3, system=growth.system)
        u0 = solve_initial(pol, [0.5 * growth.params.k_bar], [], tol=1e-10)
        traj = simulate(pol, u0, 20)
        assert not np.array_equal(traj.u_path[-1], traj.u_path[-2])
        _assert_near_stepwise(traj, simulate_stepwise(pol, u0, 20))

    def test_truncated_path_equals_stepwise_iteration(self, growth, growth_domain):
        dom, _ = growth_domain
        pol = PolicyApprox(order=2, system=growth.system, domain=dom)
        u0 = np.array([3 * dom.r_u])
        traj = simulate(pol, u0, 10)
        assert traj.truncated_at == 0
        for got, ref in zip(_path_fields(traj), simulate_stepwise(pol, u0, 10)):
            assert np.array_equal(got, ref)

    def test_exogenous_path_keeps_to_stepwise_iteration(self, exo_system):
        # within STEPWISE_ATOL
        pol = PolicyApprox(order=3, system=exo_system, inner_tol=1e-13)
        traj = simulate(pol, [0.4], 60)
        _assert_near_stepwise(traj, simulate_stepwise(pol, [0.4], 60))

    def test_stochastic_path_equals_pointwise_resolves(self, exo_system):
        pol = PolicyApprox(order=3, system=exo_system, inner_tol=1e-13)
        shocks = np.random.default_rng(0).choice([-0.01, 0.01], size=(20, 1))
        traj = simulate_stochastic(pol, np.zeros(0), [0.3], shocks, 20)
        u_ref, v_ref = simulate_stochastic_stepwise(
            pol, np.zeros(0), [0.3], shocks, 20
        )
        assert np.array_equal(traj.u_path, u_ref)
        assert np.array_equal(traj.v_path, v_ref)

    def test_fg_budget_of_the_stochastic_path(self, exo_system, counting_fg):
        # with no endogenous state the next period's state needs no policy
        # value; evaluating one anyway took 820 calls
        sysm, calls = counting_fg(exo_system)
        pol = PolicyApprox(order=3, system=sysm, inner_tol=1e-13)
        shocks = np.random.default_rng(0).choice([-0.01, 0.01], size=(20, 1))
        simulate_stochastic(pol, np.zeros(0), [0.3], shocks, 20)
        assert 0 < calls[0] <= 500

    def test_failed_stencil_row_of_a_rejected_trial(self):
        # matching atan(u) = x0 on the order-1 row v, whose pair is (u, v) with u pinned
        # at (x0 - v) / a: from v = 0, u = 2, the full Newton step overshoots to
        # u = -1.04, where |atan(u) - x0| is larger, and is halved.  The map is made
        # undefined at one stencil row of that trial's row; the rejected trial's
        # Jacobian is never needed.
        a, x0, bad = 0.25, 0.5, set()

        sysm = _under_basis(
            transformed_from_maps(A=[[0.5]], B=[[2.0]], F=lambda U, V: np.zeros_like(U),
                                  G=lambda U, V: -2.0 * (np.arctan(U) - a * U)),  # h1 = atan - a u
            np.array([[a, 1.0], [0.0, 1.0]]), np.array([[1.0 / a, -1.0 / a], [0.0, 1.0]]),
        )
        batches, plain = [], sysm.fg

        def fg(U, V):  # records each batch of pairs, and G is undefined at the u in bad
            if not batches or not np.array_equal(batches[-1], U):
                batches.append(U.copy())
            F_val, G_val = plain(U, V)
            return F_val, np.where(np.isin(U, list(bad)), np.nan, G_val)

        sysm.fg = fg
        pol = PolicyApprox(order=1, system=sysm, inner_tol=1e-13)
        clean = solve_initial(pol, [x0], [])
        assert clean[0] == pytest.approx(np.tan(x0), abs=1e-12)
        # each batch is a row on its stencil, the pin moving u with v: (u, v), (u -+ h / a, v +- h)
        start, trial, h = batches[0][0, 0], batches[1][0, 0], np.cbrt(np.finfo(float).eps)
        assert batches[0].shape == (3, 1) and start == 2.0
        assert batches[0][1:, 0] - start == pytest.approx([-h / a, h / a], rel=1e-12)
        assert abs(np.arctan(trial) - x0) > abs(np.arctan(start) - x0)

        bad.add(batches[1][1, 0])  # trial - h / a
        assert np.array_equal(solve_initial(pol, [x0], []), clean)
        # at an accepted point Newton still needs its Jacobian, as before
        bad.add(batches[2][2, 0])
        with pytest.raises(InfeasibleInitialError, match="outside the evaluable region"):
            solve_initial(pol, [x0], [])


def _cycle(G):
    """u' = 0.25 from u = 1, then u' = -u, with ``G`` for the remainder of ``v``."""
    return transformed_from_maps(
        A=[[0.5]], B=[[2.0]], F=lambda U, V: np.where(U > 0.5, 0.25 - 0.5 * U, -1.5 * U), G=G,
    )


def _outward(G):
    """u' = 0.5 u + 5 u^2: the states 0.2, 0.3, 0.6, 2.1, ... from u = 0.2, with ``G``."""
    return transformed_from_maps(A=[[0.5]], B=[[2.0]], F=lambda U, V: 5.0 * U**2, G=G)


def _remainder(U, V):
    return 0.1 * U**2 + 0.05 * U * V


@pytest.fixture(scope="module")
def bm_system():
    return build_system(brock_mirman.build_model(0.9), 1e-13)


class TestSlidingWindow:
    """The path's periods solved over a sliding window, against the path solved one period at a time."""

    @pytest.mark.parametrize("order", [1, 2, 3, 8])
    @pytest.mark.parametrize("start", STARTS)
    def test_period_zero_is_the_cold_row(self, growth, order, start):
        pol = PolicyApprox(order=order, system=growth.system)
        u0 = solve_initial(pol, [start * growth.params.k_bar], [], tol=1e-10)
        traj = simulate(pol, u0, 200)
        assert np.array_equal(traj.u_path[0], u0)
        assert np.array_equal(traj.v_path[0], eval_policy(pol, u0))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_period_zero_is_the_cold_row_on_brock_mirman(self, bm_system, order):
        pol = PolicyApprox(order=order, system=bm_system)
        u0 = solve_initial(pol, [0.5 * bm_system.ss.x_bar[0]], [-0.05], tol=1e-10)
        traj = simulate(pol, u0, 40)
        assert np.array_equal(traj.v_path[0], eval_policy(pol, u0))

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("start", STARTS)
    def test_low_order_path_keeps_to_stepwise_iteration(self, growth, order, start):
        # within STEPWISE_ATOL: at most 1.2e-15 measured at order 0, whose value is zero, so
        # only the floor test moves it, and 2.8e-14 at order 1
        pol = PolicyApprox(order=order, system=growth.system)
        u0 = solve_initial(pol, [start * growth.params.k_bar], [], tol=1e-10)
        _assert_near_stepwise(simulate(pol, u0, 200), simulate_stepwise(pol, u0, 200))

    def test_two_runs_give_the_same_bytes(self, growth, bm_system):
        for sysm, x0, z0 in ((growth.system, [0.5 * growth.params.k_bar], []),
                             (bm_system, [0.5 * bm_system.ss.x_bar[0]], [-0.05])):
            pol = PolicyApprox(order=3, system=sysm)
            u0 = solve_initial(pol, x0, z0, tol=1e-10)
            first, second = simulate(pol, u0, 200), simulate(pol, u0, 200)
            for a, b in zip(_path_fields(first), _path_fields(second)):
                assert a.tobytes() == b.tobytes()

    def test_slow_model_keeps_to_stepwise_iteration(self, counting_fg):
        # Brock-Mirman in consumption form, rho_z = 0.9, order 2, from 0.5 x_bar: within
        # STEPWISE_ATOL (2.0e-14 measured) in 31 fg calls, where one period at a time took 85
        sysm = brock_mirman_c.build_system(0.9)
        pol = PolicyApprox(order=2, system=sysm)
        u0 = solve_initial(pol, [0.5 * sysm.ss.x_bar[0]], [0.0], tol=1e-10)
        (window, calls), (stepwise, oracle_calls) = counting_fg(sysm), counting_fg(sysm)
        traj = simulate(PolicyApprox(order=2, system=window), u0, 200)
        ref = simulate_stepwise(PolicyApprox(order=2, system=stepwise), u0, 200)
        assert (calls[0], oracle_calls[0]) == (31, 85)
        _assert_near_stepwise(traj, ref)

    def test_nonlinear_in_next_model_keeps_to_stepwise_iteration(self, counting_fg):
        # CRRA growth (sigma = 2, delta = 0.1), order 3, T = 600, from 0.5 k_bar: within
        # STEPWISE_ATOL (5.9e-14 measured) in 359 fg calls, where one period at a time took 989
        sysm = build_system(crra_growth.build_model(), 1e-13)
        pol = PolicyApprox(order=3, system=sysm)
        u0 = solve_initial(pol, [0.5 * sysm.ss.x_bar[0]], [0.0], tol=1e-10)
        (window, calls), (stepwise, oracle_calls) = counting_fg(sysm), counting_fg(sysm)
        traj = simulate(PolicyApprox(order=3, system=window), u0, 600)
        ref = simulate_stepwise(PolicyApprox(order=3, system=stepwise), u0, 600)
        assert (calls[0], oracle_calls[0]) == (359, 989)
        _assert_near_stepwise(traj, ref)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_path_truncates_where_stepwise_iteration_does(self, order):
        # the third state, 0.6, leaves the ball of radius 0.5; the rows behind it run on
        # to states that overflow
        pol = PolicyApprox(order=order, system=_outward(_remainder), domain=DomainSpec(0.5, 1.0))
        traj = simulate(pol, [0.2], 50)
        assert traj.truncated_at == 2 and len(traj) == 3
        _assert_near_stepwise(traj, simulate_stepwise(pol, [0.2], 50))

    @pytest.mark.parametrize("order, failing", [(1, 0.6), (2, 0.3), (3, 0.2)])
    def test_front_going_non_finite_raises_the_stepwise_error(self, order, failing):
        # G is undefined beyond |u| = 0.5, so the first row that reaches 0.6 fails: the
        # order-n row at u looks ahead n - 1 states.  F does not depend on v, so the
        # states are exact, and the stepwise error is eval_policy's at the first state
        # whose row fails
        sysm = _outward(lambda U, V: np.where(np.abs(U) > 0.5, np.nan, _remainder(U, V)))
        pol = PolicyApprox(order=order, system=sysm)
        with pytest.raises(NonContractionError) as got:
            simulate(pol, [0.2], 10)
        u = np.array([0.2])
        while True:
            try:
                eval_policy(pol, u)
            except NonContractionError as exc:
                want = exc
                break
            u = sysm.split.A @ u + sysm.fg(u, np.zeros(1))[0]
        assert got.value.point[0] == pytest.approx(failing, rel=1e-15)
        assert np.array_equal(got.value.point, want.point)
        assert np.array_equal(got.value.last_residual, want.last_residual, equal_nan=True)
        assert str(got.value) == str(want) and "went non-finite" in str(want)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_front_out_of_sweeps_raises_the_cold_error(self, growth, order):
        # period 0 is the front from the first sweep, so it iterates as eval_policy does
        u0 = solve_initial(PolicyApprox(order=order, system=growth.system),
                           [0.5 * growth.params.k_bar], [], tol=1e-10)
        pol = PolicyApprox(order=order, system=growth.system, inner_max_iter=3)
        with pytest.raises(NonContractionError) as got:
            simulate(pol, u0, 200)
        with pytest.raises(NonContractionError) as want:
            eval_policy(pol, u0)
        assert np.array_equal(got.value.point, want.value.point)
        assert got.value.last_residual == want.value.last_residual
        assert str(got.value) == str(want.value) and "within 3 iterations" in str(got.value)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_row_behind_the_front_going_non_finite_starts_again(self, order):
        # the window starts at the states A^t u = 1, 0.5, 0.25, ..., and G is undefined
        # between 0.02 and 0.05, where A^5 = 0.03125 lies but no row of the path's states
        # 1, 0.25, -0.25, ... looks, cold or shifted: rows behind the front go non-finite
        # and start again cold at their next points, and the path keeps to the stepwise one
        # within STEPWISE_ATOL (7.5e-16 measured)
        undefined = [0]

        def G(U, V):
            out = np.where((U > 0.02) & (U < 0.05), np.nan, _remainder(U, V))
            undefined[0] += int(np.isnan(out).any())
            return out

        pol = PolicyApprox(order=order, system=_cycle(G))
        traj = simulate(pol, [1.0], 60)
        assert undefined[0] > 0
        seen = undefined[0]
        ref = simulate_stepwise(pol, [1.0], 60)
        assert undefined[0] == seen  # the path solved one period at a time never goes there
        assert np.all(np.isfinite(traj.v_path))
        _assert_near_stepwise(traj, ref)


#: fg calls allowed for the order-3 initial condition (tol 1e-10) and the 200-period
#: path from each start, by start: the measured 18 / 15 / 17 (the pinned row's 5 / 4 / 5
#: and the cold check's 13 / 11 / 12) and 26 / 27 / 27, plus at most 15%; Newton over
#: cold stacked solves made 52 / 33 / 36, the nested solves 334 / 218 / 230 and
#: 422 / 360 / 362; the path solved one period at a time from the shifted rows took
#: 76 / 66 / 67, with one more fg call a period for the next state 137 / 126 / 121, and
#: cold rows to a bitwise repeat 95 / 105 / 89
INITIAL_BUDGETS = {0.25: 20, 0.5: 17, 2.0: 19}
PATH_BUDGETS = {0.25: 30, 0.5: 31, 2.0: 31}


class TestStackedTransition:
    """The transition's cost with every recursion level in one stacked solve."""

    @pytest.mark.parametrize("start", STARTS)
    def test_fg_budget_of_the_initial_condition(self, growth, counting_fg, start):
        sysm, calls = counting_fg(growth.system)
        pol = PolicyApprox(order=3, system=sysm)
        solve_initial(pol, [start * growth.params.k_bar], [], tol=1e-10)
        assert 0 < calls[0] <= INITIAL_BUDGETS[start]

    @pytest.mark.parametrize("start", STARTS)
    def test_fg_budget_of_the_path(self, growth, counting_fg, start):
        u0 = solve_initial(PolicyApprox(order=3, system=growth.system),
                           [start * growth.params.k_bar], [], tol=1e-10)
        sysm, calls = counting_fg(growth.system)
        traj = simulate(PolicyApprox(order=3, system=sysm), u0, 200)
        assert 0 < calls[0] <= PATH_BUDGETS[start]
        assert len(traj) == 201


class TestReplacedBasis:
    def test_replaced_split_gives_the_rebuilt_path(self, growth):
        # fg reads the system's one remainder and one basis at each call, so a new split
        # cannot leave it on the old basis (which missed k' by 6.4e-3 on this path)
        split = rescale_columns(growth.system.split, [2, 1])
        paths = []
        for sysm in (dataclasses.replace(growth.system, split=split),
                     build_transformed(growth.first_order, split)):
            pol = PolicyApprox(order=3, system=sysm)
            paths.append(simulate(pol, solve_initial(pol, [0.5 * growth.params.k_bar], []), 200))
        a, b = growth.params.alpha, growth.params.beta
        k, k_next = paths[0].x_path[:, 0], paths[0].y_path[:, 0]
        assert np.max(np.abs(k_next - a * b * k**a)) <= 1e-6
        for got, ref in zip(_path_fields(paths[0]), _path_fields(paths[1])):
            assert np.array_equal(got, ref)


class TestExtendedPath:
    def _u_path(self, exo_system, u0, n):
        return np.array([[u0 * 0.5 ** i] for i in range(n + 1)])

    def test_first_sweep_recovers_order_one(self, exo_system):
        n = 20
        u_path = self._u_path(exo_system, 0.8, n)
        V = solve_ep(exo_system, u_path, 1, 1e-14)
        pol = PolicyApprox(order=1, system=exo_system, inner_tol=1e-14)
        for i in range(n + 1):
            assert abs(V[1, i, 0] - eval_policy(pol, u_path[i])[0]) <= 1e-10

    def test_sweeps_match_policy_orders(self, exo_system):
        n = 20
        u_path = self._u_path(exo_system, 0.8, n)
        V = solve_ep(exo_system, u_path, 4, 1e-14)
        for j in (1, 2, 3, 4):
            pol = PolicyApprox(order=j, system=exo_system, inner_tol=1e-14)
            for i in range(n + 1 - j):
                assert abs(V[j, i, 0] - eval_policy(pol, u_path[i])[0]) <= 1e-8

    def test_zero_feed_gives_zero_iterates(self):
        sysm = transformed_from_maps(
            A=[[0.5]],
            B=[[2.0]],
            F=lambda U, V: np.zeros_like(U),
            G=lambda U, V: np.zeros_like(V),
            n_z=1,
        )
        u_path = self._u_path(sysm, 0.9, 10)
        V = solve_ep(sysm, u_path, 3)
        assert np.max(np.abs(V)) == 0.0

    def test_geometric_convergence_of_sweeps(self, exo_system):
        n = 30
        u_path = self._u_path(exo_system, 0.8, n)
        V = solve_ep(exo_system, u_path, 12, 1e-15)
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
        V = solve_ep(exo_system, u_path, 4)
        assert np.array_equal(V, solve_ep_pointwise(exo_system, u_path, n, 4, 1e-13))

    def test_failed_period_is_reported(self, exo_system):
        # at u = 0 one iteration converges; at u = 0.4 it cannot
        u_path = np.array([[0.0], [0.4], [0.2]])
        with pytest.raises(NonContractionError, match="sweep 1, period 1") as err:
            solve_ep(exo_system, u_path, 2, max_iter=1)
        assert np.array_equal(err.value.point, [0.4])

    @pytest.mark.parametrize("field, value", [
        ("max_iter", 0), ("max_iter", -3),
        ("tol", 0.0), ("tol", -1e-13), ("tol", math.nan),
    ])
    def test_sweep_budget_and_tolerance_rejected(self, exo_system, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            solve_ep(exo_system, np.zeros((3, 1)), 1, **{field: value})

    def test_requires_exogenous_drift(self, growth):
        u_path = np.zeros((3, 1))
        with pytest.raises(ValueError):
            solve_ep(growth.system, u_path, 1)


class TestStochastic:
    @pytest.mark.parametrize("x0", PLANE_STARTS)
    def test_paths_start_at_x0_under_a_mixing_basis(self, x0):
        # the initial condition is matched, and the levels written, through
        # the basis the policy's system carries
        pol = PolicyApprox(order=3, system=_mixed_plane())
        det = simulate(pol, solve_initial(pol, x0, [], tol=1e-12), 20)
        sto = simulate_stochastic(pol, x0, [], np.zeros((20, 0)), 20)
        assert np.linalg.norm(det.x_path[0] - x0) <= 1e-12
        assert np.linalg.norm(sto.x_path[0] - x0) <= 1e-12
        assert np.max(np.abs(sto.x_path - det.x_path)) <= 1e-10

    def test_zero_shocks_reproduce_deterministic_path(self, exo_system):
        pol = PolicyApprox(order=2, system=exo_system, inner_tol=1e-13)
        z0 = np.array([0.4])
        det = simulate(pol, z0, 12)
        sto = simulate_stochastic(
            pol, np.zeros(0), z0, np.zeros((12, 1)), 12
        )
        assert np.max(np.abs(det.u_path - sto.u_path)) <= 1e-10
        assert np.max(np.abs(det.v_path - sto.v_path)) <= 1e-10

    def test_single_shock_equals_restarted_path(self, exo_system):
        pol = PolicyApprox(order=2, system=exo_system, inner_tol=1e-13)
        shocks = np.zeros((10, 1))
        shocks[0, 0] = 0.05
        sto = simulate_stochastic(pol, np.zeros(0), np.array([0.4]), shocks, 10)
        restarted = simulate_stochastic(
            pol, np.zeros(0), sto.z_path[1], np.zeros((9, 1)), 9
        )
        assert np.max(np.abs(sto.z_path[1:] - restarted.z_path)) <= 1e-12
        assert np.max(np.abs(sto.v_path[1:] - restarted.v_path)) <= 1e-10

    def test_controls_stay_on_policy_graph(self, exo_system):
        pol = PolicyApprox(order=3, system=exo_system, inner_tol=1e-13)
        rng = np.random.default_rng(0)
        shocks = rng.choice([-0.01, 0.01], size=(20, 1))
        traj = simulate_stochastic(
            pol, np.zeros(0), np.array([0.3]), shocks, 20
        )
        for t in range(len(traj)):
            expected = eval_policy(pol, traj.u_path[t])
            assert np.linalg.norm(traj.v_path[t] - expected) <= 1e-12


def test_readme_library_quick_start_runs():
    # the README's library example as written, so a signature change cannot
    # leave it broken; its path starts inside the verified ball and runs to T
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert names["report"].cond1_ok and names["report"].cond2_ok and names["report"].cond3_ok
    assert names["v"].shape == (1,) and names["V"].shape == (11, 1)
    assert np.all(np.isfinite(names["V"]))
    traj = names["traj"]
    assert len(traj) == 51 and traj.truncated_at is None
    assert np.all(np.isfinite(traj.x_path))


def test_readme_fg_counts_are_current(growth, counting_fg):
    # the per-order counts the README states for one evaluation, so a change to
    # the solve cannot leave them stale
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    found = re.search(r"u = −0\.1396 on growth makes ([\d/]+) `fg` calls at\s+orders ([\d/]+)",
                      readme)
    assert found, "the README no longer states the per-order fg counts"
    counts, orders = (g.split("/") for g in found.groups())
    assert len(counts) == len(orders) >= 4
    sysm, calls = counting_fg(growth.system)
    for order, stated in zip(orders, counts):
        calls[0] = 0
        eval_policy(PolicyApprox(order=int(order), system=sysm), np.array([-0.1396]))
        assert calls[0] == int(stated), order
