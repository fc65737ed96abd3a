from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (
    first_iterate_formula,
    implicit_policy_pointwise,
    parametric_policy,
    policy_in_levels_pointwise,
)
from stablemanifold import (
    GrowthParams,
    PolicyApprox,
    build_growth_pipeline,
    closed_form,
    closed_form_start,
    eval_policy_hadamard,
    policy_at_levels,
    schur_split,
    taylor_policy,
)
from stablemanifold import manifold, solver

# fg calls of one level-grid solve, per order; 5/4/4 measured at 11, 101 and 501 levels
LEVEL_SOLVE_BUDGETS = {1: 6, 2: 8, 3: 8}
#: closed-form errors allowed at capital 1e-8 and 1e-6 k_bar, per order: 1.5 times the larger
#: of the two measured, 1.66e-3 / 2.13e-5 / 9.20e-7 and 2.24e-3 / 5.91e-5 / 2.75e-6
LOW_LEVEL_ERRORS = {1: 3.4e-3, 2: 9e-5, 3: 4.2e-6}


def implicit_levels(system, params, order, k_grid, tol=1e-13):
    """Next capital of the order-``order`` policy at the capital levels ``k_grid``, from the closed form's path."""
    start = closed_form_start(system, params, order, k_grid)
    return policy_at_levels(system, order, k_grid, tol=tol, start=start)[:, 0]


def explicit_levels(policy, system, k_grid):
    """Next capital on the graph of ``policy`` at the capital levels ``k_grid``, to ``4 eps max(1, |k|)``."""
    k = np.asarray(k_grid, dtype=float)
    tol = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(k))
    return policy_at_levels(system, policy, k, tol=tol)[:, 0]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GrowthParams(alpha=1.2, beta=0.9)
        with pytest.raises(ValueError):
            GrowthParams(alpha=0.36, beta=-0.5)
        for beta in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"beta must be positive and finite, got {beta}"):
                GrowthParams(alpha=0.36, beta=beta)
        # above 1/alpha, Newton leaves k_bar > 1 for the static residual's root k = 1
        for alpha, beta in ((0.36, 10.0), (0.5, np.nextafter(2.0, 3.0)), (0.95, 1.5)):
            with pytest.raises(ValueError, match="beta must be at most 1/alpha"):
                GrowthParams(alpha=alpha, beta=beta)
            GrowthParams(alpha=alpha, beta=1.0 / alpha)

    def test_steady_capital(self):
        params = GrowthParams(0.36, 0.99)
        assert_allclose(params.k_bar, (0.36 * 0.99) ** (1 / 0.64), rtol=1e-15)

    def test_unit_product_is_representable(self):
        # alpha*beta = 1 must construct so the unit-root guard can fire later
        params = GrowthParams(alpha=0.36, beta=1.0 / 0.36)
        assert_allclose(params.k_bar, 1.0)


class TestClosedForm:
    def test_fixed_point(self):
        params = GrowthParams()
        assert_allclose(closed_form(params, params.k_bar), params.k_bar, rtol=1e-14)

    def test_direct_arithmetic(self):
        params = GrowthParams()
        assert_allclose(closed_form(params, 0.25), 0.3564 * 0.25 ** 0.36, rtol=1e-12)

    def test_unit_capital(self):
        params = GrowthParams()
        assert_allclose(closed_form(params, 1.0), 0.36 * 0.99, rtol=1e-15)

    def test_rejects_nonpositive_capital(self):
        with pytest.raises(ValueError):
            closed_form(GrowthParams(), 0.0)
        with pytest.raises(ValueError):
            closed_form(GrowthParams(), np.array([0.2, -0.1]))


class TestTaylor:
    def test_expansion_point_is_fixed(self):
        params = GrowthParams()
        for order in (1, 2, 5, 16):
            assert_allclose(taylor_policy(params, order, params.k_bar), params.k_bar, rtol=1e-14)

    def test_linear_coefficient_equals_stable_root(self):
        # alpha*beta * alpha * k_bar**(alpha-1) collapses to alpha
        params = GrowthParams()
        delta = 1e-3
        got = taylor_policy(params, 1, params.k_bar + delta)
        assert_allclose(got, params.k_bar + params.alpha * delta, rtol=1e-12)

    def test_divergence_outside_convergence_interval(self):
        params = GrowthParams()
        kb = params.k_bar
        err = lambda k: abs(taylor_policy(params, 16, k) - closed_form(params, k))
        assert err(2.5 * kb) > 10 * err(1.5 * kb)

    def test_expansion_far_worse_than_implicit_order_two(self, growth, growth_domain):
        dom, _ = growth_domain
        params = growth.params
        k = 2.5 * params.k_bar
        t16_err = abs(taylor_policy(params, 16, k) - closed_form(params, k))
        h2 = implicit_levels(
            growth.system, params, 2, [k]
        )
        h2_err = abs(h2[0] - closed_form(params, k))
        assert t16_err > 10.0 * h2_err


class TestPipelineFidelity:
    def test_matrices_match_hand_derivation(self, growth):
        a, b = growth.params.alpha, growth.params.beta
        assert_allclose(
            growth.first_order.K,
            [[0.0, 1.0], [-1.0 / b, 1.0 / (a * b) + a]],
            atol=1e-10,
        )
        assert_allclose(growth.split.P, np.diag([a, 1.0 / (a * b)]), atol=1e-10)

    def test_eigenvalue_pair(self, growth):
        eig = np.sort(np.linalg.eigvals(growth.first_order.K))
        a, b = growth.params.alpha, growth.params.beta
        assert_allclose(eig, [a, 1.0 / (a * b)], atol=1e-10)

    def test_remainder_zero_at_origin(self, growth):
        assert np.linalg.norm(growth.first_order.nonlinear(np.zeros(2))) <= 1e-13


class TestParametricPolicy:
    def test_origin_maps_to_steady_state(self, growth):
        pol = PolicyApprox(order=2, system=growth.system, inner_tol=1e-13)
        pts = parametric_policy(pol, growth.split, growth.params, [0.0])
        kb = growth.params.k_bar
        assert_allclose(pts[0], [kb, kb], atol=1e-10)

    def test_first_iterate_graph_matches_formula(self, growth):
        h11 = lambda u: eval_policy_hadamard(growth.system, 1, u)
        pts = parametric_policy(h11, growth.split, growth.params, [0.05])
        kb = growth.params.k_bar
        a, b = growth.params.alpha, growth.params.beta
        v = first_iterate_formula(growth.params, 0.05)
        assert_allclose(pts[0, 0], 0.05 + v + kb, rtol=1e-12)
        assert_allclose(pts[0, 1], a * 0.05 + v / (a * b) + kb, rtol=1e-12)


class TestLevelPolicies:
    def test_accuracy_improves_with_order(self, growth, growth_domain):
        dom, _ = growth_domain
        kb = growth.params.k_bar
        k_grid = np.linspace(0.5 * kb, 2.0 * kb, 31)
        exact = closed_form(growth.params, k_grid)
        sups = []
        for order in (1, 2, 3):
            col = implicit_levels(
                growth.system, growth.params, order, k_grid
            )
            sups.append(np.max(np.abs(col - exact)))
        assert sups[0] > sups[1] > sups[2]

    def test_second_order_beats_high_order_expansion(self, growth, growth_domain):
        dom, _ = growth_domain
        kb = growth.params.k_bar
        k_grid = np.linspace(0.01 * kb, 5.0 * kb, 101)
        exact = closed_form(growth.params, k_grid)
        h2 = implicit_levels(
            growth.system, growth.params, 2, k_grid
        )
        assert np.all(np.isfinite(h2))
        inside = k_grid <= 2.0 * kb
        taylor_err = np.max(np.abs(taylor_policy(growth.params, 16, k_grid) - exact)[inside])
        assert np.max(np.abs(h2 - exact)) <= taylor_err

    def test_level_solution_invariant_to_basis_choice(self, growth, growth_domain):
        dom, _ = growth_domain
        kb = growth.params.k_bar
        k_grid = np.linspace(0.7 * kb, 1.5 * kb, 9)
        from stablemanifold import build_transformed

        raw_split = schur_split(growth.first_order.K, n_u=1)
        raw_system = build_transformed(growth.first_order, raw_split)
        col_norm = implicit_levels(
            growth.system, growth.params, 2, k_grid
        )
        col_raw = implicit_levels(
            raw_system, growth.params, 2, k_grid
        )
        assert_allclose(col_raw, col_norm, atol=1e-9)

    def test_explicit_inversion_matches_implicit_in_safe_zone(self, growth, growth_domain):
        dom, _ = growth_domain
        kb = growth.params.k_bar
        k_grid = np.linspace(0.8 * kb, 1.3 * kb, 7)
        pol = PolicyApprox(
            order=2, system=growth.system, inner_tol=1e-13, domain=dom
        )
        via_u = explicit_levels(pol, growth.system, k_grid)
        via_v = implicit_levels(
            growth.system, growth.params, 2, k_grid
        )
        assert_allclose(via_u, via_v, atol=1e-10)


class TestLockstepLevels:
    @pytest.mark.parametrize("levels", [11, 31])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_level_by_level_reference(self, growth, order, levels):
        kb = growth.params.k_bar
        k_grid = np.linspace(0.01 * kb, 5.0 * kb, levels)
        got = implicit_levels(growth.system, growth.params, order, k_grid)
        ref = implicit_policy_pointwise(growth.system, growth.params, order, k_grid)
        assert np.max(np.abs(got - ref)) <= 1e-13

    @pytest.mark.parametrize("levels", [11, 101, 501])
    @pytest.mark.parametrize("order", sorted(LEVEL_SOLVE_BUDGETS))
    def test_fg_budget_of_the_level_solve(self, growth, counting_fg, order, levels):
        # one fg call per Newton evaluation, stencil included, whatever the number of levels;
        # at orders 2 and 3 on 11 levels, bisecting each level to a 1e-15 bracket took 323
        # and 1,600 calls, and warm stacked lower-order solves in a bracket 73
        sysm, calls = counting_fg(growth.system)
        kb = growth.params.k_bar
        k_grid = np.linspace(0.01 * kb, 5.0 * kb, levels)
        implicit_levels(sysm, growth.params, order, k_grid)
        assert 0 < calls[0] <= LEVEL_SOLVE_BUDGETS[order]

    def test_levels_read_the_steady_state_of_the_system(self, growth):
        # the same system about a steady state moved by d: every level and its value move by d
        d = 1e-3
        ss = growth.system.ss
        moved = dataclasses.replace(growth.system, ss=dataclasses.replace(
            ss, x_bar=ss.x_bar + d, y_bar=ss.y_bar + d))
        k_grid = np.linspace(0.1, 3.0, 11) * growth.params.k_bar
        for order in (1, 3):
            base = implicit_levels(growth.system, growth.params, order, k_grid)
            got = implicit_levels(moved, growth.params, order, k_grid + d)
            assert np.max(np.abs(got - d - base)) <= 1e-13

    def test_level_whose_stencil_leaves_the_domain_names_itself(self, growth):
        # h11's image is evaluated at (u, 0), and the lowest level's stencil moves u to
        # nonpositive capital
        kb = growth.params.k_bar
        k_grid = np.linspace(1e-8 * kb, 5.0 * kb, 11)
        h11 = lambda u: eval_policy_hadamard(growth.system, 1, u)
        with pytest.raises(ValueError, match=r"policy graph at x0 = 1\.99482e-09 \(Newton"):
            policy_at_levels(growth.system, h11, k_grid)

    @pytest.mark.parametrize("order", sorted(LOW_LEVEL_ERRORS))
    def test_levels_far_below_the_stencil_step_solve(self, growth, order):
        # the row's stencil moves the pinned u with v, so the pinned level never moves
        k_grid = np.array([1e-8, 1e-6]) * growth.params.k_bar
        got = implicit_levels(growth.system, growth.params, order, k_grid)
        assert np.max(np.abs(got - closed_form(growth.params, k_grid))) <= LOW_LEVEL_ERRORS[order]

    def test_map_without_values_is_undefined_at_the_start(self, growth):
        nowhere = copy.copy(growth.system)
        nowhere.fg = lambda u, v: (np.full_like(u, np.nan), np.full_like(v, np.nan))
        kb = growth.params.k_bar
        k_grid = np.linspace(0.5 * kb, 2.0 * kb, 4)
        message = rf"order-2 policy at x0 = {k_grid[0]:.6g} \(Newton undefined at the start"
        with pytest.raises(ValueError, match=message):
            implicit_levels(nowhere, growth.params, 2, k_grid)

    def test_level_undefined_at_its_start_is_named_before_a_later_stall(self, growth):
        # the map is undefined at level 0's starting pair, and near level 2's it is
        # defined only at the points of the first evaluation, so every Newton trial of
        # level 2 lands where it is undefined and its step stalls
        kb, real = growth.params.k_bar, growth.system.fg
        k_grid = np.linspace(0.5 * kb, 2.0 * kb, 4)
        path = np.stack([k_grid, closed_form(growth.params, k_grid)], axis=1) - kb
        start = path @ growth.split.Z_inv.T  # each level's starting pair (u, v)
        first = []

        def fg(U, V):
            if not first:
                first.append(U.copy())
            F_val, G_val = real(U, V)
            near_2 = (np.abs(U - start[2, 0]) < 1e-2) & ~np.isin(U, first[0])
            undefined = (np.abs(U - start[0, 0]) < 1e-9) | near_2
            return np.where(undefined, np.nan, F_val), np.where(undefined, np.nan, G_val)

        holed = copy.copy(growth.system)
        holed.fg = fg
        message = rf"order-1 policy at x0 = {k_grid[0]:.6g} \(Newton undefined at the start"
        with pytest.raises(ValueError, match=message):
            implicit_levels(holed, growth.params, 1, k_grid)
        first.clear()
        with pytest.raises(ValueError, match=rf"x0 = {k_grid[2]:.6g} \(Newton stalled"):
            implicit_levels(holed, growth.params, 1, k_grid[1:])

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_value_is_the_image_of_a_certified_row(self, growth, monkeypatch, order):
        # each returned value is read off T_k(y) at a row y that one plain sweep moves by
        # at most inner_tol
        rows = []

        def newton(*args):
            out = real(*args)
            rows.append(out[0].copy())
            return out

        real = solver.damped_newton
        monkeypatch.setattr(solver, "damped_newton", newton)
        system, Z, tol = growth.system, growth.split.Z, 1e-13
        kb = growth.params.k_bar
        k_grid = np.linspace(0.01 * kb, 5.0 * kb, 31)
        got = implicit_levels(system, growth.params, order, k_grid, tol)
        (Y,) = rows
        assert Y.shape == (k_grid.size, 2 * order - 1)
        # the pin u = base - v P^T about the system's own steady state, as the solve sets it
        base, P = ((k_grid - system.ss.x_bar) / Z[0, 0])[:, None], Z[0, 1:] / Z[0, 0]
        image, inc = manifold.picard(system, base - Y[:, :1] * P, Y, None, tol, 1)
        assert np.all(inc <= tol)
        v = image[:, :1]
        assert np.array_equal(got, system.to_levels(base - v * P, v)[2][:, 0])


class TestFirstIterateInLevels:
    @pytest.mark.parametrize("k_min, k_max, levels", [
        pytest.param(0.01, 5.0, 11, id="11"),
        pytest.param(0.01, 5.0, 101, id="101"),
        pytest.param(0.01, 5.0, 501, id="501"),
        pytest.param(1e-4, 10.0, 101, id="1e-4-10-101"),
    ])
    def test_matches_continuation_reference(self, growth, k_min, k_max, levels):
        kb = growth.params.k_bar
        k_grid = np.linspace(k_min * kb, k_max * kb, levels)
        h11 = lambda u: eval_policy_hadamard(growth.system, 1, u)
        got = explicit_levels(h11, growth.system, k_grid)
        ref = policy_in_levels_pointwise(h11, growth.split, growth.params, k_grid)
        assert np.max(np.abs(got - ref)) <= 1e-14

    @pytest.mark.parametrize("cli_tol", [False, True], ids=["4eps", "inner_tol"])
    def test_fg_budget_of_the_default_grid(self, growth, counting_fg, cli_tol):
        # one damped Newton over all levels, at 4 eps max(1, |k|) and at the CLI's inner_tol;
        # level by level with continuation took 24,036
        sysm, calls = counting_fg(growth.system)
        kb = growth.params.k_bar
        k_grid = np.linspace(0.01 * kb, 5.0 * kb, 501)
        h11 = lambda u: eval_policy_hadamard(sysm, 1, u)
        if cli_tol:
            policy_at_levels(growth.system, h11, k_grid, tol=1e-12)
        else:
            explicit_levels(h11, growth.system, k_grid)
        assert 0 < calls[0] <= 6

    def test_map_without_values_names_the_first_level(self, growth):
        kb = growth.params.k_bar
        k_grid = np.linspace(0.5 * kb, 2.0 * kb, 4)
        nowhere = lambda u: np.full((u.shape[0], 1), np.nan)
        with pytest.raises(ValueError, match=rf"policy graph at x0 = {k_grid[0]:.6g} \(Newton"):
            explicit_levels(nowhere, growth.system, k_grid)

    def test_undefined_point_inside_a_bracket_names_its_level(self, growth):
        # the map is undefined on a small window around level 2's root, where Newton heads
        kb, split = growth.params.k_bar, growth.split
        k_grid = np.linspace(0.5 * kb, 2.0 * kb, 4)
        h11 = lambda u: eval_policy_hadamard(growth.system, 1, u)
        k_next = explicit_levels(h11, growth.system, k_grid)
        u_root = (np.stack([k_grid - kb, k_next - kb], axis=1) @ split.Z_inv.T)[:, 0]

        def holed(u):
            v = h11(u)
            v[np.abs(u[:, 0] - u_root[2]) < 1e-6] = np.nan
            return v

        with pytest.raises(ValueError, match=rf"policy graph at x0 = {k_grid[2]:.6g} \(Newton"):
            explicit_levels(holed, growth.system, k_grid)

    def test_level_undefined_at_its_start_is_named_before_a_later_failure(self, growth):
        # level 0's linear start is in a window where the map is undefined, and level 2's
        # Newton fails later, on the hole around its root
        kb, split = growth.params.k_bar, growth.split
        k_grid = np.linspace(0.5 * kb, 2.0 * kb, 4)
        h11 = lambda u: eval_policy_hadamard(growth.system, 1, u)
        k_next = explicit_levels(h11, growth.system, k_grid)
        u_root = (np.stack([k_grid - kb, k_next - kb], axis=1) @ split.Z_inv.T)[:, 0]
        u_start = (k_grid[0] - kb) / split.Z[0, 0]

        def holed(u):
            v = h11(u)
            v[(np.abs(u[:, 0] - u_root[2]) < 1e-6) | (np.abs(u[:, 0] - u_start) < 1e-6)] = np.nan
            return v

        with pytest.raises(ValueError, match=rf"policy graph at x0 = {k_grid[0]:.6g} \(Newton undefined"):
            explicit_levels(holed, growth.system, k_grid)

    def test_levels_below_the_stencil_floor_raise(self, growth):
        # below about k = 6.06e-6 a level's difference stencil reaches nonpositive capital
        h11 = lambda u: eval_policy_hadamard(growth.system, 1, u)
        explicit_levels(h11, growth.system, [6.1e-6])
        with pytest.raises(ValueError, match=r"policy graph at x0 = 6e-06 \(Newton undefined"):
            explicit_levels(h11, growth.system, [6.0e-6])


class TestOtherCalibration:
    def test_pipeline_runs_for_alternative_parameters(self):
        pipe = build_growth_pipeline(GrowthParams(alpha=0.3, beta=0.95))
        assert_allclose(pipe.split.A[0, 0], 0.3, atol=1e-10)
        assert_allclose(pipe.split.B[0, 0], 1.0 / 0.285, atol=1e-10)
