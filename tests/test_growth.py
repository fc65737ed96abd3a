from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (
    bracket_bisect_scalar,
    bracket_root_scalar,
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
    eval_policy_hadamard,
    implicit_policy_in_levels,
    policy_in_levels,
    schur_split,
    taylor_policy,
)
from stablemanifold.growth import _bracket_bisect


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GrowthParams(alpha=1.2, beta=0.9)
        with pytest.raises(ValueError):
            GrowthParams(alpha=0.36, beta=-0.5)

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
        h2 = implicit_policy_in_levels(
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
            col = implicit_policy_in_levels(
                growth.system, growth.params, order, k_grid
            )
            sups.append(np.max(np.abs(col - exact)))
        assert sups[0] > sups[1] > sups[2]

    def test_second_order_beats_high_order_expansion(self, growth, growth_domain):
        dom, _ = growth_domain
        kb = growth.params.k_bar
        k_grid = np.linspace(0.01 * kb, 5.0 * kb, 101)
        exact = closed_form(growth.params, k_grid)
        h2 = implicit_policy_in_levels(
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
        col_norm = implicit_policy_in_levels(
            growth.system, growth.params, 2, k_grid
        )
        col_raw = implicit_policy_in_levels(
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
        via_u = policy_in_levels(pol, growth.split, growth.params, k_grid)
        via_v = implicit_policy_in_levels(
            growth.system, growth.params, 2, k_grid
        )
        assert_allclose(via_u, via_v, atol=1e-10)


class TestLockstepLevels:
    @pytest.mark.parametrize("levels", [11, 31])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_level_by_level_reference(self, growth, order, levels):
        kb = growth.params.k_bar
        k_grid = np.linspace(0.01 * kb, 5.0 * kb, levels)
        got = implicit_policy_in_levels(growth.system, growth.params, order, k_grid)
        ref = implicit_policy_pointwise(growth.system, growth.params, order, k_grid)
        assert np.max(np.abs(got - ref)) <= 1e-13

    @pytest.mark.parametrize("order, budget", [(2, 120), (3, 500)])
    def test_fg_budget_at_the_default_tolerance(self, growth, counting_fg, order, budget):
        # bisecting each level to a 1e-15 bracket took 323 and 1,600 calls
        sysm, calls = counting_fg(growth.system)
        kb = growth.params.k_bar
        k_grid = np.linspace(0.01 * kb, 5.0 * kb, 11)
        implicit_policy_in_levels(sysm, growth.params, order, k_grid)
        assert 0 < calls[0] <= budget

    def test_fg_budget_of_the_warm_stacked_lower_order_solves(self, growth, counting_fg):
        # nested warm solves made 140 calls, stacked rows started cold at every step 102,
        # and level by level, warm-started by a cache of nearby points, 7,629
        sysm, calls = counting_fg(growth.system)
        kb = growth.params.k_bar
        k_grid = np.linspace(0.01 * kb, 5.0 * kb, 11)
        implicit_policy_in_levels(sysm, growth.params, 3, k_grid)
        assert 0 < calls[0] <= 90


class TestFirstIterateInLevels:
    @pytest.mark.parametrize("levels", [11, 101, 501])
    def test_matches_continuation_reference(self, growth, levels):
        kb = growth.params.k_bar
        k_grid = np.linspace(0.01 * kb, 5.0 * kb, levels)
        h11 = lambda u: eval_policy_hadamard(growth.system, 1, u)
        got = policy_in_levels(h11, growth.split, growth.params, k_grid)
        ref = policy_in_levels_pointwise(h11, growth.split, growth.params, k_grid)
        assert np.max(np.abs(got - ref)) <= 1e-14

    def test_fg_budget_of_the_default_grid(self, growth, counting_fg):
        # level by level, continued from the previous root, this took 24,036 calls
        sysm, calls = counting_fg(growth.system)
        kb = growth.params.k_bar
        k_grid = np.linspace(0.01 * kb, 5.0 * kb, 501)
        h11 = lambda u: eval_policy_hadamard(sysm, 1, u)
        policy_in_levels(h11, growth.split, growth.params, k_grid)
        assert 0 < calls[0] <= 100

    def test_map_without_values_names_the_first_level(self, growth):
        kb = growth.params.k_bar
        k_grid = np.linspace(0.5 * kb, 2.0 * kb, 4)
        nowhere = lambda u: np.full((u.shape[0], 1), np.nan)
        with pytest.raises(ValueError, match=f"capital level {k_grid[0]:.6g}$"):
            policy_in_levels(nowhere, growth.split, growth.params, k_grid)

    def test_undefined_point_inside_a_bracket_names_its_level(self, growth):
        # the map is undefined on a small window around level 2's root, well inside its bracket
        kb, split = growth.params.k_bar, growth.split
        k_grid = np.linspace(0.5 * kb, 2.0 * kb, 4)
        h11 = lambda u: eval_policy_hadamard(growth.system, 1, u)
        k_next = policy_in_levels(h11, split, growth.params, k_grid)
        u_root = (np.stack([k_grid - kb, k_next - kb], axis=1) @ split.Z_inv.T)[:, 0]

        def holed(u):
            v = h11(u)
            v[np.abs(u[:, 0] - u_root[2]) < 1e-6] = np.nan
            return v

        with pytest.raises(ValueError, match=f"capital level {k_grid[2]:.6g}$"):
            policy_in_levels(holed, split, growth.params, k_grid)


class TestOtherCalibration:
    def test_pipeline_runs_for_alternative_parameters(self):
        pipe = build_growth_pipeline(GrowthParams(alpha=0.3, beta=0.95))
        assert_allclose(pipe.split.A[0, 0], 0.3, atol=1e-10)
        assert_allclose(pipe.split.B[0, 0], 1.0 / 0.285, atol=1e-10)


class TestBracketBisect:
    def test_root_on_last_widened_bracket(self):
        # [-1, 1] misses the root; the one widening gives [-2, 2], which holds it
        root = _bracket_bisect(lambda x, rows: x - 2.0, [0.0], [1.0], 2.0, 1, None, 200)
        assert root[0] == pytest.approx(2.0, abs=1e-12)

    def test_bracket_ends_are_evaluated_once(self):
        seen = []

        def f(x, rows):
            seen.extend(x.tolist())
            return x - 0.3

        _bracket_bisect(f, [0.0], [1.0], 2.0, 5, None, 1)
        assert seen == [-1.0, 1.0, 0.0]

    def test_rows_evaluate_what_single_searches_do(self):
        # rows that need 0, 2 and 5 widenings, one with no bracket at all
        roots = np.array([0.3, 3.0, 20.0, np.nan])
        center, half = np.zeros(4), np.ones(4)
        seen = {j: [] for j in range(4)}

        def f(x, rows):
            for j, xj in zip(rows, x):
                seen[j].append(xj)
            return np.where(np.isnan(roots[rows]), 1.0 + x * x, x - roots[rows])

        got = _bracket_bisect(f, center, half, 2.0, 5, None, 200)
        for j, root in enumerate(roots):
            alone = []

            def f_one(x):
                alone.append(x)
                return 1.0 + x * x if np.isnan(root) else x - root

            ref = bracket_root_scalar(f_one, 0.0, 1.0, 2.0, 5, None, 200)
            assert seen[j] == alone
            assert np.isnan(got[j]) if ref is None else got[j] == ref

    def test_curved_rows_evaluate_what_single_searches_do(self):
        # curved maps, where the interpolation test both passes and fails
        funcs = [
            lambda x: x**3 - 0.2,
            lambda x: np.tanh(4.0 * (x - 0.45)) + 0.05 * x,
            lambda x: np.exp(x) - 2.5,
            lambda x: 1.0 / (1.2 - x) - 3.0,
        ]
        seen = {j: [] for j in range(len(funcs))}

        def f(x, rows):
            for j, xj in zip(rows, x):
                seen[j].append(xj)
            return np.array([funcs[j](xj) for j, xj in zip(rows, x)])

        got = _bracket_bisect(f, np.full(4, 0.1), np.full(4, 0.5), 2.0, 5, None, 200)
        for j, func in enumerate(funcs):
            alone = []

            def f_one(x):
                alone.append(x)
                return float(func(x))

            ref = bracket_root_scalar(f_one, 0.1, 0.5, 2.0, 5, None, 200)
            assert seen[j] == alone
            assert got[j] == ref
            assert abs(func(got[j])) <= 1e-13
            assert len(alone) <= 16  # bisection to a 1e-15 bracket takes over 50

    def test_sign_function_bisects(self):
        # f = sign(x - r) is +-1 at every point visited (no root is a dyadic
        # rational), so the interpolation test never passes and every step bisects
        roots = np.array([0.3, -0.7, 3.1, 1.0 / 3.0])
        seen = {j: [] for j in range(roots.size)}

        def f(x, rows):
            for j, xj in zip(rows, x):
                seen[j].append(xj)
            return np.sign(x - roots[rows])

        got = _bracket_bisect(f, np.zeros(roots.size), np.ones(roots.size), 2.0, 5, None, 200)
        for j, root in enumerate(roots):
            alone = []

            def f_one(x):
                alone.append(x)
                return float(np.sign(x - root))

            ref = bracket_bisect_scalar(f_one, 0.0, 1.0, 2.0, 5, None, 200)
            assert seen[j] == alone
            assert got[j] == ref

    def test_undefined_interior_point_ends_its_row_as_nan(self):
        # row 0 is NaN on |x| < 0.1, where bisection lands first; row 1 is defined everywhere
        def f(x, rows):
            out = x - 0.3
            out[(rows == 0) & (np.abs(x) < 0.1)] = np.nan
            return out

        got = _bracket_bisect(f, np.zeros(2), np.ones(2), 2.0, 5, None, 200)
        assert np.isnan(got[0])
        assert got[1] == _bracket_bisect(lambda x, rows: x - 0.3, [0.0], [1.0], 2.0, 5, None, 200)[0]
        assert got[1] == pytest.approx(0.3, abs=1e-15)
