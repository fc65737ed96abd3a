from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import first_iterate_formula
from stablemanifold import (
    GrowthParams,
    PolicyApprox,
    build_growth_pipeline,
    closed_form,
    eval_policy_hadamard,
    implicit_policy_in_levels,
    parametric_policy,
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
            growth.system, growth.split, params, 2, [k], domain=dom
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
                growth.system, growth.split, growth.params, order, k_grid, domain=dom
            )
            sups.append(np.max(np.abs(col - exact)))
        assert sups[0] > sups[1] > sups[2]

    def test_second_order_beats_high_order_expansion(self, growth, growth_domain):
        dom, _ = growth_domain
        kb = growth.params.k_bar
        k_grid = np.linspace(0.01 * kb, 5.0 * kb, 101)
        exact = closed_form(growth.params, k_grid)
        h2 = implicit_policy_in_levels(
            growth.system, growth.split, growth.params, 2, k_grid, domain=dom
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
            growth.system, growth.split, growth.params, 2, k_grid, domain=dom
        )
        col_raw = implicit_policy_in_levels(
            raw_system, raw_split, growth.params, 2, k_grid
        )
        assert_allclose(col_raw, col_norm, atol=1e-9)

    def test_explicit_inversion_matches_implicit_in_safe_zone(self, growth, growth_domain):
        dom, _ = growth_domain
        kb = growth.params.k_bar
        k_grid = np.linspace(0.8 * kb, 1.3 * kb, 7)
        pol = PolicyApprox(
            order=2, system=growth.system, inner_tol=1e-13, domain=dom, memo=True
        )
        via_u = policy_in_levels(pol, growth.split, growth.params, k_grid)
        via_v = implicit_policy_in_levels(
            growth.system, growth.split, growth.params, 2, k_grid, domain=dom
        )
        assert_allclose(via_u, via_v, atol=1e-10)


class TestOtherCalibration:
    def test_pipeline_runs_for_alternative_parameters(self):
        pipe = build_growth_pipeline(GrowthParams(alpha=0.3, beta=0.95))
        assert_allclose(pipe.split.A[0, 0], 0.3, atol=1e-10)
        assert_allclose(pipe.split.B[0, 0], 1.0 / 0.285, atol=1e-10)


class TestBracketBisect:
    def test_root_on_last_widened_bracket(self):
        # [-1, 1] misses the root; the one widening gives [-2, 2], which holds it
        root = _bracket_bisect(lambda x: x - 2.0, 0.0, 1.0, 2.0, 1, None, 200)
        assert root == pytest.approx(2.0, abs=1e-12)

    def test_bracket_ends_are_evaluated_once(self):
        seen = []

        def f(x):
            seen.append(x)
            return x - 0.3

        _bracket_bisect(f, 0.0, 1.0, 2.0, 5, None, 1)
        assert seen == [-1.0, 1.0, 0.0]
