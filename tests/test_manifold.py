from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (
    check_conditions_pointwise,
    exact_policy_transformed,
    first_iterate_formula,
    first_order_policy_root,
)
from stablemanifold import (
    DomainSpec,
    ForwardDivergenceError,
    NonContractionError,
    PolicyApprox,
    check_conditions,
    error_bound,
    eval_lyapunov_perron,
    eval_policy,
    eval_policy_hadamard,
    forward_orbit,
    lemma_recursion,
    picard_iterates,
    transformed_from_maps,
)
from stablemanifold import manifold


def _linear_system():
    return transformed_from_maps(
        A=[[0.5]],
        B=[[2.0]],
        F=lambda u, v: np.zeros(1),
        G=lambda u, v: np.zeros(1),
        dims=(1, 0, 1),
    )


class TestConditions:
    def test_linear_system_passes_everywhere(self):
        report = check_conditions(_linear_system(), DomainSpec(5.0, 5.0, 256))
        assert report.sup_G == 0.0
        assert report.L == 0.0
        assert report.all_ok

    def test_growth_condition_two_threshold(self, growth):
        report = check_conditions(growth.system, DomainSpec(0.02, 0.02, 256))
        a, b = growth.params.alpha, growth.params.beta
        assert_allclose(report.cond2_rhs, (1.0 / (a * b) - a) / 4.0, rtol=1e-12)
        assert_allclose(report.cond2_rhs, 0.611459, atol=1e-6)

    def test_growth_passes_on_small_ball(self, growth):
        report = check_conditions(growth.system, DomainSpec(0.005, 0.005, 512))
        assert report.all_ok
        assert report.sup_G > 0.0

    def test_contraction_factor_consistency(self, growth, growth_domain):
        _, report = growth_domain
        assert report.cond2_ok
        b = growth.system.split.normBinv
        a = growth.system.split.normA
        assert report.rho < 0.25 * (1.0 - b * a)

    def test_verified_domain_is_nontrivial(self, growth_domain):
        dom, report = growth_domain
        assert dom.r_u >= 0.005
        assert report.all_ok


    @pytest.mark.parametrize("radius, defined", [(0.0075, True), (0.5, False)])
    def test_matches_pointwise_reference(self, growth, radius, defined):
        dom = DomainSpec(radius, radius, 256)
        report = check_conditions(growth.system, dom)
        sup_G, lip, cond3_ok = check_conditions_pointwise(growth.system, dom)
        assert math.isfinite(sup_G) == defined
        assert report.cond3_ok == cond3_ok
        if defined:
            assert report.all_ok
            assert_allclose(report.sup_G, sup_G, rtol=1e-13)
            assert_allclose(report.L, lip, rtol=1e-10)
        else:
            assert report.sup_G == report.L == math.inf
            assert not report.all_ok

    def test_domain_samples_match_scipy_qmc(self, monkeypatch):
        from scipy.stats import norm, qmc

        for d in (2, 4, 6):
            reference = qmc.Halton(d=d, scramble=False).random(8193)
            assert np.array_equal(manifold._halton(8193, d), reference)
        dom = DomainSpec(0.3, 0.2, 2048)
        ours = manifold.domain_samples(dom, 2, 1)
        monkeypatch.setattr(
            manifold, "_halton", lambda n, d: qmc.Halton(d=d, scramble=False).random(n)
        )
        monkeypatch.setattr(manifold, "ndtri", norm.ppf)
        for mine, ref in zip(ours, manifold.domain_samples(dom, 2, 1)):
            assert np.array_equal(mine, ref)


class TestPolicyEvaluation:
    def test_zero_at_origin(self, growth):
        for order in (0, 1, 2, 3):
            pol = PolicyApprox(order=order, system=growth.system, inner_tol=1e-13)
            assert np.linalg.norm(eval_policy(pol, np.zeros(1))) <= 1e-13

    def test_order_zero_is_zero_map(self, growth):
        pol = PolicyApprox(order=0, system=growth.system)
        assert_allclose(eval_policy(pol, np.array([0.05])), [0.0])

    def test_order_one_matches_independent_root(self, growth, growth_domain):
        dom, _ = growth_domain
        pol = PolicyApprox(order=1, system=growth.system, inner_tol=1e-13)
        for u in np.linspace(-dom.r_u, dom.r_u, 25):
            expected = first_order_policy_root(growth.params, u)
            got = eval_policy(pol, np.array([u]))[0]
            assert abs(got - expected) <= 1e-10

    def test_first_picard_iterate_matches_formula(self, growth):
        pol = PolicyApprox(order=1, system=growth.system, inner_tol=1e-13)
        for u in (0.05, -0.05, 0.003):
            first = picard_iterates(pol, np.array([u]))[0][0]
            assert abs(first - first_iterate_formula(growth.params, u)) <= 1e-12

    def test_fixed_point_residual_within_tolerance(self, growth):
        # a posteriori check: the returned value barely moves under the map
        tol = 1e-12
        pol = PolicyApprox(order=2, system=growth.system, inner_tol=tol)
        sysm = growth.system
        b_inv = sysm.split.B_inv
        inner = PolicyApprox(order=1, system=sysm, inner_tol=tol)
        for u in (0.004, -0.006):
            u_vec = np.array([u])
            v = eval_policy(pol, u_vec)
            F_val, G_val = sysm.fg(u_vec, v)
            image = b_inv @ (eval_policy(inner, sysm.split.A @ u_vec + F_val) - G_val)
            assert np.linalg.norm(v - image) <= tol

    def test_picard_contraction_factor(self, growth, growth_domain):
        dom, report = growth_domain
        pol = PolicyApprox(order=2, system=growth.system, inner_tol=1e-14)
        worst = 0.0
        for u in np.linspace(-dom.r_u, dom.r_u, 9):
            trace = picard_iterates(pol, np.array([u]))
            incs = [np.linalg.norm(trace[i + 1] - trace[i]) for i in range(len(trace) - 1)]
            factors = [
                incs[i + 1] / incs[i] for i in range(len(incs) - 1) if incs[i] > 1e-13
            ]
            if factors:
                worst = max(worst, max(factors))
        assert worst <= report.rho + 0.05

    def test_norm_bound_on_policies(self, growth, growth_domain):
        dom, report = growth_domain
        b = growth.system.split.normBinv
        for order in (1, 2, 3):
            pol = PolicyApprox(
                order=order, system=growth.system, inner_tol=1e-13, domain=dom, memo=True
            )
            sup = max(
                np.linalg.norm(eval_policy(pol, np.array([u])))
                for u in np.linspace(-dom.r_u, dom.r_u, 21)
            )
            bound = (1 - b ** (order + 1)) * b * report.sup_G / (1 - b)
            assert sup <= bound + pol.inner_tol

    def test_derivative_bound_on_policies(self, growth, growth_domain):
        dom, report = growth_domain
        bound = (1.0 - report.rho) / report.rho
        step = 1e-6
        for order in (1, 2):
            pol = PolicyApprox(
                order=order, system=growth.system, inner_tol=1e-13, domain=dom, memo=True
            )
            for u in np.linspace(-0.9 * dom.r_u, 0.9 * dom.r_u, 7):
                fd = (
                    eval_policy(pol, np.array([u + step]))
                    - eval_policy(pol, np.array([u - step]))
                ) / (2 * step)
                assert np.linalg.norm(fd) <= bound + 1e-3

    def test_memo_matches_cold_evaluation(self, growth, growth_domain):
        dom, _ = growth_domain
        cold = PolicyApprox(order=2, system=growth.system, inner_tol=1e-12)
        warm = PolicyApprox(
            order=2, system=growth.system, inner_tol=1e-12, domain=dom, memo=True
        )
        grid = np.linspace(-dom.r_u, dom.r_u, 30)
        for sweep in range(2):  # second sweep hits the cache
            for u in grid:
                gap = abs(
                    eval_policy(warm, np.array([u]))[0]
                    - eval_policy(cold, np.array([u]))[0]
                )
                assert gap <= 1e-9

    def test_non_contraction_is_reported(self, growth):
        pol = PolicyApprox(order=1, system=growth.system, inner_tol=1e-13, inner_max_iter=60)
        with pytest.raises(NonContractionError) as err:
            eval_policy(pol, np.array([-0.19]))
        assert err.value.point is not None


class TestValidation:
    def test_negative_order_rejected(self, growth):
        with pytest.raises(ValueError):
            PolicyApprox(order=-1, system=growth.system)

    def test_memo_needs_domain(self, growth):
        with pytest.raises(ValueError):
            PolicyApprox(order=1, system=growth.system, memo=True)

    def test_domain_requires_positive_radii(self):
        with pytest.raises(ValueError):
            DomainSpec(r_u=0.0, r_v=0.1)
        with pytest.raises(ValueError):
            DomainSpec(r_u=0.1, r_v=-0.2)


class TestHadamard:
    def test_order_one_is_explicit_image_of_zero(self, growth):
        sysm = growth.system
        for u in (0.05, -0.03):
            u_vec = np.array([u])
            expected = -(sysm.split.B_inv @ sysm.fg(u_vec, np.zeros(1))[1])
            assert_allclose(eval_policy_hadamard(sysm, 1, u_vec), expected, atol=1e-15)

    def test_high_order_agrees_with_implicit_scheme(self, growth):
        pol = PolicyApprox(order=2, system=growth.system, inner_tol=1e-13)
        for u in np.linspace(-0.02, 0.02, 9):
            explicit = eval_policy_hadamard(growth.system, 8, np.array([u]))
            implicit = eval_policy(pol, np.array([u]))
            assert np.linalg.norm(explicit - implicit) <= 1e-6

    def test_linear_system_gives_zero(self):
        sysm = _linear_system()
        for order in (0, 1, 4):
            assert_allclose(eval_policy_hadamard(sysm, order, np.array([0.7])), [0.0])


class TestForwardSummation:
    def test_horizon_zero_is_single_term(self, growth):
        sysm = growth.system
        u0, v0 = np.array([0.03]), np.array([-0.001])
        expected = -(sysm.split.B_inv @ sysm.fg(u0, v0)[1])
        assert_allclose(eval_lyapunov_perron(sysm, 0, u0, v0), expected, atol=1e-15)

    def test_on_manifold_sum_approximates_exact_policy(self, growth):
        pol = PolicyApprox(order=2, system=growth.system, inner_tol=1e-13)
        u0 = np.array([0.05])
        v0 = eval_policy(pol, u0)
        total = eval_lyapunov_perron(growth.system, 30, u0, v0)
        exact = exact_policy_transformed(growth.params, growth.split.Z_inv, 0.05)
        assert abs(total[0] - exact) <= 1e-5

    def test_off_manifold_start_diverges(self, growth, growth_domain):
        dom, _ = growth_domain
        pol = PolicyApprox(order=2, system=growth.system, inner_tol=1e-13)
        u0 = np.array([0.5 * dom.r_u])
        v0 = eval_policy(pol, u0) + 0.01
        with pytest.raises(ForwardDivergenceError) as err:
            eval_lyapunov_perron(growth.system, 60, u0, v0, radius=dom.r_u)
        assert 0 < err.value.step <= 60

    def test_domain_exit_reports_step(self, growth):
        pol = PolicyApprox(order=2, system=growth.system, inner_tol=1e-13)
        u0 = np.array([0.05])
        v0 = eval_policy(pol, u0) - 0.01  # drives capital below its domain
        with pytest.raises(ForwardDivergenceError):
            eval_lyapunov_perron(growth.system, 60, u0, v0)

    def test_orbit_exits_ball_quickly(self, growth, growth_domain):
        dom, _ = growth_domain
        pol = PolicyApprox(order=2, system=growth.system, inner_tol=1e-13)
        u0 = np.array([0.5 * dom.r_u])
        v0 = eval_policy(pol, u0) + 1e-4
        U, _ = forward_orbit(growth.system, u0, v0, 60)
        exited = [t for t in range(len(U)) if np.linalg.norm(U[t]) > dom.r_u]
        assert exited and exited[0] <= 60


class TestLemmaRecursion:
    def test_degenerate_contraction_stays_at_zero(self):
        seq = lemma_recursion(0.0, 0.5, 0.5, 10)
        assert_allclose(seq.values, np.zeros(11))
        assert seq.s1_star == 0.0
        assert np.isinf(seq.s2_star)

    def test_monotone_convergence_to_stable_point(self):
        rho, c_a, c_b = 0.1 * 0.3564, 0.36, 0.3564
        seq = lemma_recursion(rho, c_a, c_b, 400)
        diffs = np.diff(seq.values)
        assert np.all(diffs >= -1e-15)
        assert abs(seq.values[-1] - seq.s1_star) <= 1e-12

    def test_fixed_points_solve_quadratic(self):
        rho, normA, normBinv = 0.03, 0.4, 0.5
        seq = lemma_recursion(rho, normA, normBinv, 0)
        c = normA * normBinv
        for s in (seq.s1_star, seq.s2_star):
            assert abs(rho * s * s - (1 - 2 * rho - c) * s + rho) <= 1e-12

    def test_unstable_point_below_cap(self):
        seq = lemma_recursion(0.1, 1.0, 0.2, 0)
        assert seq.s1_star <= seq.s2_star < (1 - 0.1) / 0.1

    def test_precondition_violation_raises(self):
        with pytest.raises(ValueError):
            lemma_recursion(0.3, 0.5, 0.9, 5)
        with pytest.raises(ValueError):
            lemma_recursion(-0.1, 0.5, 0.5, 5)


class TestErrorBound:
    def test_rate_constant_value(self, growth, growth_domain):
        _, report = growth_domain
        bound = error_bound(growth.split, report, n=1, h_tail=0.0)
        b = growth.split.normBinv
        expected = 2 * b / (1 + b * growth.split.normA)
        assert_allclose(bound.a, expected, rtol=1e-12)
        assert_allclose(bound.a, 0.6318, atol=2e-4)

    def test_zero_tail_means_zero_bound(self, growth, growth_domain):
        _, report = growth_domain
        assert error_bound(growth.split, report, n=1, h_tail=0.0).apriori == 0.0

    def test_requires_contraction_condition(self, growth):
        report = check_conditions(growth.system, DomainSpec(0.05, 0.05, 128))
        assert not report.cond2_ok
        with pytest.raises(ValueError):
            error_bound(growth.split, report, n=1, h_tail=0.1)

    def test_convergence_rate_below_one(self, growth, growth_domain):
        _, report = growth_domain
        bound = error_bound(growth.split, report, n=1, h_tail=0.0)
        rate = bound.a * (growth.split.normA + 0.01) ** 2
        assert_allclose(rate, 0.0865, atol=2e-4)
        assert rate < 1.0

    def test_tail_defaults_to_ball_radius(self, growth, growth_domain):
        dom, report = growth_domain
        default = error_bound(growth.split, report, n=2)
        explicit = error_bound(growth.split, report, n=2, h_tail=dom.r_v)
        assert default.apriori == explicit.apriori
