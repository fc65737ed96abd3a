from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from oracles import (
    check_conditions_pointwise,
    domain_samples_direct,
    exact_policy_transformed,
    first_iterate_formula,
    first_order_policy_root,
    forward_orbit,
    normal_quantile,
    policy_cold,
    policy_plain,
)
from stablemanifold import (
    DomainSpec,
    ForwardDivergenceError,
    GrowthParams,
    NonContractionError,
    PolicyApprox,
    build_growth_pipeline,
    check_conditions,
    error_bound,
    eval_lyapunov_perron,
    eval_policy,
    eval_policy_hadamard,
    lemma_recursion,
    picard_iterates,
    search_domain,
    transformed_from_maps,
)
from stablemanifold import manifold
from stablemanifold._numdiff import value_and_jacobian


def _linear_system():
    return transformed_from_maps(
        A=[[0.5]],
        B=[[2.0]],
        F=lambda U, V: np.zeros_like(U),
        G=lambda U, V: np.zeros_like(V),
        n_z=1,
    )


# the systems on which the two-stage domain search must equal the one-stage scan
SEARCH_CASES = ["growth-128", "growth-2048", "exo", "growth-alpha0.2", "growth-alpha0.3",
                "growth-alpha0.5", "growth-alpha0.7", "stress-seed0", "stress-seed1"]


def _search_systems(case, growth, exo_system):
    """The ``(system, sample_count)`` pairs of one of ``SEARCH_CASES``."""
    if case.startswith("stress-seed"):
        return [(sysm, 128) for sysm in oracles.quadratic_stress_systems(seed=int(case[-1]))]
    if case.startswith("growth-alpha"):
        params = GrowthParams(alpha=float(case[len("growth-alpha"):]), beta=0.95)
        return [(build_growth_pipeline(params).system, 2048)]
    if case == "exo":
        return [(exo_system, 2048)]
    return [(growth.system, int(case[len("growth-"):]))]


def _plane_system():
    # n_u = 2, n_v = 1: the Jacobian blocks of F and G are 2 x 3 and 1 x 3
    return transformed_from_maps(
        A=[[0.5, 0.1], [0.0, 0.3]],
        B=[[2.0]],
        F=lambda U, V: np.hstack([0.1 * U[:, :1] * V, np.zeros_like(V)]),
        G=lambda U, V: 0.1 * U[:, 1:] ** 2,
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
        U, V = manifold.domain_samples(dom, 2, 1)
        monkeypatch.setattr(
            oracles, "_halton", lambda n, d: qmc.Halton(d=d, scramble=False).random(n)
        )
        U_ref, V_ref = domain_samples_direct(dom, 2, 1, quantile=norm.ppf)
        # a line takes the sign of the quantile, bit for bit; the stdlib quantile
        # of the 2-D directions is within 8 ulp of SciPy's (7 measured)
        assert np.array_equal(V, V_ref)
        assert np.all(np.abs(U - U_ref) <= 8 * np.spacing(np.abs(U_ref)))

    @pytest.mark.parametrize("n_u, n_v", [(1, 1), (2, 1), (0, 2)])
    def test_domain_samples_match_direct_construction(self, n_u, n_v):
        for r_u, r_v, count in ((0.5, 0.5, 128), (0.0075, 0.0075, 2048), (0.3, 0.02, 7)):
            dom = DomainSpec(r_u, r_v, count)
            ours = manifold.domain_samples(dom, n_u, n_v)
            for mine, ref in zip(ours, domain_samples_direct(dom, n_u, n_v)):
                assert np.array_equal(mine, ref)

    def test_thin_block_norms_are_within_two_ulp_of_the_svd(self, growth):
        # growth's F and G blocks are 1 x 2, so each norm is the vector norm of the block
        U, V = manifold.domain_samples(DomainSpec(0.0075, 0.0075, 2048), 1, 1)
        _, jac = value_and_jacobian(lambda p: np.hstack(growth.system.fg(p[:, :1], p[:, 1:])),
                                    np.hstack([U, V]))
        for block in (jac[:, :1, :], jac[:, 1:, :]):
            thin = np.array([manifold._max_spectral_norm(J[None]) for J in block])
            svd = np.linalg.norm(block, 2, axis=(1, 2))
            assert np.all(np.abs(thin - svd) <= 2 * np.spacing(svd))

    def test_wide_block_norm_is_the_svd_bit_for_bit(self):
        # the plane's F block is 2 x 3 and keeps the batched SVD; its G block is 1 x 3
        plane = _plane_system()
        dom = DomainSpec(0.0075, 0.0075, 128)
        U, V = manifold.domain_samples(dom, 2, 1)
        _, jac = value_and_jacobian(lambda p: np.hstack(plane.fg(p[:, :2], p[:, 2:])),
                                    np.hstack([U, V]))
        F_svd = float(np.max(np.linalg.norm(jac[:, :2, :], 2, axis=(1, 2))))
        G_svd = float(np.max(np.linalg.norm(jac[:, 2:, :], 2, axis=(1, 2))))
        assert manifold._max_spectral_norm(jac[:, :2, :]) == F_svd
        assert check_conditions(plane, dom).L == max(F_svd, G_svd)

    def test_search_report_equals_check_at_returned_radius(self, growth, growth_domain):
        dom, report = growth_domain
        assert report == check_conditions(growth.system, dom)
        small_dom, small_report = search_domain(growth.system, sample_count=128)
        assert small_report == check_conditions(growth.system, small_dom)

    @pytest.mark.parametrize("case", SEARCH_CASES)
    def test_search_equals_the_one_stage_scan(self, case, growth, exo_system):
        for sysm, count in _search_systems(case, growth, exo_system):
            try:
                expected = oracles.search_domain_scan(sysm, sample_count=count)
            except NonContractionError as exc:
                with pytest.raises(NonContractionError) as raised:
                    search_domain(sysm, sample_count=count)
                assert str(raised.value) == str(exc)
            else:
                assert search_domain(sysm, sample_count=count) == expected

    @pytest.mark.parametrize("case", SEARCH_CASES)
    def test_value_stage_verdicts_equal_the_full_check(self, case, growth, exo_system):
        for sysm, count in _search_systems(case, growth, exo_system):
            doms = [DomainSpec(r, r, count) for r in manifold.DEFAULT_RADIUS_GRID]
            unit = manifold._unit_samples(count, sysm.n_u, sysm.n_v)
            cond1_ok, cond3_ok = manifold._value_stage(sysm, doms, unit)
            reports = [check_conditions(sysm, dom) for dom in doms]
            assert cond1_ok.tolist() == [report.cond1_ok for report in reports]
            assert cond3_ok.tolist() == [report.cond3_ok for report in reports]

    @pytest.mark.parametrize("case, count, calls, points", [
        # 5 value calls on 1 + 2 + 4 + 8 + 5 radii of 137 samples, then the
        # full check (5 rows a sample) at 0.02, 0.015, 0.01 and 0.0075
        ("growth", 128, 9, 5480),
        # one value call and one full check at 0.5, on 2057 samples
        ("exo", 2048, 2, 12342),
    ])
    def test_search_work(self, case, count, calls, points, growth, exo_system):
        sysm = growth.system if case == "growth" else exo_system
        seen = [0, 0]

        def nonlinear(w):
            seen[0] += 1
            seen[1] += w.shape[0]
            return sysm.nonlinear(w)

        search_domain(dataclasses.replace(sysm, nonlinear=nonlinear), sample_count=count)
        assert seen == [calls, points]


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
        assert worst <= report.rho

    def test_plain_picard_ratio_meets_sampled_rho(self):
        # G = c u^2 + g u v is affine in v, so the order-1 map v <- -b G(u, v)
        # shrinks every increment by exactly b g |u|.  At |u| = r_u that is at
        # most rho = b L, since the axis row (r_u, 0) has |grad G| > g r_u, and
        # at least rho / 1.00056, since no sample has a larger gradient than
        # (r_u, r_v): g r_u sqrt(1 + ((2 c r_u + g r_v) / (g r_u))^2).
        c, g, r_u, r_v = 0.01, 1.5, 0.5, 0.01
        sysm = transformed_from_maps(
            A=[[0.5]], B=[[4.0]],
            F=lambda U, V: np.zeros_like(U),
            G=lambda U, V: c * U**2 + g * U * V,
        )
        report = check_conditions(sysm, DomainSpec(r_u, r_v, 256))
        assert report.all_ok
        lower, upper = report.rho * (1.0 - 1e-3), report.rho * (1.0 + 1e-6)
        for u in (r_u, -r_u):
            trace = []
            manifold.picard(sysm, np.array([[u]]), np.zeros((1, 1)), None, 1e-15, 200, trace)
            images = [0.0] + [float(V[0, 0]) for V in trace]
            incs = [abs(b - a) for a, b in zip(images, images[1:])]
            # increments above 1e-10 carry a relative rounding error below 1e-8
            ratios = [b / a for a, b in zip(incs, incs[1:]) if b > 1e-10]
            assert len(ratios) >= 5
            assert all(lower <= ratio <= upper for ratio in ratios), (ratios, report.rho)

    def test_norm_bound_on_policies(self, growth, growth_domain):
        dom, report = growth_domain
        b = growth.system.split.normBinv
        for order in (1, 2, 3):
            pol = PolicyApprox(
                order=order, system=growth.system, inner_tol=1e-13, domain=dom
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
                order=order, system=growth.system, inner_tol=1e-13, domain=dom
            )
            for u in np.linspace(-0.9 * dom.r_u, 0.9 * dom.r_u, 7):
                fd = (
                    eval_policy(pol, np.array([u + step]))
                    - eval_policy(pol, np.array([u - step]))
                ) / (2 * step)
                assert np.linalg.norm(fd) <= bound + 1e-3

    def test_non_contraction_is_reported(self, growth):
        pol = PolicyApprox(order=1, system=growth.system, inner_tol=1e-13, inner_max_iter=60)
        with pytest.raises(NonContractionError) as err:
            eval_policy(pol, np.array([-0.19]))
        assert err.value.point is not None


GROWTH_POINTS = (-0.1396, -0.0964, 0.2057, 0.0075, -0.0075)


class TestWarmStartedRecursion:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_growth_matches_cold_recursion(self, growth, order):
        pol = PolicyApprox(order=order, system=growth.system)
        for u in GROWTH_POINTS:
            u_vec = np.array([u])
            # the reference converges further than inner_tol, so the bound does not
            # depend on which side of the fixed point either solve stops
            cold = policy_cold(growth.system, order, u_vec, 1e-15)
            assert np.max(np.abs(eval_policy(pol, u_vec) - cold)) <= 1e-13

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_exo_matches_cold_recursion(self, exo_system, order):
        pol = PolicyApprox(order=order, system=exo_system)
        for u in (-0.9, -0.4, 0.3, 0.8):
            u_vec = np.array([u])
            cold = policy_cold(exo_system, order, u_vec, pol.inner_tol)
            assert np.max(np.abs(eval_policy(pol, u_vec) - cold)) <= 1e-13

    def test_evaluation_is_pure(self, growth):
        pol = PolicyApprox(order=3, system=growth.system)
        u = np.array([-0.0964])
        first = eval_policy(pol, u)
        for other in (0.2057, -0.1396, 0.0075):
            eval_policy(pol, np.array([other]))
        after = eval_policy(pol, u)
        again = eval_policy(pol, u)
        assert np.array_equal(first, after)
        assert np.array_equal(after, again)
        assert np.array_equal(picard_iterates(pol, u)[-1], again)

    def test_check_conditions_is_one_batched_pass(self, growth, counting_fg):
        plane = _plane_system()
        for sysm in (growth.system, plane):
            counted, calls = counting_fg(sysm)
            check_conditions(counted, DomainSpec(0.0075, 0.0075, 128))
            assert calls[0] == 1


class TestBatchedEvaluation:
    @pytest.mark.parametrize("explicit, order", [
        *(pytest.param(False, n, id=str(n)) for n in (1, 2, 3, 4, 8)),
        *(pytest.param(True, n, id=f"hadamard-{n}") for n in (1, 2, 3)),
    ])
    def test_growth_rows_match_single_points(self, growth, explicit, order):
        # a point is a batch of one down to the residual, so each row has its bits
        if explicit:
            evaluate = lambda u: eval_policy_hadamard(growth.system, order, u)  # noqa: E731
        else:
            pol = PolicyApprox(order=order, system=growth.system)
            evaluate = lambda u: eval_policy(pol, u)  # noqa: E731
        U = np.array(GROWTH_POINTS)[:, None]
        single = np.array([evaluate(u) for u in U])
        batch = evaluate(U)
        assert batch.shape == (len(GROWTH_POINTS), 1)
        assert np.array_equal(batch, single)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_exo_rows_match_single_points(self, exo_system, order):
        pol = PolicyApprox(order=order, system=exo_system)
        U = np.array([[-0.9], [-0.4], [0.0], [0.3], [0.8]])
        single = np.array([eval_policy(pol, u) for u in U])
        assert np.array_equal(eval_policy(pol, U), single)

    def test_picard_rows_stop_on_their_own(self):
        # v <- (u v + 1) / 2 contracts at rate |u| / 2 towards 1 / (2 - u)
        sysm = transformed_from_maps(
            A=[[0.5]], B=[[2.0]],
            F=lambda U, V: np.zeros_like(U),
            G=lambda U, V: -(U * V + 1.0),
            n_z=1,
        )
        U = np.array([[0.0], [0.5], [1.9], [np.nan]])
        V, inc = manifold.picard(sysm, U, np.zeros((4, 1)), None, 1e-12, 30)
        assert V[0, 0] == 0.5 and inc[0] == 0.0
        assert abs(V[1, 0] - 1.0 / 1.5) <= 1e-12 and inc[1] <= 1e-12
        assert np.isnan(V[2, 0]) and 1e-12 < inc[2] < np.inf  # out of iterations
        assert np.isnan(V[3, 0]) and np.isnan(inc[3])
        for j in (0, 1):
            alone = manifold.picard(sysm, U[j : j + 1], np.zeros((1, 1)), None, 1e-12, 30)
            assert np.array_equal(alone[0], V[j : j + 1]) and alone[1][0] == inc[j]

    def test_trace_holds_the_images_of_the_rows_still_iterating(self):
        # v <- (u v + 1) / 2: the row at u = 0 is done on its second sweep, u = 0.5 goes on
        sysm = transformed_from_maps(
            A=[[0.5]], B=[[2.0]],
            F=lambda U, V: np.zeros_like(U),
            G=lambda U, V: -(U * V + 1.0),
            n_z=1,
        )
        U = np.array([[0.0], [0.5]])
        trace = []
        V, inc = manifold.picard(sysm, U, np.zeros((2, 1)), None, 1e-12, 60, trace)
        assert [t.shape for t in trace[:2]] == [(2, 1), (2, 1)]
        assert all(t.shape == (1, 1) for t in trace[2:])
        assert trace[1][0, 0] == V[0, 0] == 0.5 and np.array_equal(trace[-1], V[1:])
        row = [trace[0][1, 0], trace[1][1, 0]] + [t[0, 0] for t in trace[2:]]
        assert row[0] == 0.5
        assert all(after == (0.5 * before + 1.0) / 2.0 for before, after in zip(row, row[1:]))

    def test_slow_contraction_needs_its_sweeps(self):
        # v <- 0.95 v + 1/2 at u = 1.9 contracts too slowly for 30 plain sweeps
        sysm = transformed_from_maps(
            A=[[0.5]], B=[[2.0]], F=lambda U, V: np.zeros_like(U),
            G=lambda U, V: -(U * V + 1.0), n_z=1,
        )
        U, V0 = np.array([[1.9]]), np.zeros((1, 1))
        V, inc = manifold.picard(sysm, U, V0, None, 1e-12, 30)
        assert np.isnan(V[0, 0]) and inc[0] > 1e-12
        V, inc = manifold.picard(sysm, U, V0, None, 1e-12, 800)
        # the error is at most 0.95 / 0.05 of the last increment
        assert inc[0] <= 1e-12 and abs(V[0, 0] - 1.0 / 0.1) <= 19 * 1e-12

    @pytest.mark.parametrize("order, u", [(1, 0.3), (1, 0.5), (1, 1.0), (2, 0.1), (2, 0.3), (2, 1.0)])
    def test_sweeps_rise_to_a_fixed_point_at_the_domain_edge(self, order, u):
        # v <- u + 0.09 tanh(10 v) is increasing in v, so plain sweeps from zero rise to its
        # fixed point w(u) without passing it; F and G are undefined a little above it, at
        # order 2 with v_2 = v_1 / 2 + u + 0.09 tanh(10 v_2) and v_1 = w(u / 2)
        def w(x):
            v = np.zeros_like(x)
            for _ in range(200):
                v = x + 0.09 * np.tanh(10.0 * v)
            return v

        def outside(U, V):
            return V > U + 0.095 + 0.5 * w(0.5 * U)

        sysm = transformed_from_maps(
            A=[[0.5]], B=[[2.0]],
            F=lambda U, V: np.where(outside(U, V), np.nan, 0.0),
            G=lambda U, V: np.where(outside(U, V), np.nan, -2.0 * (U + 0.09 * np.tanh(10.0 * V))),
            n_z=1,
        )
        pol = PolicyApprox(order=order, system=sysm)
        images = np.array(picard_iterates(pol, np.array([u])))[:, 0]
        assert np.all(np.isfinite(images)) and np.all(np.diff(images) >= 0.0)
        ref = policy_plain(sysm, order, np.array([u]), pol.inner_tol)
        assert np.max(np.abs(images[-1] - ref)) <= 2 * pol.inner_tol
        assert np.array_equal(images[-1:], eval_policy(pol, np.array([u])))

    def test_row_outside_domain_leaves_other_rows_alone(self, growth):
        # u = -0.3 is outside the model's domain: its Picard iteration goes NaN
        pol = PolicyApprox(order=3, system=growth.system)
        good = np.array(GROWTH_POINTS)[:, None]
        mixed = np.insert(good, 2, -0.3, axis=0)
        X, inc = manifold._stacked_rows(pol, mixed)
        V = X[:, :1]
        assert np.isnan(V[2, 0]) and not inc[2] <= pol.inner_tol
        rest = np.delete(np.arange(mixed.shape[0]), 2)
        assert np.all(inc[rest] <= pol.inner_tol)
        assert np.max(np.abs(V[rest] - eval_policy(pol, good))) <= 1e-15
        with pytest.raises(NonContractionError) as err:
            eval_policy(pol, mixed)
        assert np.array_equal(err.value.point, [-0.3])

    def test_first_failed_row_is_reported(self, growth):
        pol = PolicyApprox(order=1, system=growth.system, inner_tol=1e-13, inner_max_iter=60)
        with pytest.raises(NonContractionError) as err:
            eval_policy(pol, np.array([[0.001], [-0.19], [-0.3]]))
        assert np.array_equal(err.value.point, [-0.19])
        assert not err.value.last_residual <= pol.inner_tol

    @pytest.mark.parametrize("shape", [(2,), (0,), (3, 2), (2, 1, 1)])
    def test_wrong_shape_names_the_expected_one(self, growth, shape):
        pol = PolicyApprox(order=2, system=growth.system)
        with pytest.raises(ValueError, match=r"\(1,\) or \(N, 1\)"):
            eval_policy(pol, np.zeros(shape))

    def test_empty_batch(self, growth):
        pol = PolicyApprox(order=2, system=growth.system)
        assert eval_policy(pol, np.zeros((0, 1))).shape == (0, 1)

    @pytest.mark.parametrize("order", [2, 3])
    def test_batch_costs_its_slowest_row(self, growth, counting_fg, order):
        # every fg call of the batch covers the rows still iterating
        sysm, calls = counting_fg(growth.system)
        pol = PolicyApprox(order=order, system=sysm)
        alone = []
        for u in GROWTH_POINTS:
            calls[0] = 0
            eval_policy(pol, np.array([u]))
            alone.append(calls[0])
        calls[0] = 0
        eval_policy(pol, np.array(GROWTH_POINTS)[:, None])
        assert calls[0] == max(alone)


def _rotation(angle: float) -> np.ndarray:
    return np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])


class TestNestedRecursion:
    """The stacked solve of ``eval_policy`` against plain Picard sweeps of the nested recursion."""

    def test_top_level_sweeps(self, growth, counting_sweeps):
        # nested solves took 7 top-level sweeps, each with a nested solve: 81 fg calls
        eval_policy(PolicyApprox(order=3, system=growth.system), np.array([-0.1396]))
        assert counting_sweeps.solves == 1  # one stacked solve, no nested one
        assert 0 < counting_sweeps.sweeps <= 15

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_growth_matches_plain_sweeps(self, growth, order):
        pol = PolicyApprox(order=order, system=growth.system)
        U = np.linspace(-0.25, 0.6, 171)[:, None]
        X, inc = manifold._stacked_rows(pol, U)
        V = X[:, :1]
        plain = [policy_plain(growth.system, order, u, pol.inner_tol) for u in U]
        converged = inc <= pol.inner_tol
        assert np.array_equal(converged, [v is not None for v in plain])
        assert 100 < converged.sum() < U.shape[0]  # both sides of the domain's edge are covered
        ref = np.array([v for v in plain if v is not None])
        assert np.max(np.abs(V[converged] - ref)) <= 2 * pol.inner_tol
        assert np.all(np.isnan(V[~converged]))

    def test_two_dimensional_rotation_matches_plain_sweeps(self):
        sysm = transformed_from_maps(
            A=0.5 * _rotation(0.7),
            B=2.5 * _rotation(0.7),
            F=lambda U, V: np.column_stack([0.1 * U[:, 0] * V[:, 1], 0.05 * U[:, 1] ** 2]),
            G=lambda U, V: np.column_stack([
                0.3 * U[:, 0] ** 2 + 0.2 * U[:, 1] * V[:, 0],
                0.2 * U[:, 0] * U[:, 1] + 0.3 * V[:, 0] * V[:, 1],
            ]),
        )
        U = np.random.default_rng(3).uniform(-0.6, 0.6, (8, 2))
        for order in (1, 2, 3):
            pol = PolicyApprox(order=order, system=sysm)
            for u in U:
                ref = policy_plain(sysm, order, u, pol.inner_tol)
                assert np.max(np.abs(eval_policy(pol, u) - ref)) <= 2 * pol.inner_tol


#: fg calls allowed for one evaluation at u = -0.1396 on growth, by order: the
#: measured 11 / 13 / 13 / 13 / 14 / 15 / 15 / 16 at orders 1-8, plus at most 15%;
#: the nested solves made 6 / 26 / 81 / 190 / 978 at orders 1 / 2 / 3 / 4 / 8
STACKED_BUDGETS = {1: 12, 2: 14, 3: 14, 4: 14, 5: 16, 6: 17, 7: 17, 8: 18}


class TestStackedSolve:
    """Every recursion level of an evaluation in one Picard solve, one ``fg`` call per sweep."""

    @pytest.mark.parametrize("order", sorted(STACKED_BUDGETS))
    def test_fg_budget_of_one_evaluation(self, growth, counting_fg, order):
        sysm, calls = counting_fg(growth.system)
        eval_policy(PolicyApprox(order=order, system=sysm), np.array([-0.1396]))
        assert 0 < calls[0] <= STACKED_BUDGETS[order]

    @pytest.mark.parametrize("order", [2, 4])
    def test_first_image_is_the_forward_sum_along_the_linear_path(self, growth, order):
        # from v = 0 at the points A^(n-l) u: -sum_{k<n} B^(-k-1) G(A^k u, 0)
        sysm = growth.system
        u = np.array([-0.1396])
        total, weight, point = np.zeros(1), sysm.split.B_inv, u
        for _ in range(order):
            total = total - weight @ sysm.fg(point, np.zeros(1))[1]
            weight, point = weight @ sysm.split.B_inv, sysm.split.A @ point
        first = picard_iterates(PolicyApprox(order=order, system=sysm), u)[0]
        assert np.max(np.abs(first - total)) <= 1e-15

    @pytest.mark.parametrize("order", sorted(STACKED_BUDGETS))
    def test_each_image_is_one_sweep_of_the_one_before(self, growth, order):
        # plain Picard iteration: x_{k+1} = T(x_k), bitwise, from the cold start
        sysm = growth.system
        pol = PolicyApprox(order=order, system=sysm)
        U = np.array([[-0.1396]])
        trace = []
        X, inc = manifold._stacked_rows(pol, U, trace)
        assert inc[0] <= pol.inner_tol and np.array_equal(X, trace[-1])
        assert len(trace) <= STACKED_BUDGETS[order]
        points = [U]  # the linear look-ahead A^k u, one product at a time
        for _ in range(order - 1):
            points.append(sysm.split.A @ points[-1])
        start = np.concatenate([np.zeros((1, order))] + points[1:], axis=1)
        for before, after in zip([start] + trace[:-1], trace):
            image = []
            manifold.picard(sysm, U, before, None, pol.inner_tol, 1, image)
            assert np.array_equal(image[0], after)

    def test_row_is_the_extended_path_of_the_lower_orders(self, growth):
        # v_l = h_l(u_l) along u_{l-1} = A u_l + F(u_l, v_l): the n-period two-point problem
        sysm, order = growth.system, 4
        pol = PolicyApprox(order=order, system=sysm)
        U = np.array([[-0.1396], [0.2057]])
        X, inc = manifold._stacked_rows(pol, U)
        assert np.all(inc <= pol.inner_tol)
        for j in range(U.shape[0]):
            vs, points = X[j, :order], np.concatenate([U[j], X[j, order:]])
            for level, v, u in zip(range(order, 0, -1), vs, points):
                lower = PolicyApprox(order=level, system=sysm)
                assert abs(v - eval_policy(lower, np.array([u]))[0]) <= 1e-13
            for i in range(order - 1):
                u, v = points[i : i + 1], vs[i : i + 1]
                ahead = sysm.split.A @ u + sysm.fg(u, v)[0]
                assert abs(points[i + 1] - ahead[0]) <= 1e-13


class TestValidation:
    def test_negative_order_rejected(self, growth):
        with pytest.raises(ValueError):
            PolicyApprox(order=-1, system=growth.system)

    @pytest.mark.parametrize("field, value", [
        ("inner_max_iter", 0), ("inner_max_iter", -3),
        ("inner_tol", 0.0), ("inner_tol", -1e-12), ("inner_tol", math.nan),
    ])
    def test_sweep_budget_and_tolerance_rejected(self, growth, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            PolicyApprox(order=2, system=growth.system, **{field: value})

    def test_search_needs_a_candidate_radius(self, growth):
        with pytest.raises(ValueError, match="at least one"):
            search_domain(growth.system, radii=[])

    @pytest.mark.parametrize("at", [0, 1, 2])
    @pytest.mark.parametrize("value", [0.0, -0.2, math.nan, math.inf])
    def test_search_rejects_every_invalid_radius_before_evaluating(self, growth, counting_fg,
                                                                    value, at):
        # a NaN leaves the descending order undefined, so every radius is checked first
        counted, calls = counting_fg(growth.system)
        radii = [0.5, 0.0075]
        radii.insert(at, value)
        with pytest.raises(ValueError, match="^r_u must be positive and finite"):
            search_domain(counted, radii=radii)
        assert calls[0] == 0

    def test_domain_requires_positive_radii(self):
        # a NaN or infinite radius leaves no domain to sample
        for field in ("r_u", "r_v"):
            for value in (0.0, -0.2, math.nan, math.inf):
                with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
                    DomainSpec(**{"r_u": 0.1, "r_v": 0.1, field: value})


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


class TestNdtri:
    """The stdlib quantile behind the directions of wider balls against
    ``scipy.special.ndtri``: within 8 ulp on the clipped range and in the far tail."""

    @staticmethod
    def _assert_within_8_ulp(p):
        from scipy.special import ndtri as reference

        mine, ref = normal_quantile(p), reference(p)
        assert np.all(np.abs(mine - ref) <= 8 * np.spacing(np.abs(ref)))

    @pytest.mark.parametrize("count", [7, 128, 2048, 8193])
    def test_clipped_halton_inputs(self, count):
        m = max(1, -(-count // 4))  # rows per sample group, as in the domain sample
        for d in range(2, 8):
            self._assert_within_8_ulp(np.clip(manifold._halton(m + 1, d)[1:], 1e-12, 1.0 - 1e-12))

    def test_seeded_uniforms(self):
        self._assert_within_8_ulp(np.random.default_rng(20260).random(10**6))

    def test_tails_and_ends(self):
        tail = np.logspace(-12, math.log10(0.2), 20001)
        self._assert_within_8_ulp(tail)
        self._assert_within_8_ulp(1.0 - tail)
        ends = np.array([0.5, 1e-12, 1.0 - 1e-12])
        self._assert_within_8_ulp(ends)
        assert normal_quantile(ends)[0] == 0.0
        self._assert_within_8_ulp(np.logspace(-300, -12, 2001))  # below exp(-32)
