"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are fixed here and never loosened at runtime.
"""

from __future__ import annotations

import time

import numpy as np

from oracles import (
    exact_policy_transformed,
    first_iterate_formula,
    first_order_policy_root,
)
from stablemanifold import (
    EPConfig,
    ForwardDivergenceError,
    GrowthParams,
    PolicyApprox,
    build_growth,
    closed_form,
    closed_form_start,
    error_bound,
    eval_lyapunov_perron,
    eval_policy,
    find_steady_state,
    lemma_recursion,
    picard_iterates,
    policy_at_levels,
    solve_ep,
    taylor_policy,
)

# golden sup errors frozen from the first verified run (501-point grid,
# inner tolerance 1e-13); derived from the closed-form oracle
GOLDEN_H2_SUP_ERROR = 2.366878e-04
GOLDEN_T16_SUP_ERROR = 1.852243e-02


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_steady_state():
    params = GrowthParams(alpha=0.36, beta=0.99)
    start = time.perf_counter()
    model = build_growth(params, steady_guess=0.15)
    ss = find_steady_state(model, tol=1e-14)
    elapsed = time.perf_counter() - start
    k_formula = (0.36 * 0.99) ** (1.0 / 0.64)
    gap = abs(ss.x_bar[0] - k_formula)
    ok = gap <= 1e-12 and round(k_formula, 2) == 0.20 and elapsed < 1.0
    _report(1, ok, f"|k - formula| = {gap:.2e}, solved in {elapsed * 1e3:.1f} ms")


def test_criterion_2_spectral_pipeline(growth):
    a, b = growth.params.alpha, growth.params.beta
    eig = np.sort(np.linalg.eigvals(growth.first_order.K))
    eig_gap = np.max(np.abs(eig - np.array([a, 1.0 / (a * b)])))
    K_expected = np.array([[0.0, 1.0], [-1.0 / b, 1.0 / (a * b) + a]])
    K_gap = np.max(np.abs(growth.first_order.K - K_expected))
    ok = eig_gap <= 1e-10 and K_gap <= 1e-10
    _report(2, ok, f"eigenvalue gap {eig_gap:.2e}, transition-matrix gap {K_gap:.2e}")


def test_criterion_3_first_order_scheme(growth, growth_domain):
    dom, _ = growth_domain
    pol = PolicyApprox(order=1, system=growth.system, inner_tol=1e-13)
    us = np.linspace(-dom.r_u, dom.r_u, 100)
    root_gap = max(
        abs(eval_policy(pol, np.array([u]))[0] - first_order_policy_root(growth.params, u))
        for u in us
    )
    iterate_gap = max(
        abs(picard_iterates(pol, np.array([u]))[0][0] - first_iterate_formula(growth.params, u))
        for u in (-dom.r_u, -0.003, 0.002, dom.r_u)
    )
    ok = root_gap <= 1e-10 and iterate_gap <= 1e-12
    _report(
        3,
        ok,
        f"order-1 vs independent bisection: {root_gap:.2e} (100 points, ball r = {dom.r_u:g}); "
        f"first iterate vs formula: {iterate_gap:.2e}",
    )


def test_criterion_4_convergence_rate(growth, growth_domain):
    dom, _ = growth_domain
    start = time.perf_counter()
    us = np.linspace(-dom.r_u, dom.r_u, 101)
    exact = np.array(
        [exact_policy_transformed(growth.params, growth.split.Z_inv, u) for u in us]
    )
    sups = []
    for order in (1, 2, 3):
        pol = PolicyApprox(
            order=order, system=growth.system, inner_tol=1e-13, domain=dom
        )
        vals = np.array([eval_policy(pol, np.array([u]))[0] for u in us])
        sups.append(np.max(np.abs(vals - exact)))
    elapsed = time.perf_counter() - start
    split = growth.split
    rate_cap = 2 * split.normBinv / (1 + split.normBinv * split.normA)
    rate_cap *= (split.normA + 0.01) ** 2
    rate_cap += 0.1
    ratios = (sups[1] / sups[0], sups[2] / sups[1])
    ok = (
        sups[0] > sups[1] > sups[2]
        and max(ratios) <= rate_cap
        and elapsed < 30.0
    )
    _report(
        4,
        ok,
        f"sup errors {sups[0]:.2e} > {sups[1]:.2e} > {sups[2]:.2e}, "
        f"ratios {ratios[0]:.3f}, {ratios[1]:.3f} <= {rate_cap:.3f}, {elapsed:.1f} s",
    )


def test_criterion_5_global_policy_comparison(growth, growth_domain):
    dom, _ = growth_domain
    params = growth.params
    kb = params.k_bar
    k_grid = np.linspace(0.01 * kb, 5 * kb, 501)
    exact = closed_form(params, k_grid)
    start = closed_form_start(growth.system, params, 2, k_grid)
    h2 = policy_at_levels(growth.system, 2, k_grid, tol=1e-13, start=start)[:, 0]
    h2_sup = np.max(np.abs(h2 - exact))
    inside = k_grid <= 2 * kb
    t16_sup = np.max(np.abs(taylor_policy(params, 16, k_grid) - exact)[inside])
    t16_err = lambda k: abs(taylor_policy(params, 16, k) - closed_form(params, k))
    explosion = t16_err(2.6 * kb) / t16_err(1.5 * kb)
    golden_ok = (
        abs(h2_sup - GOLDEN_H2_SUP_ERROR) <= 1e-3 * GOLDEN_H2_SUP_ERROR
        and abs(t16_sup - GOLDEN_T16_SUP_ERROR) <= 1e-3 * GOLDEN_T16_SUP_ERROR
    )
    ok = (
        np.all(np.isfinite(h2))
        and h2_sup <= t16_sup
        and explosion > 10.0
        and golden_ok
    )
    _report(
        5,
        ok,
        f"global second-order sup error {h2_sup:.4e} <= expansion sup error {t16_sup:.4e} "
        f"(golden match {golden_ok}); expansion error growth factor {explosion:.1e} > 10",
    )


def test_criterion_6_apriori_bound_validity(growth, growth_domain):
    dom, report = growth_domain
    params = growth.params
    Z_inv = growth.split.Z_inv
    A = growth.split.A
    us = np.linspace(-dom.r_u, dom.r_u, 41)
    exact = np.array([exact_policy_transformed(params, Z_inv, u) for u in us])

    def tail_point(u0: float, n: int) -> float:
        u = np.array([u0])
        for _ in range(n):
            F_val, _ = growth.system.fg(
                u, np.array([exact_policy_transformed(params, Z_inv, u[0])])
            )
            u = A @ u + F_val
        return u[0]

    details = []
    ok = True
    for n in (1, 2, 3):
        h_tail = max(
            abs(exact_policy_transformed(params, Z_inv, tail_point(u, n))) for u in us
        )
        bound = error_bound(growth.split, report, n, h_tail).apriori
        pol = PolicyApprox(
            order=n, system=growth.system, inner_tol=1e-13, domain=dom
        )
        worst = max(
            abs(eval_policy(pol, np.array([u]))[0] - exact[i]) for i, u in enumerate(us)
        )
        ok = ok and worst <= bound
        details.append(f"n={n}: {worst:.2e} <= {bound:.2e}")
    _report(6, ok, "; ".join(details))


def test_criterion_7_extended_path_equivalence(exo_system):
    n = 20
    u_path = np.array([[0.8 * 0.5 ** i] for i in range(n + 1)])
    V = solve_ep(exo_system, u_path, EPConfig(horizon=n, type2_iters=4, tol=1e-14))
    pol1 = PolicyApprox(order=1, system=exo_system, inner_tol=1e-14)
    gap1 = max(abs(V[1, i, 0] - eval_policy(pol1, u_path[i])[0]) for i in range(n + 1))
    gap_high = 0.0
    for j in (2, 3, 4):
        pol = PolicyApprox(order=j, system=exo_system, inner_tol=1e-14)
        gap_high = max(
            gap_high,
            max(
                abs(V[j, i, 0] - eval_policy(pol, u_path[i])[0])
                for i in range(n + 1 - j)
            ),
        )
    ok = gap1 <= 1e-10 and gap_high <= 1e-8
    _report(
        7, ok, f"first sweep vs order 1: {gap1:.2e}; sweeps 2-4 vs orders: {gap_high:.2e}"
    )


def test_criterion_8_majorizing_recursion():
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    ok = True
    for _ in range(20):
        c = rng.uniform(0.0, 0.9)
        rho = rng.uniform(0.05, 0.95) * (1.0 - c) / 4.0
        normBinv = rng.uniform(0.1, 0.9)
        normA = c / normBinv
        seq = lemma_recursion(rho, normA, normBinv, 5000)
        monotone = np.all(np.diff(seq.values) >= -1e-15)
        gap = abs(seq.values[-1] - seq.s1_star)
        worst_gap = max(worst_gap, gap)
        ok = ok and monotone and gap <= 1e-12
    _report(8, ok, f"20 random parameter pairs, worst fixed-point gap {worst_gap:.2e}")


def test_criterion_9_property_suite(growth, growth_domain):
    dom, report = growth_domain
    sysm = growth.system
    checks = {}

    F0, G0 = sysm.fg(np.zeros(1), np.zeros(1))
    checks["origin"] = max(np.linalg.norm(F0), np.linalg.norm(G0)) <= 1e-8

    b = sysm.split.normBinv
    norm_ok, deriv_ok = True, True
    deriv_cap = (1.0 - report.rho) / report.rho
    for order in (1, 2):
        pol = PolicyApprox(order=order, system=sysm, inner_tol=1e-13, domain=dom)
        sup = max(
            np.linalg.norm(eval_policy(pol, np.array([u])))
            for u in np.linspace(-dom.r_u, dom.r_u, 15)
        )
        norm_ok = norm_ok and sup <= (1 - b ** (order + 1)) * b * report.sup_G / (1 - b) + 1e-13
        step = 1e-6
        for u in np.linspace(-0.9 * dom.r_u, 0.9 * dom.r_u, 5):
            fd = (
                eval_policy(pol, np.array([u + step])) - eval_policy(pol, np.array([u - step]))
            ) / (2 * step)
            deriv_ok = deriv_ok and np.linalg.norm(fd) <= deriv_cap + 1e-3
    checks["norm_bound"] = norm_ok
    checks["derivative_bound"] = deriv_ok

    pol2 = PolicyApprox(order=2, system=sysm, inner_tol=1e-14)
    factor = 0.0
    for u in np.linspace(-dom.r_u, dom.r_u, 7):
        trace = picard_iterates(pol2, np.array([u]))
        incs = [np.linalg.norm(trace[i + 1] - trace[i]) for i in range(len(trace) - 1)]
        ratios = [incs[i + 1] / incs[i] for i in range(len(incs) - 1) if incs[i] > 1e-13]
        if ratios:
            factor = max(factor, max(ratios))
    checks["contraction_factor"] = factor <= report.rho

    u0 = np.array([0.5 * dom.r_u])
    v0 = eval_policy(pol2, u0) + 0.01
    try:
        eval_lyapunov_perron(sysm, 60, u0, v0, radius=dom.r_u)
        checks["shooting_divergence"] = False
    except ForwardDivergenceError as err:
        checks["shooting_divergence"] = 0 < err.step <= 60

    ok = all(checks.values())
    _report(9, ok, ", ".join(f"{name}={'ok' if val else 'FAIL'}" for name, val in checks.items()))
