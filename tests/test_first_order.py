from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import remainder_term
from stablemanifold import (
    DomainSpec,
    ModelSpec,
    PolicyApprox,
    SingularSystemError,
    SteadyState,
    TransformBuildError,
    build_first_order,
    build_growth,
    build_system,
    build_transformed,
    check_conditions,
    eval_policy,
    eval_residual,
    find_steady_state,
)
from stablemanifold.first_order import _check_origin

# model.residual calls on growth without linear_in_next, a path no benchmark
# workload runs.  A per-point inner Newton solve made 61,705 (check_conditions
# at 2048 samples) and 486 (one order-3 evaluation at u = -0.1396).
RESIDUAL_BUDGET = {"check_conditions": 20, "eval_policy": 200}


def test_growth_transition_matrix_matches_hand_values(growth):
    a, b = growth.params.alpha, growth.params.beta
    expected = np.array([[0.0, 1.0], [-1.0 / b, 1.0 / (a * b) + a]])
    assert_allclose(growth.first_order.K, expected, atol=1e-12)


def test_lead_lag_factorization_identity(growth):
    fos = growth.first_order
    assert np.max(np.abs(fos.phi @ fos.K - fos.gamma)) <= 1e-10


def test_linear_model_has_zero_remainder(linear_model):
    ss = find_steady_state(linear_model, tol=1e-13)
    fos = build_first_order(linear_model, ss)
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = rng.normal(scale=0.5, size=3)
        assert np.linalg.norm(fos.nonlinear(w)) <= 1e-12
    expected_K = np.array([[0.5, 0.0, 0.0], [0.1, 0.4, 0.0], [0.2, 0.3, 2.0]])
    assert_allclose(fos.K, expected_K, atol=1e-12)


@pytest.mark.parametrize("scale", [1e7, 1e10])
def test_rescaled_residual_builds_the_same_system(linear_model, scale):
    # the lead/lag factorization gap grows with gamma's scale: 4.7e-10 at 1e7
    # and 4.8e-7 at 1e10, above 1e-10 in absolute terms
    def residual(*args):
        return scale * linear_model.residual(*args)

    scaled = build_system(dataclasses.replace(linear_model, residual=residual)).split
    unscaled = build_system(linear_model).split
    assert_allclose(scaled.A, unscaled.A, rtol=0.0, atol=1e-14)
    assert_allclose(scaled.Z, unscaled.Z, rtol=0.0, atol=1e-14)


def test_factorization_gap_is_rejected(linear_model, monkeypatch):
    # a K off by 1e-6: the linear model's remainder is zero on any K, so the
    # origin checks pass and only the lead/lag gap catches it
    ss = find_steady_state(linear_model, tol=1e-13)
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) + 1e-6)
    with pytest.raises(TransformBuildError, match="lead/lag factorization residual"):
        build_first_order(linear_model, ss)


def test_growth_remainder_matches_displayed_formula(growth):
    # stacked order is (state deviation, control deviation)
    w = np.array([0.01, 0.01])
    n1 = growth.first_order.nonlinear(w)
    assert abs(n1[0]) <= 1e-14
    assert_allclose(n1[1], remainder_term(growth.params, 0.01, 0.01), rtol=1e-12)


def test_remainder_vanishes_at_origin_with_derivative(growth):
    fos = growth.first_order
    assert np.linalg.norm(fos.nonlinear(np.zeros(2))) <= 1e-12
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (fos.nonlinear(e) - fos.nonlinear(-e)) / (2 * h)
        assert np.max(np.abs(fd)) <= 1e-7


def test_remainder_vanishes_quadratically(growth):
    fos = growth.first_order
    rng = np.random.default_rng(11)
    direction = rng.normal(size=2)
    direction /= np.linalg.norm(direction)
    scales = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    norms = np.array([np.linalg.norm(fos.nonlinear(s * direction)) for s in scales])
    slope = np.polyfit(np.log(scales), np.log(norms), 1)[0]
    assert slope >= 1.9


def test_linear_prediction_error_is_second_order(growth):
    # stepping with K alone leaves a residual of the size of the neglected
    # quadratic remainder
    model, ss, fos = growth.model, growth.ss, growth.first_order
    errs = []
    scales = (1e-2, 1e-3, 1e-4)
    for s in scales:
        w = np.array([s, -0.5 * s])
        w_next = fos.K @ w
        res = eval_residual(
            model,
            ss.y_bar + w_next[1:],
            ss.y_bar + w[1:],
            ss.x_bar + w_next[:1],
            ss.x_bar + w[:1],
            np.zeros(0),
        )
        errs.append(np.linalg.norm(res))
    slope = np.polyfit(np.log(scales), np.log(errs), 1)[0]
    assert slope >= 1.9


def test_inner_solve_agrees_with_direct_remainder(growth):
    # dropping the linear-in-next declaration routes evaluation through the
    # per-point Newton solve; both paths must produce the same remainder
    model = dataclasses.replace(build_growth(growth.params), linear_in_next=False)
    fos_inner = build_first_order(model, growth.ss)
    fos_direct = growth.first_order
    for w in ([0.01, 0.01], [0.03, -0.02], [-0.02, 0.015]):
        w = np.array(w)
        assert_allclose(fos_inner.nonlinear(w), fos_direct.nonlinear(w), atol=1e-10)


@pytest.mark.parametrize("case", RESIDUAL_BUDGET)
def test_residual_budget_without_linear_in_next(growth, case):
    calls = []
    base = build_growth(growth.params)

    def residual(*args):
        calls.append(1)
        return base.residual(*args)

    model = dataclasses.replace(base, residual=residual, linear_in_next=False)
    sysm = build_transformed(build_first_order(model, growth.ss), growth.split)
    calls.clear()
    if case == "check_conditions":
        check_conditions(sysm, DomainSpec(0.0075, 0.0075, 2048))
    else:
        eval_policy(PolicyApprox(order=3, system=sysm), np.array([-0.1396]))
    assert 0 < len(calls) <= RESIDUAL_BUDGET[case]


@pytest.mark.parametrize("where", ["origin", "stencil"])
def test_origin_check_rejects_nan(where):
    # NaN is how a remainder marks a point without a value: a NaN at the origin
    # fails the value check, a NaN on the stencil the Jacobian check
    def func(w):
        w = np.asarray(w, dtype=float)
        return np.full(w.shape, np.nan) if where == "origin" else np.where(w == 0.0, 0.0, np.nan)

    match = {"origin": "value", "stencil": "Jacobian"}[where]
    with pytest.raises(TransformBuildError, match=match):
        _check_origin(func, 2, lambda value: f"value {value}", lambda largest: f"Jacobian {largest}")


def test_singular_lead_matrix_is_rejected():
    def residual(y_next, y, x_next, x, z):
        # no dependence on next-period variables at all
        return np.array([y[0] - 0.5 * x[0], x[0] - 0.3 * y[0]])

    model = ModelSpec(
        n_x=1,
        n_y=1,
        n_z=0,
        residual=residual,
        lambda_mat=np.zeros((0, 0)),
        steady_guess=np.zeros(2),
        linear_in_next=True,
    )
    ss = find_steady_state(model, tol=1e-12)
    with pytest.raises(SingularSystemError):
        build_first_order(model, ss)


def test_residual_cannot_write_into_the_steady_state():
    def residual(y_next, y, x_next, x, z):
        y_next += 0.0  # writes into its argument
        return np.array([y_next[0] - 2.0 * y[0] - 0.3 * x[0], x_next[0] - 0.4 * x[0]])

    model = ModelSpec(
        n_x=1, n_y=1, n_z=0, residual=residual, lambda_mat=np.zeros((0, 0)),
        steady_guess=np.zeros(2), linear_in_next=True,
    )
    ss = SteadyState(y_bar=np.zeros(1), x_bar=np.zeros(1), residual_norm=0.0)
    with pytest.raises(ValueError, match="read-only"):
        build_first_order(model, ss)
    assert np.array_equal(ss.y_bar, [0.0]) and ss.y_bar.flags.writeable
