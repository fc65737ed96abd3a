from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import derivative_blocks_by_argument, euler_equation_value, growth_euler_derivatives
from stablemanifold import (
    DimensionMismatchError,
    GrowthParams,
    ModelSpec,
    SteadyStateError,
    build_first_order,
    build_growth,
    eval_residual,
    find_steady_state,
    numeric_derivatives,
)
from conftest import build_linear_model


def test_residual_zero_at_steady_state(growth):
    ss = growth.ss
    res = eval_residual(growth.model, ss.y_bar, ss.y_bar, ss.x_bar, ss.x_bar, np.zeros(0))
    assert np.linalg.norm(res) <= 1e-12


def test_residual_matches_direct_arithmetic():
    params = GrowthParams()
    model = build_growth(params)
    k = 0.25
    res = eval_residual(model, [k], [k], [k], [k], np.zeros(0))
    expected = euler_equation_value(params, k, k, k)
    assert_allclose(res[0], expected, rtol=1e-14)
    assert res[1] == 0.0  # transition row: k_next - control


def test_residual_of_linear_model_is_matrix_product():
    model = build_linear_model()
    rng = np.random.default_rng(7)
    y_next, y, x_next, x, z = (rng.normal(size=1) for _ in range(5))
    res = eval_residual(model, y_next, y, x_next, x, z)
    expected = np.array(
        [y_next[0] - 2.0 * y[0] - 0.3 * x[0] - 0.2 * z[0], x_next[0] - 0.4 * x[0] - 0.1 * z[0]]
    )
    assert_allclose(res, expected, atol=1e-15)


def test_residual_dimension_mismatch_raises():
    model = build_linear_model()
    with pytest.raises(DimensionMismatchError):
        eval_residual(model, [0.0, 1.0], [0.0], [0.0], [0.0], [0.0])


def test_steady_state_matches_closed_formula():
    params = GrowthParams(alpha=0.36, beta=0.99)
    model = build_growth(params, steady_guess=0.15)
    ss = find_steady_state(model, tol=1e-14)
    k_bar = (params.alpha * params.beta) ** (1.0 / (1.0 - params.alpha))
    assert abs(ss.x_bar[0] - k_bar) <= 1e-13
    assert abs(ss.y_bar[0] - k_bar) <= 1e-13
    assert round(k_bar, 2) == 0.20


def test_steady_state_other_calibration():
    params = GrowthParams(alpha=0.3, beta=0.95)
    model = build_growth(params)
    ss = find_steady_state(model, tol=1e-14)
    assert_allclose(ss.x_bar[0], 0.285 ** (1.0 / 0.7), atol=1e-12)


def test_steady_state_of_linear_stable_map_is_zero():
    def residual(y_next, y, x_next, x, z):
        return np.array([x_next[0] - 0.5 * x[0]])

    model = ModelSpec(
        n_x=1,
        n_y=0,
        n_z=0,
        residual=residual,
        lambda_mat=np.zeros((0, 0)),
        steady_guess=np.array([0.8]),
        linear_in_next=True,
    )
    ss = find_steady_state(model, tol=1e-13)
    assert abs(ss.x_bar[0]) <= 1e-12


def test_steady_state_refeeds_below_tolerance(growth):
    res = eval_residual(
        growth.model, growth.ss.y_bar, growth.ss.y_bar, growth.ss.x_bar, growth.ss.x_bar, np.zeros(0)
    )
    assert np.linalg.norm(res) <= growth.ss.residual_norm + 1e-15


def test_singular_static_jacobian_is_reported():
    from stablemanifold import SingularJacobianError

    def residual(y_next, y, x_next, x, z):
        return np.array([1.0])  # constant residual, zero Jacobian

    model = ModelSpec(
        n_x=1,
        n_y=0,
        n_z=0,
        residual=residual,
        lambda_mat=np.zeros((0, 0)),
        steady_guess=np.array([0.0]),
        linear_in_next=True,
    )
    with pytest.raises(SingularJacobianError):
        find_steady_state(model, tol=1e-12)


def test_steady_state_reports_failure():
    def residual(y_next, y, x_next, x, z):
        return np.array([x_next[0] * x[0] + 1.0])  # static system x^2 + 1: rootless

    model = ModelSpec(
        n_x=1,
        n_y=0,
        n_z=0,
        residual=residual,
        lambda_mat=np.zeros((0, 0)),
        steady_guess=np.array([1.0]),
        linear_in_next=True,
    )
    with pytest.raises(SteadyStateError) as err:
        find_steady_state(model, tol=1e-12, max_iter=10)
    assert err.value.last_residual_norm is not None


def test_growth_derivatives_match_hand_values(growth):
    # the Euler row encodes the second-order capital equation; its
    # steady-state slopes are -1/beta (current k) and 1/(a b)+a (next k)
    hand = growth_euler_derivatives(growth.params)
    derivs = numeric_derivatives(growth.model, growth.ss)
    # residual convention puts next-capital in the control slot
    assert_allclose(-derivs.f2[0, 0], hand["d_next"], rtol=1e-12)
    assert_allclose(-derivs.f4[0, 0], hand["d_current"], rtol=1e-12)


def test_growth_numeric_vs_analytic_blocks():
    params = GrowthParams()
    with_jac = build_growth(params)
    ss = find_steady_state(with_jac, tol=1e-14)
    analytic = numeric_derivatives(with_jac, ss)
    import dataclasses

    without_jac = dataclasses.replace(with_jac, jacobians=None)
    numeric = numeric_derivatives(without_jac, ss)
    for name in ("f1", "f2", "f3", "f4", "f5"):
        assert_allclose(getattr(numeric, name), getattr(analytic, name), atol=1e-8)


def test_linear_model_derivatives_exact(linear_model):
    ss = find_steady_state(linear_model, tol=1e-13)
    derivs = numeric_derivatives(linear_model, ss)
    assert_allclose(derivs.f1, [[1.0], [0.0]], atol=1e-14)
    assert_allclose(derivs.f2, [[-2.0], [0.0]], atol=1e-14)
    assert_allclose(derivs.f3, [[0.0], [1.0]], atol=1e-14)
    assert_allclose(derivs.f4, [[-0.3], [-0.4]], atol=1e-14)
    assert_allclose(derivs.f5, [[-0.2], [-0.1]], atol=1e-14)


def test_derivative_step_halving_is_second_order():
    params = GrowthParams()
    import dataclasses

    model = dataclasses.replace(build_growth(params), jacobians=None)
    ss = find_steady_state(model, tol=1e-14)
    full = numeric_derivatives(model, ss, step_scale=8.0)
    half = numeric_derivatives(model, ss, step_scale=4.0)
    quarter = numeric_derivatives(model, ss, step_scale=2.0)
    gap_full = max(np.max(np.abs(full.f2 - half.f2)), np.max(np.abs(full.f4 - half.f4)))
    gap_half = max(np.max(np.abs(half.f2 - quarter.f2)), np.max(np.abs(half.f4 - quarter.f4)))
    assert gap_half <= gap_full / 2.5  # ~4x for O(step^2), margin for noise


def test_scalar_residual_is_evaluated_point_by_point(growth):
    # float(y[0]) rejects a batch row, so the remainder is evaluated one
    # point per residual call, with the same numbers as the batched residual
    batched = build_growth(growth.params)
    growth_residual = batched.residual
    calls = []

    def scalar_residual(y_next, y, x_next, x, z):
        calls.append("point")
        scalars = [[float(arg[0])] for arg in (y_next, y, x_next, x)]
        return growth_residual(*scalars, z)

    scalar = dataclasses.replace(batched, residual=scalar_residual)
    fos_scalar = build_first_order(scalar, growth.ss)
    fos_batched = build_first_order(batched, growth.ss)
    batched.residual = lambda *args: calls.append("batch") or growth_residual(*args)

    W = np.random.default_rng(5).uniform(-0.03, 0.03, size=(9, 2))
    calls.clear()
    out = fos_scalar.nonlinear(W)
    assert calls == ["point"] * 9
    assert np.array_equal(out, np.array([fos_scalar.nonlinear(w) for w in W]))
    calls.clear()
    assert_allclose(fos_batched.nonlinear(W), out, rtol=1e-13, atol=1e-17)
    assert calls == ["batch"]


def test_scalar_residual_is_one_call_per_stencil_column(growth):
    # without analytic Jacobians the blocks and every steady-state Newton trial
    # stack the point on its stencil; a residual that cannot take batches gets
    # those columns one by one, in the stencil's order
    growth_residual = build_growth(growth.params).residual
    points = []

    def scalar_residual(y_next, y, x_next, x, z):
        point = [float(arg[0]) for arg in (y_next, y, x_next, x)]
        points.append(point)
        return growth_residual(*([a] for a in point), z)

    scalar = dataclasses.replace(build_growth(growth.params), residual=scalar_residual,
                                 jacobians=None)
    base = float(np.cbrt(np.finfo(float).eps))

    def stencil(centre):
        # the centre, then each coordinate moved up and down by its step
        rows = [list(centre)]
        for i, c in enumerate(centre):
            h = base * max(1.0, abs(c))
            rows += [centre[:i] + [c + h] + centre[i + 1 :], centre[:i] + [c - h] + centre[i + 1 :]]
        return rows

    points.clear()
    derivs = numeric_derivatives(scalar, growth.ss)
    y, x = float(growth.ss.y_bar[0]), float(growth.ss.x_bar[0])
    assert points == stencil([y, y, x, x])
    want = derivative_blocks_by_argument(scalar, growth.ss)
    for name, block in zip(("f1", "f2", "f3", "f4", "f5"), want):
        assert np.array_equal(getattr(derivs, name), block)

    points.clear()
    ss = find_steady_state(scalar, tol=1e-14)
    assert points and len(points) % 5 == 0
    for k in range(0, len(points), 5):
        zeta, _, k_level, _ = points[k]
        static = [[a, a, b, b] for a, b in stencil([zeta, k_level])]
        assert points[k : k + 5] == static
    assert_allclose(ss.stacked, growth.ss.stacked, rtol=1e-13)
