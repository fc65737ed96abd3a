from __future__ import annotations

import numpy as np
import pytest

from stablemanifold import (
    InfeasibleInitialError,
    InnerSolveError,
    ModelSpec,
    PolicyApprox,
    SteadyStateError,
    build_first_order,
    build_transformed,
    find_steady_state,
    schur_split,
    solve_initial,
)
from stablemanifold._numdiff import damped_newton, jacobian


class NewtonFailure(Exception):
    def __init__(self, reason, norm):
        super().__init__(reason)
        self.reason = reason
        self.norm = norm


def _solve(residual, jacobian, x0, tol=1e-12, max_iter=50):
    return damped_newton(
        lambda x: np.atleast_1d(residual(x)),
        lambda x: np.atleast_2d(jacobian(x)),
        np.atleast_1d(np.asarray(x0, dtype=float)),
        tol,
        max_iter,
        NewtonFailure,
    )


class TestDampedNewton:
    def test_converges_to_square_root(self):
        x, norm = _solve(lambda x: x**2 - 2.0, lambda x: 2.0 * x, 1.0)
        assert abs(x[0] - np.sqrt(2.0)) <= 1e-15
        assert norm <= 1e-12

    def test_linear_system_in_one_step(self):
        mat = np.array([[2.0, 1.0], [1.0, 3.0]])
        rhs = np.array([3.0, 5.0])
        x, norm = _solve(lambda x: mat @ x - rhs, lambda x: mat, [0.0, 0.0], max_iter=1)
        assert np.allclose(x, np.linalg.solve(mat, rhs), rtol=0, atol=1e-15)

    def test_root_reached_on_last_allowed_step_is_accepted(self):
        # 3x - 6 = 0 from 0: one Newton step lands exactly on the root
        x, norm = _solve(lambda x: 3.0 * x - 6.0, lambda x: 3.0, 0.0, max_iter=1)
        assert x[0] == 2.0 and norm == 0.0
        with pytest.raises(NewtonFailure) as err:
            _solve(lambda x: 3.0 * x - 6.0, lambda x: 3.0, 0.0, max_iter=0)
        assert err.value.reason == "max_iter" and err.value.norm == 6.0

    def test_singular_jacobian(self):
        with pytest.raises(NewtonFailure) as err:
            _solve(lambda x: x**2 + 1.0, lambda x: 2.0 * x, 0.0)
        assert err.value.reason == "singular" and err.value.norm == 1.0
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

    def test_stall_when_no_halved_step_descends(self):
        # x^2 + 1 has its minimum at 0; a wrong-signed Jacobian points uphill
        with pytest.raises(NewtonFailure) as err:
            _solve(lambda x: x**2 + 1.0, lambda x: -1.0, 0.0)
        assert err.value.reason == "stalled" and err.value.norm == 1.0

    def test_budget_exhausted(self):
        with pytest.raises(NewtonFailure) as err:
            _solve(lambda x: x**2 - 2.0, lambda x: 2.0 * x, 1.0, max_iter=2)
        assert err.value.reason == "max_iter"
        assert 0.0 < err.value.norm < 0.1


def _jacobians(y_next, y, x_next, x, z):
    # blocks of 2 x_next + x - 6 with respect to (y_next, y, x_next, x, z)
    empty = np.zeros((1, 0))
    return empty, empty, np.array([[2.0]]), np.array([[1.0]]), empty


class TestCallerErrors:
    def test_steady_state_on_last_allowed_step(self):
        # the static system 3x - 6 = 0 is solved exactly by the first Newton step
        model = ModelSpec(
            n_x=1,
            n_y=0,
            n_z=0,
            residual=lambda y_next, y, x_next, x, z: 2.0 * x_next + x - 6.0,
            lambda_mat=np.zeros((0, 0)),
            steady_guess=np.zeros(1),
            jacobians=_jacobians,
            linear_in_next=True,
        )
        assert find_steady_state(model, max_iter=1).x_bar[0] == 2.0
        with pytest.raises(SteadyStateError) as err:
            find_steady_state(model, max_iter=0)
        assert err.value.last_residual_norm == 6.0

    def test_inner_solve_singular_jacobian(self):
        # the Euler row loses its next-period dependence where y = 1
        def residual(y_next, y, x_next, x, z):
            return np.array([y_next[0] * (1.0 - y[0]) - 0.5 * y[0], x_next[0] - 0.3 * x[0]])

        model = ModelSpec(
            n_x=1,
            n_y=1,
            n_z=0,
            residual=residual,
            lambda_mat=np.zeros((0, 0)),
            steady_guess=np.zeros(2),
            linear_in_next=False,
        )
        fos = build_first_order(model, find_steady_state(model))
        w = np.array([0.1, 1.0])
        with pytest.raises(InnerSolveError, match="singular Jacobian") as err:
            fos.nonlinear(w)
        assert np.array_equal(err.value.point, w)
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

    def test_initial_condition_budget(self, growth):
        pol = PolicyApprox(order=1, system=growth.system, inner_tol=1e-13)
        x0 = 0.5 * growth.params.k_bar
        with pytest.raises(InfeasibleInitialError, match="within 1 iterations"):
            solve_initial(pol, growth.split, x0, [], max_iter=1)
        u = solve_initial(pol, growth.split, x0, [])
        assert np.all(np.isfinite(u))

    def test_initial_condition_exact_start_needs_no_step(self, linear_model):
        # with a linear model the linear start already solves the system, so
        # a zero step budget suffices
        fos = build_first_order(linear_model, find_steady_state(linear_model))
        split = schur_split(fos.K, n_u=2)
        pol = PolicyApprox(order=1, system=build_transformed(fos, split), inner_tol=1e-13)
        x0, z0 = np.array([0.2]), np.array([-0.1])
        u0 = solve_initial(pol, split, x0, z0, max_iter=0)
        assert np.array_equal(u0, np.linalg.solve(split.Z[:2, :2], np.array([z0[0], x0[0]])))


def test_batched_jacobian_matches_stacked_points():
    # arithmetic only, so batched and per-point evaluation round alike
    def func(p):
        a, b, c = p[..., 0], p[..., 1], p[..., 2]
        return np.stack([a * b - c, c * c * a], axis=-1)

    X = np.random.default_rng(3).normal(size=(7, 3)) * [1.0, 10.0, 0.1]
    batched = jacobian(func, X)
    assert batched.shape == (7, 2, 3)
    assert np.array_equal(batched, np.array([jacobian(func, x) for x in X]))
