from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from stablemanifold import (
    DomainSpec,
    InfeasibleInitialError,
    InnerSolveError,
    ModelSpec,
    PolicyApprox,
    SteadyStateError,
    build_first_order,
    build_transformed,
    find_steady_state,
    numeric_derivatives,
    schur_split,
    solve_initial,
)
from oracles import damped_newton as oracle_newton, derivative_blocks_by_argument, jacobian_loop
from stablemanifold._numdiff import damped_newton, jacobian
from stablemanifold.manifold import domain_samples
from stablemanifold.model import _static_residual


class NewtonFailure(Exception):
    def __init__(self, reason, norm, row=None):
        super().__init__(reason)
        self.reason = reason
        self.norm = norm
        self.row = row


def _solve(residual, jacobian, x0, tol=1e-12, max_iter=50):
    # x0 as a batch of one row
    def evaluate(P, rows):
        return np.atleast_1d(residual(P[0]))[None], np.atleast_2d(jacobian(P[0]))[None]

    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    X, norm = damped_newton(evaluate, x0[None], tol, max_iter, NewtonFailure)
    return X[0], norm[0]


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

    def test_rows_iterate_on_their_own(self):
        # x^2 = c row by row; the row with c = -1 has no root, and the
        # wrong-signed Jacobian makes it stall at once
        c = np.array([[2.0], [3.0], [-1.0], [0.5], [7.0]])
        jacobian = lambda X, c: np.where(c < 0, -1.0, 2.0 * X)[..., None]
        last = {}

        def evaluate(P, rows):
            last.update(zip(rows, P.copy()))
            return P**2 - c[rows], jacobian(P, c[rows])

        with pytest.raises(NewtonFailure) as err:
            damped_newton(evaluate, np.ones((5, 1)), 1e-12, 50, NewtonFailure)
        assert err.value.reason == "stalled" and err.value.row == 2 and err.value.norm == 2.0
        for j in (0, 1, 3, 4):
            one, jac = (lambda x, j=j: x**2 - c[j]), (lambda x, j=j: jacobian(x, c[j]))
            alone, _ = _solve(one, jac, 1.0)
            assert np.array_equal(last[j], alone)
            ref, _ = oracle_newton(one, jac, np.ones(1), 1e-12, 50, NewtonFailure)
            assert abs(alone[0] - ref[0]) <= 1e-15


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


def _recording(func, calls):
    def recorded(p):
        calls.append(np.array(p, copy=True))
        return func(p)

    return recorded


@pytest.mark.parametrize("case", ["fg-rows", "fg-points", "static-residual", "half-step", "empty"])
def test_jacobian_matches_coordinate_loop(growth, case):
    # same quotients, and func sees the same points in the same order
    sysm, n_u = growth.system, growth.system.n_u
    fg = lambda p: np.hstack(sysm.fg(p[..., :n_u], p[..., n_u:]))
    dom = DomainSpec(r_u=0.0075, r_v=0.0075, sample_count=64)
    rows = np.hstack(domain_samples(dom, n_u, sysm.n_v))[:64]
    static = lambda p: _static_residual(growth.model, p)
    ss_point = np.concatenate([growth.ss.y_bar, growth.ss.x_bar])
    empty = lambda p: np.ones(p.shape[:-1] + (2,))
    runs = {
        "fg-rows": [(fg, rows, 1.0)],
        "fg-points": [(fg, row, 1.0) for row in rows[::9]],
        "static-residual": [(static, ss_point, 1.0), (static, 1.5 * ss_point, 1.0)],
        "half-step": [(fg, rows, 0.5), (fg, rows[5], 0.5), (static, ss_point, 0.5)],
        "empty": [(empty, np.zeros(0), 1.0), (empty, np.zeros((5, 0)), 1.0)],
    }[case]
    assert rows.shape == (64, sysm.n_u + sysm.n_v)
    for func, x, step_scale in runs:
        got_calls, want_calls = [], []
        got = jacobian(_recording(func, got_calls), x, step_scale)
        want = jacobian_loop(_recording(func, want_calls), x, step_scale)
        assert np.array_equal(got, want)
        assert len(got_calls) == len(want_calls)
        assert all(np.array_equal(a, b) for a, b in zip(got_calls, want_calls))


@pytest.mark.parametrize("step_scale", [1.0, 4.0])
@pytest.mark.parametrize("which", ["growth", "linear"])
def test_numeric_derivatives_match_per_argument_blocks(growth, linear_model, which, step_scale):
    # one stacked difference Jacobian gives the per-argument blocks bitwise
    if which == "growth":
        model, ss = dataclasses.replace(growth.model, jacobians=None), growth.ss
    else:
        model = linear_model
        ss = find_steady_state(model)
    calls = []

    def residual(*args):
        calls.append(1)
        return model.residual(*args)

    counted = dataclasses.replace(model, residual=residual)
    calls.clear()  # the batch probe of ModelSpec
    got = numeric_derivatives(counted, ss, step_scale)
    assert len(calls) == 2 * (2 * model.n_y + 2 * model.n_x + model.n_z)
    want = derivative_blocks_by_argument(model, ss, step_scale)
    for name, block in zip(("f1", "f2", "f3", "f4", "f5"), want):
        assert np.array_equal(getattr(got, name), block)
