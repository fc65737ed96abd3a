from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from stablemanifold import (
    DomainSpec,
    InfeasibleInitialError,
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
from stablemanifold._numdiff import damped_newton, jacobian, value_and_jacobian
from stablemanifold.manifold import domain_samples
from stablemanifold.model import eval_residual


class NewtonFailure(Exception):
    def __init__(self, reason, norm):
        super().__init__(reason)
        self.reason = reason
        self.norm = norm


def _solve(residual, jacobian, x0, tol=1e-12, max_iter=50):
    # x0 as a batch of one row; returns its root, its norm and the failures
    def evaluate(P, rows):
        return np.atleast_1d(residual(P[0]))[None], np.atleast_2d(jacobian(P[0]))[None]

    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    X, norm, failures = damped_newton(evaluate, x0[None], tol, max_iter)
    return X[0], norm[0], failures


def _failure(failures, reason, row=0):
    # the one failure, of row ``row`` with ``reason``; returns its last norm and cause
    assert list(failures) == [row]
    got, norm, cause = failures[row]
    assert got == reason
    return norm, cause


class TestDampedNewton:
    def test_converges_to_square_root(self):
        x, norm, failures = _solve(lambda x: x**2 - 2.0, lambda x: 2.0 * x, 1.0)
        assert abs(x[0] - np.sqrt(2.0)) <= 1e-15
        assert norm <= 1e-12 and not failures

    def test_linear_system_in_one_step(self):
        mat = np.array([[2.0, 1.0], [1.0, 3.0]])
        rhs = np.array([3.0, 5.0])
        x, norm, failures = _solve(lambda x: mat @ x - rhs, lambda x: mat, [0.0, 0.0], max_iter=1)
        assert np.allclose(x, np.linalg.solve(mat, rhs), rtol=0, atol=1e-15) and not failures

    def test_root_reached_on_last_allowed_step_is_accepted(self):
        # 3x - 6 = 0 from 0: one Newton step lands exactly on the root
        x, norm, failures = _solve(lambda x: 3.0 * x - 6.0, lambda x: 3.0, 0.0, max_iter=1)
        assert x[0] == 2.0 and norm == 0.0 and not failures
        x, norm, failures = _solve(lambda x: 3.0 * x - 6.0, lambda x: 3.0, 0.0, max_iter=0)
        assert _failure(failures, "max_iter") == (6.0, None)
        assert x[0] == 0.0 and np.isnan(norm)

    def test_singular_jacobian(self):
        x, norm, failures = _solve(lambda x: x**2 + 1.0, lambda x: 2.0 * x, 0.0)
        last, cause = _failure(failures, "singular")
        assert last == 1.0 and isinstance(cause, np.linalg.LinAlgError)
        assert x[0] == 0.0 and np.isnan(norm)

    def test_stall_when_no_halved_step_descends(self):
        # x^2 + 1 has its minimum at 0; a wrong-signed Jacobian points uphill
        _, _, failures = _solve(lambda x: x**2 + 1.0, lambda x: -1.0, 0.0)
        assert _failure(failures, "stalled") == (1.0, None)

    def test_budget_exhausted(self):
        # two steps from 1 move the row towards sqrt(2); it comes back at its start
        x, norm, failures = _solve(lambda x: x**2 - 2.0, lambda x: 2.0 * x, 1.0, max_iter=2)
        last, cause = _failure(failures, "max_iter")
        assert 0.0 < last < 0.1 and cause is None
        assert x[0] == 1.0 and np.isnan(norm)

    def test_rows_iterate_on_their_own(self):
        # x^2 = c row by row; the row with c = -1 has no root, and the
        # wrong-signed Jacobian makes it stall at once
        c = np.array([[2.0], [3.0], [-1.0], [0.5], [7.0]])
        jacobian = lambda X, c: np.where(c < 0, -1.0, 2.0 * X)[..., None]
        last = {}

        def evaluate(P, rows):
            last.update(zip(rows, P.copy()))
            return P**2 - c[rows], jacobian(P, c[rows])

        X, _, failures = damped_newton(evaluate, np.ones((5, 1)), 1e-12, 50)
        assert _failure(failures, "stalled", row=2) == (2.0, None)
        for j in (0, 1, 3, 4):
            one, jac = (lambda x, j=j: x**2 - c[j]), (lambda x, j=j: jacobian(x, c[j]))
            alone, _, _ = _solve(one, jac, 1.0)
            assert np.array_equal(last[j], alone) and np.array_equal(X[j], alone)
            ref, _ = oracle_newton(one, jac, np.ones(1), 1e-12, 50, NewtonFailure)
            assert abs(alone[0] - ref[0]) <= 1e-15

    def test_regular_row_solves_after_a_singular_row_leaves(self):
        # x^2 = c: row 0 starts at x = 0, where the Jacobian 2x is singular, so the
        # batch solve raises, row 0 leaves and the step is solved again for row 1
        c, start = np.array([[-1.0], [2.0]]), np.array([[0.0], [1.0]])
        last = {}

        def evaluate(P, rows):
            last.update(zip(rows, P.copy()))
            return P**2 - c[rows], 2.0 * P[..., None]

        _, _, failures = damped_newton(evaluate, start, 1e-12, 50)
        norm, cause = _failure(failures, "singular", row=0)
        assert norm == 1.0 and isinstance(cause, np.linalg.LinAlgError)
        alone, _, _ = _solve(lambda x: x**2 - 2.0, lambda x: 2.0 * x, 1.0)
        assert np.array_equal(last[1], alone)

    def test_failed_rows_come_back_as_they_are_without_an_error(self):
        # x^2 = c row by row: rows 1-3 fail (stalled on a wrong-signed Jacobian, singular
        # at x = 0, a Jacobian that is not finite) and row 4 starts outside the domain
        c = np.array([[2.0], [-1.0], [-1.0], [5.0], [3.0], [7.0]])
        start = np.array([[1.0], [1.0], [0.0], [1.0], [np.nan], [1.0]])
        kind = np.array([0, 1, 0, 2, 0, 0])[:, None]

        def evaluate(P, rows):
            jac = np.choose(kind[rows], [2.0 * P, -np.ones_like(P), np.full_like(P, np.nan)])
            return P**2 - c[rows], jac[..., None]

        X, norm, failures = damped_newton(evaluate, start, 1e-12, 50)
        failed, good = np.array([1, 2, 3, 4]), np.array([0, 5])
        assert {j: f[0] for j, f in failures.items()} == {
            1: "stalled", 2: "singular", 3: "undefined", 4: "undefined at the start"}
        assert np.isnan(norm[failed]).all()
        assert np.array_equal(X[failed], start[failed], equal_nan=True)
        # the converged rows are bitwise what the call on them alone returns
        one = lambda P, rows: evaluate(P, good[rows])
        X_good, norm_good, failures_good = damped_newton(one, start[good], 1e-12, 50)
        assert np.array_equal(X[good], X_good) and np.array_equal(norm[good], norm_good)
        assert np.all(norm_good <= 1e-12) and not failures_good

    def test_row_undefined_at_its_start_is_a_failure(self):
        # x^2 = 2 from 1 and from a start where the residual is not finite: that row
        # fails with norm NaN and is never evaluated again; the other row converges
        evaluated = []

        def evaluate(P, rows):
            evaluated.append(rows.copy())
            R = np.where(P > 0.0, P**2 - 2.0, np.inf)
            return R, 2.0 * P[..., None]

        start = np.array([[1.0], [-1.0]])
        X, norm, failures = damped_newton(evaluate, start, 1e-12, 50)
        last, cause = _failure(failures, "undefined at the start", row=1)
        assert np.isnan(last) and cause is None
        assert X[1, 0] == -1.0 and np.isnan(norm[1])
        assert abs(X[0, 0] - np.sqrt(2.0)) <= 1e-15 and norm[0] <= 1e-12
        assert all(np.array_equal(rows, [0]) for rows in evaluated[1:])


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
        # no next-period root: the point is outside the domain, a NaN row as a
        # non-finite residual gives, and a batch keeps its other rows' bits
        good, w = np.array([0.1, 0.2]), np.array([0.1, 1.0])
        assert np.isnan(fos.nonlinear(w)).all()
        both = fos.nonlinear(np.array([good, w]))
        assert np.isnan(both[1]).all() and np.isfinite(both[0]).all()
        assert np.array_equal(both[0], fos.nonlinear(good))

    def test_initial_condition_budget(self, growth):
        pol = PolicyApprox(order=1, system=growth.system, inner_tol=1e-13)
        x0 = 0.5 * growth.params.k_bar
        with pytest.raises(InfeasibleInitialError, match="within 1 iterations"):
            solve_initial(pol, x0, [], max_iter=1)
        u = solve_initial(pol, x0, [])
        assert np.all(np.isfinite(u))

    def test_initial_condition_exact_start_needs_no_step(self, linear_model):
        # with a linear model the linear start already solves the system, so
        # a zero step budget suffices
        fos = build_first_order(linear_model, find_steady_state(linear_model))
        split = schur_split(fos.K, n_u=2)
        pol = PolicyApprox(order=1, system=build_transformed(fos, split), inner_tol=1e-13)
        x0, z0 = np.array([0.2]), np.array([-0.1])
        u0 = solve_initial(pol, x0, z0, max_iter=0)
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
    # same quotients, from one func call on the centre followed by the loop's
    # points in the loop's order
    sysm, n_u = growth.system, growth.system.n_u
    fg = lambda p: np.hstack(sysm.fg(p[..., :n_u], p[..., n_u:]))
    dom = DomainSpec(r_u=0.0075, r_v=0.0075, sample_count=64)
    rows = np.hstack(domain_samples(dom, n_u, sysm.n_v))[:64]

    def alone(func):
        # one row per call, so each row is evaluated as the loop evaluates its point
        return lambda p: np.array([func(q) for q in np.atleast_2d(p)]).reshape(
            np.shape(p)[:-1] + (-1,)
        )

    static = alone(lambda q: eval_residual(growth.model, q[:1], q[:1], q[1:], q[1:], []))
    ss_point = np.concatenate([growth.ss.y_bar, growth.ss.x_bar])
    empty = lambda p: np.ones(p.shape[:-1] + (2,))
    runs = {
        "fg-rows": [(fg, rows, 1.0)],
        "fg-points": [(alone(fg), row, 1.0) for row in rows[::9]],
        "static-residual": [(static, ss_point, 1.0), (static, 1.5 * ss_point, 1.0)],
        "half-step": [(fg, rows, 0.5), (alone(fg), rows[5], 0.5), (static, ss_point, 0.5)],
        "empty": [(empty, np.zeros(0), 1.0), (empty, np.zeros((5, 0)), 1.0)],
    }[case]
    assert rows.shape == (64, sysm.n_u + sysm.n_v)
    for func, x, step_scale in runs:
        got_calls, want_calls = [], []
        got = jacobian(_recording(func, got_calls), x, step_scale)
        want = jacobian_loop(_recording(func, want_calls), x, step_scale)
        assert np.array_equal(got, want)
        # the loop's calls after its 2n neighbours are its n = 0 shape probe
        n = np.shape(x)[-1]
        stacked = np.concatenate([np.atleast_2d(c) for c in [x, *want_calls[: 2 * n]]])
        assert len(want_calls) == max(2 * n, 1)
        assert len(got_calls) == 1 and np.array_equal(got_calls[0], stacked)


@pytest.mark.parametrize("step_scale", [1.0, 4.0])
@pytest.mark.parametrize("which", ["growth", "linear"])
def test_numeric_derivatives_match_per_argument_blocks(growth, linear_model, which, step_scale):
    # one stacked difference Jacobian, from one residual call on the point and
    # its stencil, gives the per-argument blocks bitwise
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
    assert len(calls) == 1
    want = derivative_blocks_by_argument(model, ss, step_scale)
    for name, block in zip(("f1", "f2", "f3", "f4", "f5"), want):
        assert np.array_equal(getattr(got, name), block)


@pytest.mark.parametrize(
    "x",
    [np.array([0.3, -1.7, 25.0]), np.arange(12.0).reshape(4, 3) - 5.5, np.zeros(0), np.zeros((4, 0))],
    ids=["point", "rows", "empty-point", "empty-rows"],
)
def test_value_and_jacobian_is_one_call(x):
    # arithmetic only, so a row's value does not depend on the rows beside it
    def func(p):
        return np.stack([(p * p).sum(-1), 2.0 * p.sum(-1) - 1.0], axis=-1)

    calls = []
    value, jac = value_and_jacobian(_recording(func, calls), x)
    n = x.shape[-1]
    assert len(calls) == 1
    assert calls[0].shape == ((1 + 2 * n) * len(np.atleast_2d(x)), n)
    assert np.array_equal(value, func(x))
    assert np.array_equal(jac, jacobian_loop(func, x))
    assert jac.shape == x.shape[:-1] + (2, n)
