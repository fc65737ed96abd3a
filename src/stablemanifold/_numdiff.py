"""Central-difference Jacobians and the damped Newton solver shared across the package.

Every difference Jacobian in the package comes from one stencil, and
only :func:`value_and_jacobian` builds it: it stacks a point (or each
row of points) on its ``2n`` neighbours at the steps ``step_scale *
cbrt(machine epsilon) * max(1, |coordinate|)``, the standard
second-order choice, evaluates the function once on all those rows and
returns the value at the point together with the central quotients.
:func:`jacobian` is its Jacobian part.
:func:`damped_newton` is the one Newton iteration, on a batch of rows:
the steady state and the transformed initial condition are batches of
one, and the next-period solve of a model nonlinear in next-period
variables takes all points of a remainder call at once.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

Array = np.ndarray

_BASE_STEP = float(np.cbrt(np.finfo(float).eps))


def value_and_jacobian(
    func: Callable[[Array], Array], x: Array, step_scale: float = 1.0
) -> tuple[Array, Array]:
    """The value of ``func`` at the point ``x`` or at each row of ``x``, and its Jacobian there.

    ``func`` maps ``(K, n)`` rows to ``(K, m)`` rows and is called once,
    on ``x`` stacked on its ``2n`` central-difference neighbours: the rows
    of ``x`` first, then ``x`` moved by ``+h_0``, by ``-h_0``, by
    ``+h_1``, ... as blocks of the same rows, so stacked row ``r`` belongs
    to row ``r mod N`` of ``x``.  Column ``i`` of the Jacobian is the
    quotient ``(f(x + h_i e_i) - f(x - h_i e_i)) / 2 h_i``.  For a point
    ``x`` of length ``n`` returns the value ``(m,)`` and the Jacobian
    ``(m, n)``; for ``x`` of shape ``(N, n)`` the values ``(N, m)`` and
    the Jacobians ``(N, m, n)``.  ``func`` must be evaluable in a
    neighborhood of ``x``.
    """
    x = np.asarray(x, dtype=float)
    n, lead = x.shape[-1], x.shape[:-1]
    h = step_scale * _BASE_STEP * np.maximum(1.0, np.abs(x))
    X = np.empty((1 + 2 * n,) + x.shape)
    X[...] = x
    for i in range(n):
        X[1 + 2 * i, ..., i] += h[..., i]
        X[2 + 2 * i, ..., i] -= h[..., i]
    F = np.asarray(func(X.reshape((1 + 2 * n) * math.prod(lead), n)), dtype=float)
    F = F.reshape((1 + 2 * n,) + lead + F.shape[1:])
    q = (F[1::2] - F[2::2]) / (2.0 * h.T[..., None])
    return F[0], q.transpose(*range(1, q.ndim), 0)


def jacobian(func: Callable[[Array], Array], x: Array, step_scale: float = 1.0) -> Array:
    """The Jacobian part of :func:`value_and_jacobian`: one ``func`` call on the stacked rows."""
    return value_and_jacobian(func, x, step_scale)[1]


def _row_norms(R: Array) -> Array:
    # one dot product per row: bitwise the norm each row gets alone
    return np.sqrt(np.matmul(R[:, None, :], R[:, :, None])[:, 0, 0])


def damped_newton(
    evaluate: Callable[[Array, Array], tuple[Array, Array]], X: Array, tol, max_iter: int,
) -> tuple[Array, Array, dict[int, tuple[str, float, Exception | None]]]:
    """Damped Newton iteration on each row of ``X``; returns the roots, their norms and the failures.

    ``evaluate(P, rows)`` returns the residuals ``(k, m)`` and Jacobians
    ``(k, m, n)`` at the points ``P`` (``(k, n)``) tried for the rows
    ``rows`` of ``X``.  Each row solves ``J step = -r``, halves the step
    (up to 30 times) until its residual norm decreases, and stops once the
    norm is at most ``tol`` (scalar or per row), also on the last of the
    ``max_iter`` steps.  The rows still searching are kept compacted and
    evaluated together, and a row's arithmetic does not depend on the
    others, so it gives bitwise the root it gives alone.  A converged row
    was last evaluated at the root it returns.  Nothing is raised: a row
    fails as ``"undefined at the start"`` (its starting residual is not
    finite, so it lies outside the residual's domain), ``"undefined"``
    (non-finite Jacobian), ``"singular"``, ``"stalled"`` (no halved step
    reduces the norm) or ``"max_iter"``, and ``failures[row]`` is
    ``(reason, last norm, cause)``, the cause being the ``LinAlgError`` of a
    singular row and ``None`` otherwise.  A failed row is returned as it
    started, with norm NaN; the caller decides whether to raise.
    """
    X = np.array(X, dtype=float)
    R, J = evaluate(X, np.arange(X.shape[0]))
    norm = np.where(np.isfinite(R).all(axis=1), _row_norms(R), np.nan)
    failures = {}
    # the rows still searching: indexes, points, residuals, Jacobians, norms, tolerances
    act = [np.arange(X.shape[0]), X.copy(), R, J, norm, np.broadcast_to(tol, X.shape[:1])]

    def leave(out: Array, reason: str | None = None, cause=None) -> int:  # the rows left
        if out.any():  # write converged rows back or record failed ones, then drop them
            rows = act[0][out]
            if reason:
                failures.update((int(j), (reason, float(n), cause)) for j, n in zip(rows, act[4][out]))
                norm[rows] = np.nan
            else:
                X[rows], norm[rows] = act[1][out], act[4][out]
            act[:] = [a[~out] for a in act]
        return act[0].size

    leave(np.isnan(norm), "undefined at the start")
    for _ in range(max_iter):
        leave(~(act[4] > act[5]))  # converged
        if not leave(~np.isfinite(act[3]).all(axis=(1, 2)), "undefined"):
            break
        try:
            steps = np.linalg.solve(act[3], -act[2][:, :, None])[..., 0]
        except np.linalg.LinAlgError as exc:  # the rows whose LU has a zero pivot leave
            if not leave(np.linalg.slogdet(act[3])[0] == 0.0, "singular", exc):
                break
            steps = np.linalg.solve(act[3], -act[2][:, :, None])[..., 0]
        rows, x, r, jac, nrm, _ = act
        at, damping = slice(None), 1.0  # the rows still halving (all at first) share their damping
        for _ in range(30):
            trial = x[at] + damping * steps
            trial_R, trial_J = evaluate(trial, rows[at])
            trial_norm = _row_norms(trial_R)
            better = np.isfinite(trial_norm) & (trial_norm < nrm[at])
            if better.all():
                x[at], r[at], jac[at], nrm[at] = trial, trial_R, trial_J, trial_norm
                break
            at = np.arange(rows.size)[at]
            for a, t in zip((x, r, jac, nrm), (trial, trial_R, trial_J, trial_norm)):
                a[at[better]] = t[better]
            at, steps, damping = at[~better], steps[~better], 0.5 * damping
        else:
            leave(np.isin(np.arange(rows.size), at), "stalled")
    leave(~(act[4] > act[5]))
    leave(np.ones(act[0].size, bool), "max_iter")
    return X, norm, failures
