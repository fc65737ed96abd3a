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
    error: Callable[[str, float, int], Exception],
) -> tuple[Array, Array]:
    """Damped Newton iteration on each row of ``X``; returns the roots and their residual norms.

    ``evaluate(P, rows)`` returns the residuals ``(k, m)`` and Jacobians
    ``(k, m, n)`` at the points ``P`` (``(k, n)``) tried for the rows
    ``rows`` of ``X``.  Each row solves ``J step = -r``, halves the step
    (up to 30 times) until its residual norm decreases, and stops once the
    norm is at most ``tol`` (scalar or per row), also on the last of the
    ``max_iter`` steps.  The rows still searching are evaluated together,
    and a row's arithmetic does not depend on the others, so it gives
    bitwise the root it gives alone.  A row whose starting residual is not
    finite lies outside the residual's domain and is returned as it is,
    with norm NaN.  Once all rows are done, the first failed row raises
    ``error(reason, norm, row)``: ``"undefined"`` (non-finite Jacobian),
    ``"singular"``, ``"stalled"`` (no halved step reduces the norm) or
    ``"max_iter"``, with the row's last norm.
    """
    X = np.array(X, dtype=float)
    tol = np.broadcast_to(tol, X.shape[:1])
    R, J = evaluate(X, np.arange(X.shape[0]))
    norm = np.where(np.isfinite(R).all(axis=1), _row_norms(R), np.nan)
    failed = {}  # row -> (reason, cause)
    active = np.flatnonzero(~np.isnan(norm))
    for _ in range(max_iter):
        active = active[~(norm[active] <= tol[active])]
        undefined = ~np.isfinite(J[active]).all(axis=(1, 2))
        if undefined.any():
            failed.update((j, ("undefined", None)) for j in active[undefined])
            active = active[~undefined]
        try:
            steps = np.linalg.solve(J[active], -R[active, :, None])[..., 0]
        except np.linalg.LinAlgError:  # some Jacobian is singular: solve row by row to find it
            steps, solved = np.empty((active.size, X.shape[1])), np.ones(active.size, bool)
            for i, j in enumerate(active):
                try:
                    steps[i] = np.linalg.solve(J[j], -R[j])
                except np.linalg.LinAlgError as exc:
                    failed[j], solved[i] = ("singular", exc), False
            active, steps = active[solved], steps[solved]
        if not active.size:
            break
        rows, damping = active, 1.0  # the rows still searching share their damping
        for _ in range(30):
            trial = X[rows] + damping * steps
            trial_R, trial_J = evaluate(trial, rows)
            trial_norm = _row_norms(trial_R)
            better = np.isfinite(trial_norm) & (trial_norm < norm[rows])
            done = rows[better]
            X[done], R[done], J[done], norm[done] = (
                trial[better], trial_R[better], trial_J[better], trial_norm[better]
            )
            if better.all():
                break
            rows, steps, damping = rows[~better], steps[~better], 0.5 * damping
        else:
            failed.update((j, ("stalled", None)) for j in rows)
            active = active[~np.isin(active, rows)]
    failed.update((j, ("max_iter", None)) for j in active[~(norm[active] <= tol[active])])
    if failed:
        j = min(failed)
        reason, cause = failed[j]
        raise error(reason, float(norm[j]), int(j)) from cause
    return X, norm
