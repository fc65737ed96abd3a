"""Central-difference Jacobians and the damped Newton solver shared across the package.

Every difference Jacobian in the package comes from one stencil:
:func:`central_stencil` places the ``2n`` neighbours of a point (or of
each row of points) at the steps ``step_scale * cbrt(machine epsilon) *
max(1, |coordinate|)``, the standard second-order choice, and
:func:`stencil_jacobian` takes the central quotients of the values
there.  :func:`jacobian` evaluates a function on that stencil; callers
that evaluate points in batches stack a point on its stencil instead.
:func:`damped_newton` is the one Newton iteration, on a batch of rows:
the steady state and the transformed initial condition are batches of
one, and the next-period solve of a model nonlinear in next-period
variables takes all points of a remainder call at once.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

Array = np.ndarray

_BASE_STEP = float(np.cbrt(np.finfo(float).eps))


def central_stencil(x: Array, step_scale: float = 1.0) -> tuple[Array, Array]:
    """The central-difference neighbours of the point ``x`` or of each row of ``x``, with the steps.

    For ``x`` of shape ``(n,)`` or ``(N, n)`` returns ``(X, h)``: ``h`` has
    the shape of ``x`` and ``X`` has shape ``(2n,) + x.shape``, where
    ``X[2i]`` and ``X[2i + 1]`` are ``x`` with ``h[..., i]`` added to and
    subtracted from coordinate ``i``.  ``x`` itself is not among them.
    """
    x = np.asarray(x, dtype=float)
    h = step_scale * _BASE_STEP * np.maximum(1.0, np.abs(x))
    X = np.empty((2 * x.shape[-1],) + x.shape)
    X[...] = x
    for i in range(x.shape[-1]):
        X[2 * i, ..., i] += h[..., i]
        X[2 * i + 1, ..., i] -= h[..., i]
    return X, h


def stencil_jacobian(F: Array, h: Array) -> Array:
    """The central-difference Jacobian from the values ``F`` at the :func:`central_stencil` rows ``X``.

    ``F[k]`` is the value at ``X[k]`` and ``h`` the steps.  For a point
    with values of shape ``(m,)`` the result has shape ``(m, n)``; for
    ``N`` rows with values ``(N, m)`` it has shape ``(N, m, n)``, row ``j``
    being the Jacobian at row ``j``.
    """
    q = (F[0::2] - F[1::2]) / (2.0 * h.T[..., None])
    return q.transpose(*range(1, q.ndim), 0)


def jacobian(func: Callable[[Array], Array], x: Array, step_scale: float = 1.0) -> Array:
    """Central-difference Jacobian of ``func`` at the point ``x`` or at each row of ``x``.

    For a 1-D ``x`` of length ``n`` returns an array of shape ``(m, n)``
    with ``m = len(func(x))``.  For ``x`` of shape ``(N, n)``, ``func``
    must map ``(N, n)`` rows to ``(N, m)`` rows; coordinate ``i`` of every
    row is perturbed in the same call and the result has shape
    ``(N, m, n)``, row ``j`` being the Jacobian at ``x[j]``.  ``func`` is
    called once per :func:`central_stencil` neighbour, in their order
    (once at ``x`` when ``n = 0``, for the shape of the result), and must
    be evaluable in a neighborhood of ``x``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] == 0:
        return np.zeros(np.shape(func(x)) + (0,))
    X, h = central_stencil(x, step_scale)
    F = np.array([func(row) for row in X], dtype=float)
    return stencil_jacobian(F, h)


def jacobian_richardson(func: Callable[[Array], Array], x: Array) -> Array:
    """Fourth-order Jacobian by Richardson extrapolation of central differences.

    Used where a check needs materially more accuracy than the production
    second-order stencil, e.g. verifying that a Jacobian vanishes.
    """
    coarse = jacobian(func, x, step_scale=1.0)
    fine = jacobian(func, x, step_scale=0.5)
    return (4.0 * fine - coarse) / 3.0


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
