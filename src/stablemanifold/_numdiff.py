"""Central-difference Jacobians and the damped Newton solver shared across the package.

Every difference Jacobian in the package comes from one stencil:
:func:`central_stencil` places the ``2n`` neighbours of a point (or of
each row of points) at the steps ``step_scale * cbrt(machine epsilon) *
max(1, |coordinate|)``, the standard second-order choice, and
:func:`stencil_jacobian` takes the central quotients of the values
there.  :func:`jacobian` evaluates a function on that stencil; callers
that evaluate points in batches stack a point on its stencil instead.
:func:`damped_newton` is the one Newton iteration used for the steady
state, the next-period solve of models nonlinear in next-period
variables, and the transformed initial condition.
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


def damped_newton(
    residual: Callable[[Array], Array], jacobian: Callable[[Array], Array], x: Array,
    tol: float, max_iter: int, error: Callable[[str, float], Exception], res: Array | None = None,
) -> tuple[Array, float]:
    """Damped Newton iteration for ``residual(x) = 0``; returns the root and its residual norm.

    Each step solves ``jacobian(x) @ step = -residual(x)`` and is halved (up
    to 30 times) until the residual norm decreases.  The iteration stops once
    the norm is at most ``tol``, also when that happens on the last of the
    ``max_iter`` steps.  ``res`` is the residual at the start ``x`` when the
    caller already has it.  Failures raise ``error(reason, norm)`` with
    reason ``"singular"`` (singular Jacobian), ``"stalled"`` (no halved step
    reduces the norm) or ``"max_iter"``, and the norm of the last iterate.
    """
    if res is None:
        res = residual(x)
    norm = float(np.linalg.norm(res))
    for _ in range(max_iter):
        if norm <= tol:
            break
        jac = jacobian(x)
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise error("singular", norm) from exc
        damping = 1.0
        for _ in range(30):
            trial = x + damping * step
            trial_res = residual(trial)
            trial_norm = float(np.linalg.norm(trial_res))
            if np.isfinite(trial_norm) and trial_norm < norm:
                break
            damping *= 0.5
        else:
            raise error("stalled", norm)
        x, res, norm = trial, trial_res, trial_norm
    if not norm <= tol:
        raise error("max_iter", norm)
    return x, norm
