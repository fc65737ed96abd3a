"""Central-difference Jacobians and the damped Newton solver shared across the package.

The difference step follows the standard second-order choice
``cbrt(machine epsilon) * max(1, |coordinate|)``.  :func:`damped_newton`
is the one Newton iteration used for the steady state, the next-period
solve of models nonlinear in next-period variables, and the transformed
initial condition.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

_BASE_STEP = float(np.cbrt(np.finfo(float).eps))


def steps_for(x: Array, step_scale: float = 1.0) -> Array:
    """Per-coordinate central-difference steps for a point (or rows of points) `x`."""
    x = np.asarray(x, dtype=float)
    return step_scale * _BASE_STEP * np.maximum(1.0, np.abs(x))


def jacobian(func: Callable[[Array], Array], x: Array, step_scale: float = 1.0) -> Array:
    """Central-difference Jacobian of ``func`` at the point ``x`` or at each row of ``x``.

    For a 1-D ``x`` of length ``n`` returns an array of shape ``(m, n)``
    with ``m = len(func(x))``.  For ``x`` of shape ``(N, n)``, ``func``
    must map ``(N, n)`` rows to ``(N, m)`` rows; coordinate ``i`` of every
    row is perturbed in the same call and the result has shape
    ``(N, m, n)``, row ``j`` being the Jacobian at ``x[j]``.  ``func`` must
    be evaluable in a neighborhood of ``x``.
    """
    x = np.asarray(x, dtype=float)
    h = steps_for(x, step_scale)
    cols = []
    for i in range(x.shape[-1]):
        e = np.zeros_like(x)
        e[..., i] = h[..., i]
        f_plus = np.asarray(func(x + e), dtype=float)
        f_minus = np.asarray(func(x - e), dtype=float)
        cols.append((f_plus - f_minus) / (2.0 * h[..., i, None]))
    if not cols:
        probe = np.asarray(func(x), dtype=float)
        return np.zeros(probe.shape + (0,))
    return np.stack(cols, axis=-1)


def central_stencil(x: Array) -> tuple[Array, Array]:
    """The point ``x`` and its central-difference neighbours as rows, with the steps.

    For ``x`` of length ``n`` returns ``(X, h)`` with ``X`` of shape
    ``(1 + 2n, n)``: row 0 is ``x``, rows ``2i + 1`` and ``2i + 2`` are
    ``x`` with ``h[i]`` added to and subtracted from coordinate ``i``.
    These are the points :func:`jacobian` evaluates, so a function that
    takes rows can be evaluated at a point and at its stencil in one call.
    """
    x = np.asarray(x, dtype=float)
    h = steps_for(x)
    X = np.tile(x, (1 + 2 * x.size, 1))
    i = np.arange(x.size)
    X[2 * i + 1, i] += h
    X[2 * i + 2, i] -= h
    return X, h


def stencil_jacobian(F: Array, h: Array) -> Array:
    """The ``(m, n)`` central-difference Jacobian from the values ``F`` at :func:`central_stencil` rows.

    ``F`` has shape ``(1 + 2n, m)``; the result is the one :func:`jacobian`
    gives for a function with those values.
    """
    return ((F[1::2] - F[2::2]) / (2.0 * h[:, None])).T


def jacobian_richardson(func: Callable[[Array], Array], x: Array) -> Array:
    """Fourth-order Jacobian by Richardson extrapolation of central differences.

    Used where a check needs materially more accuracy than the production
    second-order stencil, e.g. verifying that a Jacobian vanishes.
    """
    coarse = jacobian(func, x, step_scale=1.0)
    fine = jacobian(func, x, step_scale=0.5)
    return (4.0 * fine - coarse) / 3.0


def jacobian_arg(
    func: Callable[..., Array],
    args: Sequence[Array],
    argnum: int,
    step_scale: float = 1.0,
) -> Array:
    """Central-difference Jacobian of ``func`` w.r.t. its ``argnum``-th argument."""
    frozen = [np.asarray(a, dtype=float) for a in args]

    def partial(x: Array) -> Array:
        call_args = list(frozen)
        call_args[argnum] = x
        return np.asarray(func(*call_args), dtype=float)

    return jacobian(partial, frozen[argnum], step_scale)


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
