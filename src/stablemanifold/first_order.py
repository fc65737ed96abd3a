"""Assembly of the stacked first-order system ``w_next = K w + N(w)``.

The stacked deviation vector is ``w = (z, x_dev, y_dev)`` with the
exogenous block first.  The linear part is obtained by inverting the lead
matrix of the linearized equilibrium conditions; the nonlinear remainder
``N`` vanishes at the origin together with its first derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from ._numdiff import damped_newton, jacobian, jacobian_richardson
from .exceptions import InnerSolveError, SingularSystemError, TransformBuildError
from .model import (
    DerivativeBlocks,
    ModelSpec,
    SteadyState,
    eval_residual,
    numeric_derivatives,
    residual_columns,
)

Array = np.ndarray

_COND_LIMIT = 1e12


@dataclass
class FirstOrderSystem:
    """First-order vector form of a model around its steady state.

    Attributes
    ----------
    K : Array, shape (n_w, n_w)
        Transition matrix of the linear part, ``n_w = n_z + n_x + n_y``.
    nonlinear : callable
        ``nonlinear(w) -> Array`` evaluating the stacked nonlinear
        remainder; zero with zero Jacobian at the origin.  ``w`` is one
        point ``(n_w,)`` or a batch ``(N, n_w)`` of points as rows, and
        the result has the same shape.  Points outside the model's
        domain (non-finite residual) map to NaN.
    phi, gamma : Array
        Lead and lag coefficient matrices with ``phi @ K == gamma``.
    ss : SteadyState
    dims : tuple
        ``(n_z, n_x, n_y)``.
    derivs : DerivativeBlocks
        Steady-state Jacobian blocks used in the assembly.
    """

    K: Array
    nonlinear: Callable[[Array], Array]
    phi: Array
    gamma: Array
    ss: SteadyState
    dims: tuple[int, int, int]
    derivs: DerivativeBlocks
    lambda_mat: Array

    @property
    def n_w(self) -> int:
        return self.K.shape[0]


def _split_w(w: Array, dims: tuple[int, int, int]) -> tuple[Array, Array, Array]:
    n_z, n_x, _ = dims
    return w[:n_z], w[n_z : n_z + n_x], w[n_z + n_x :]


def build_first_order(
    model: ModelSpec,
    ss: SteadyState,
    derivs: DerivativeBlocks | None = None,
    origin_tol: float = 1e-8,
) -> FirstOrderSystem:
    """Build the first-order system for a model at its steady state.

    The lead matrix stacks an identity block for the exogenous states over
    the residual derivatives with respect to next-period variables; it
    must be invertible.  The returned nonlinear map is exactly the model
    dynamics minus the linear prediction: for models declared linear in
    next-period variables it is evaluated directly, otherwise each call
    runs an inner Newton solve for the next-period variables (started from
    the linear prediction, which is accurate to second order).

    Raises
    ------
    SingularSystemError
        If the lead matrix is numerically singular.  Such models would
        need a generalized (pencil) decomposition, which is unsupported.
    TransformBuildError
        If the remainder fails its origin checks (value and Jacobian below
        ``origin_tol``), which usually signals a bad steady state.
    """
    if derivs is None:
        derivs = numeric_derivatives(model, ss)
    n_z, n_x, n_y = model.n_z, model.n_x, model.n_y
    n_w = n_z + n_x + n_y
    lead = np.hstack([derivs.f3, derivs.f1])  # (n_eq, n_x + n_y)

    phi = np.zeros((n_w, n_w))
    phi[:n_z, :n_z] = np.eye(n_z)
    phi[n_z:, n_z:] = lead
    cond = np.linalg.cond(phi) if n_w else 1.0
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularSystemError(
            "lead matrix of the first-order system is singular "
            f"(condition number {cond:.3e}); generalized eigenvalue "
            "decompositions for singular lead matrices are not supported"
        )

    gamma = np.zeros((n_w, n_w))
    gamma[:n_z, :n_z] = model.lambda_mat
    gamma[n_z:, :n_z] = -derivs.f5
    gamma[n_z:, n_z : n_z + n_x] = -derivs.f4
    gamma[n_z:, n_z + n_x :] = -derivs.f2

    phi_lu = lu_factor(phi)
    K = lu_solve(phi_lu, gamma)

    y_bar, x_bar = ss.y_bar, ss.x_bar
    f2, f4, f5 = derivs.f2, derivs.f4, derivs.f5
    dims = (n_z, n_x, n_y)

    if model.linear_in_next:
        # N(w) = phi^-1 [0; -remainder], with phi^-1 [0; -I] formed once
        n_eq = model.n_eq
        solve_rem = lu_solve(phi_lu, np.vstack([np.zeros((n_z, n_eq)), -np.eye(n_eq)]))

        def nonlinear(w: Array) -> Array:
            w = np.asarray(w, dtype=float)
            cols = w.reshape(-1, n_w).T  # component-first: one column per point
            n = cols.shape[1]
            z, x_dev, y_dev = _split_w(cols, dims)
            res = residual_columns(
                model,
                np.repeat(y_bar[:, None], n, axis=1),
                y_bar[:, None] + y_dev,
                np.repeat(x_bar[:, None], n, axis=1),
                x_bar[:, None] + x_dev,
                z,
            )
            out = (solve_rem @ (res - (f2 @ y_dev + f4 @ x_dev + f5 @ z))).T
            out[~np.all(np.isfinite(res), axis=0)] = np.nan  # outside the model's domain
            return out if w.ndim == 2 else out[0]

    else:

        def solve_next(w: Array) -> Array:
            z, x_dev, y_dev = _split_w(w, dims)
            lin_next = K @ w
            nxt = lin_next[n_z:].copy()  # stacked (x_next, y_next) deviations

            def step_residual(q: Array) -> Array:
                return eval_residual(
                    model,
                    y_bar + q[n_x:],
                    y_bar + y_dev,
                    x_bar + q[:n_x],
                    x_bar + x_dev,
                    z,
                )

            res = step_residual(nxt)
            if not np.all(np.isfinite(res)):
                return np.full(n_w, np.nan)  # outside the model's domain

            def error(reason: str, norm: float) -> InnerSolveError:
                message = {
                    "singular": "singular Jacobian in the next-period solve",
                    "stalled": f"next-period solve stalled at residual {norm:.3e}",
                    "max_iter": f"next-period solve did not converge (residual {norm:.3e})",
                }[reason]
                return InnerSolveError(message, point=w)

            tol = 1e-12 * (1.0 + float(np.linalg.norm(w)))
            nxt, _ = damped_newton(
                step_residual, lambda q: jacobian(step_residual, q), nxt, tol, 50, error, res
            )
            w_next = np.concatenate([model.lambda_mat @ z, nxt])
            return w_next - lin_next

        def nonlinear(w: Array) -> Array:
            w = np.asarray(w, dtype=float)
            rows = w.reshape(-1, n_w)
            out = np.empty(rows.shape)
            for j, row in enumerate(rows):
                out[j] = solve_next(row)
            return out if w.ndim == 2 else out[0]

    origin = nonlinear(np.zeros(n_w))
    if np.linalg.norm(origin) > origin_tol:
        raise TransformBuildError(
            f"nonlinear remainder at the origin has norm "
            f"{np.linalg.norm(origin):.3e} > {origin_tol:.1e}; "
            "check the steady state"
        )
    origin_jac = jacobian_richardson(nonlinear, np.zeros(n_w))
    if origin_jac.size and np.max(np.abs(origin_jac)) > origin_tol:
        raise TransformBuildError(
            f"nonlinear remainder has Jacobian {np.max(np.abs(origin_jac)):.3e} "
            f"> {origin_tol:.1e} at the origin; check the derivative blocks"
        )
    residual_gap = np.max(np.abs(phi @ K - gamma)) if n_w else 0.0
    if residual_gap > 1e-10:
        raise TransformBuildError(
            f"lead/lag factorization residual {residual_gap:.3e} exceeds 1e-10"
        )

    return FirstOrderSystem(
        K=K,
        nonlinear=nonlinear,
        phi=phi,
        gamma=gamma,
        ss=ss,
        dims=dims,
        derivs=derivs,
        lambda_mat=model.lambda_mat,
    )
