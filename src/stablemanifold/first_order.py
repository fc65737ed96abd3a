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

from ._numdiff import central_stencil, damped_newton, jacobian_richardson, stencil_jacobian
from .exceptions import InnerSolveError, SingularSystemError, TransformBuildError
from .model import (
    DerivativeBlocks,
    ModelSpec,
    SteadyState,
    numeric_derivatives,
    residual_columns,
)

Array = np.ndarray

_COND_LIMIT = 1e12
_ORIGIN_TOL = 1e-8  # the remainder and its Jacobian must vanish at the origin within this


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
        domain (non-finite residual) map to NaN.  For a model not declared
        ``linear_in_next`` it solves for the next-period variables of all
        points together by one batched damped Newton iteration, and
        raises :class:`InnerSolveError` naming the first point whose solve
        fails.
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
) -> FirstOrderSystem:
    """Build the first-order system for a model at its steady state.

    The lead matrix stacks an identity block for the exogenous states over
    the residual derivatives with respect to next-period variables; it
    must be invertible.  The returned nonlinear map is exactly the model
    dynamics minus the linear prediction: for models declared linear in
    next-period variables it is evaluated directly, otherwise each call
    runs one damped Newton solve for the next-period variables of all its
    points (started from the linear prediction, which is accurate to
    second order).

    Raises
    ------
    SingularSystemError
        If the lead matrix is numerically singular.  Such models would
        need a generalized (pencil) decomposition, which is unsupported.
    TransformBuildError
        If the remainder fails its origin checks (value and Jacobian below
        1e-8), which usually signals a bad steady state.
    """
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

    # one LU solve gives K = phi^-1 gamma and, for the linear remainder,
    # phi^-1 [0; -I]
    n_eq = model.n_eq
    rhs = [gamma]
    if model.linear_in_next:
        rhs.append(np.vstack([np.zeros((n_z, n_eq)), -np.eye(n_eq)]))
    solved = np.linalg.solve(phi, np.hstack(rhs))
    K = solved[:, :n_w]

    y_bar, x_bar = ss.y_bar, ss.x_bar
    f2, f4, f5 = derivs.f2, derivs.f4, derivs.f5
    dims = (n_z, n_x, n_y)

    if model.linear_in_next:
        # N(w) = phi^-1 [0; -remainder], with phi^-1 [0; -I] formed once
        solve_rem = solved[:, n_w:]
        # the steady state as read-only columns: a residual that writes into
        # its next-period arguments raises instead of corrupting it
        y_col, x_col = y_bar[:, None], x_bar[:, None]
        y_col.flags.writeable = x_col.flags.writeable = False

        def nonlinear(w: Array) -> Array:
            w = np.asarray(w, dtype=float)
            cols = w.reshape(-1, n_w).T  # component-first: one column per point
            n = cols.shape[1]
            z, x_dev, y_dev = _split_w(cols, dims)
            if n == 1:
                y_next, x_next = y_col, x_col
            else:
                y_next, x_next = y_col.repeat(n, axis=1), x_col.repeat(n, axis=1)
                y_next.flags.writeable = x_next.flags.writeable = False
            res = residual_columns(model, y_next, y_col + y_dev, x_next, x_col + x_dev, z)
            out = (solve_rem @ (res - (f2 @ y_dev + f4 @ x_dev + f5 @ z))).T
            finite = np.isfinite(res)
            if not finite.all():
                out[~finite.all(axis=0)] = np.nan  # outside the model's domain
            return out if w.ndim == 2 else out[0]

    else:
        n_q = n_x + n_y
        messages = {
            "undefined": "undefined Jacobian in the next-period solve (residual {:.3e})",
            "singular": "singular Jacobian in the next-period solve",
            "stalled": "next-period solve stalled at residual {:.3e}",
            "max_iter": "next-period solve did not converge (residual {:.3e})",
        }

        def nonlinear(w: Array) -> Array:
            w = np.asarray(w, dtype=float)
            W = w.reshape(-1, n_w)
            z, x_dev, y_dev = _split_w(W.T, dims)  # component-first: one column per point
            y, x = y_bar[:, None] + y_dev, x_bar[:, None] + x_dev
            # one matrix-vector product per row, bitwise K @ w of the row alone
            lin_next = np.matmul(K, W[:, :, None])[..., 0]

            def evaluate(Q: Array, rows: Array) -> tuple[Array, Array]:
                # each point with its stencil in one call, so a single point is a
                # batch too and rounds as it does among other rows
                stencil, h = central_stencil(Q)
                P = np.concatenate([Q[None], stencil]).reshape(-1, n_q).T
                cols = np.tile(rows, 1 + 2 * n_q)
                res = residual_columns(model, y_bar[:, None] + P[n_x:], y[:, cols],
                                       x_bar[:, None] + P[:n_x], x[:, cols], z[:, cols])
                F = res.T.reshape(1 + 2 * n_q, rows.size, model.n_eq)
                return F[0], stencil_jacobian(F[1:], h)

            def error(reason: str, norm: float, row: int) -> InnerSolveError:
                return InnerSolveError(messages[reason].format(norm), point=W[row].copy())

            tol = 1e-12 * (1.0 + np.linalg.norm(W, axis=1))
            nxt, norm = damped_newton(evaluate, lin_next[:, n_z:], tol, 50, error)
            exo_next = np.matmul(model.lambda_mat, W[:, :n_z, None])[..., 0]
            out = np.hstack([exo_next, nxt]) - lin_next
            out[np.isnan(norm)] = np.nan  # outside the model's domain
            return out if w.ndim == 2 else out[0]

    origin = nonlinear(np.zeros(n_w))
    if np.linalg.norm(origin) > _ORIGIN_TOL:
        raise TransformBuildError(
            f"nonlinear remainder at the origin has norm "
            f"{np.linalg.norm(origin):.3e} > {_ORIGIN_TOL:.1e}; "
            "check the steady state"
        )
    origin_jac = jacobian_richardson(nonlinear, np.zeros(n_w))
    if origin_jac.size and np.max(np.abs(origin_jac)) > _ORIGIN_TOL:
        raise TransformBuildError(
            f"nonlinear remainder has Jacobian {np.max(np.abs(origin_jac)):.3e} "
            f"> {_ORIGIN_TOL:.1e} at the origin; check the derivative blocks"
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
