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

from ._numdiff import damped_newton, jacobian, value_and_jacobian
from .exceptions import SingularSystemError, TransformBuildError
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


def _check_origin(
    func: Callable[[Array], Array],
    n: int,
    value_message: Callable[[Array], str],
    jacobian_message: Callable[[float], str],
) -> None:
    """Raise :class:`TransformBuildError` unless ``func`` and its Jacobian vanish at the origin.

    ``func`` maps a point of length ``n`` to a vector and rows ``(K, n)``
    to rows.  The value is checked first, with ``func`` called on the
    origin alone; then the Jacobian, as the fourth-order Richardson
    extrapolation of the central differences at the production step and
    at half of it, materially more accurate than the production stencil.
    ``value_message(value)`` and ``jacobian_message(largest entry)`` give
    the error text.  A NaN value or Jacobian entry fails as a large one
    does: NaN is how the remainder marks a point where it has no value.
    """
    origin = np.zeros(n)
    value = func(origin)
    if not np.linalg.norm(value) <= _ORIGIN_TOL:  # NaN included
        raise TransformBuildError(value_message(value))
    coarse, fine = (jacobian(func, origin, step_scale) for step_scale in (1.0, 0.5))
    largest = np.max(np.abs((4.0 * fine - coarse) / 3.0), initial=0.0)
    if not largest <= _ORIGIN_TOL:
        raise TransformBuildError(jacobian_message(largest))


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
        domain map to NaN rows.  For a model not declared
        ``linear_in_next`` it solves for the next-period variables of all
        points together by one batched damped Newton iteration, and a
        point whose solve fails is outside the domain too: its row is NaN
        and nothing is raised, so each caller reports it where it stands.
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
    second order).  A point whose residual is not finite, or whose
    next-period solve fails, maps to a NaN row.

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
        y_col, x_col = y_bar[:, None], x_bar[:, None]

        def nonlinear(w: Array) -> Array:
            w = np.asarray(w, dtype=float)
            cols = w.reshape(-1, n_w).T  # component-first: one column per point
            n = cols.shape[1]
            z, x_dev, y_dev = _split_w(cols, dims)
            # the steady state as read-only columns: a residual that writes into
            # its next-period arguments raises
            y_next, x_next = y_col.repeat(n, axis=1), x_col.repeat(n, axis=1)
            y_next.flags.writeable = x_next.flags.writeable = False
            res = residual_columns(model, y_next, y_col + y_dev, x_next, x_col + x_dev, z)
            out = (solve_rem @ (res - (f2 @ y_dev + f4 @ x_dev + f5 @ z))).T
            finite = np.isfinite(res)
            if not finite.all():
                out[~finite.all(axis=0)] = np.nan  # outside the model's domain
            return out if w.ndim == 2 else out[0]

    else:
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
                def residual(P: Array) -> Array:
                    cols = np.tile(rows, P.shape[0] // rows.size)
                    return residual_columns(model, y_bar[:, None] + P[:, n_x:].T, y[:, cols],
                                            x_bar[:, None] + P[:, :n_x].T, x[:, cols],
                                            z[:, cols]).T

                return value_and_jacobian(residual, Q)

            tol = 1e-12 * (1.0 + np.linalg.norm(W, axis=1))
            nxt, norm, _ = damped_newton(evaluate, lin_next[:, n_z:], tol, 50)
            exo_next = np.matmul(model.lambda_mat, W[:, :n_z, None])[..., 0]
            out = np.hstack([exo_next, nxt]) - lin_next
            out[np.isnan(norm)] = np.nan  # outside the model's domain, or no next-period root
            return out if w.ndim == 2 else out[0]

    _check_origin(
        nonlinear, n_w,
        lambda value: f"nonlinear remainder at the origin has norm "
        f"{np.linalg.norm(value):.3e} > {_ORIGIN_TOL:.1e}; check the steady state",
        lambda largest: f"nonlinear remainder has Jacobian {largest:.3e} "
        f"> {_ORIGIN_TOL:.1e} at the origin; check the derivative blocks",
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
