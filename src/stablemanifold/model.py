"""Model interface, steady-state solver, and steady-state derivatives.

A model is a system of equilibrium conditions

    ``residual(y_next, y, x_next, x, z) = 0``,    ``z_next = lambda_mat @ z``

where ``x`` collects endogenous states, ``y`` the remaining endogenous
(control) variables, and ``z`` exogenous states that decay autonomously.
The residual returns ``n_y + n_x`` values: the first ``n_y`` entries are
the Euler-type conditions, the last ``n_x`` the state-transition
conditions.  All downstream machinery consumes a model exclusively
through this interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._numdiff import damped_newton, jacobian, value_and_jacobian
from .exceptions import (
    DimensionMismatchError,
    SingularJacobianError,
    SolverError,
    SteadyStateError,
)

Array = np.ndarray

ResidualFn = Callable[[Array, Array, Array, Array, Array], Array]
# Returns the five Jacobian blocks of the residual with respect to
# (y_next, y, x_next, x, z), evaluated at the given point.
JacobianProvider = Callable[
    [Array, Array, Array, Array, Array],
    tuple[Array, Array, Array, Array, Array],
]


@dataclass
class ModelSpec:
    """Specification of an equilibrium model.

    Parameters
    ----------
    n_x, n_y, n_z : int
        Counts of endogenous states, controls, and exogenous states.
    residual : callable
        ``residual(y_next, y, x_next, x, z)`` returning ``n_y + n_x``
        values (Euler-type conditions first, state transitions last).
        Batched evaluation passes component-first ``(n, N)`` arrays, so
        ``y[0]`` is a row of ``N`` values, and expects ``(n_y + n_x, N)``
        back.  A residual written with elementwise numpy on ``arg[i]``
        does this as written, and then gets every evaluation as one
        batch, a single point as one column; one whose batched value on
        two probe points differs from its per-point values (or raises)
        is evaluated one point at a time with 1-D arguments.
    lambda_mat : Array, shape (n_z, n_z)
        Autoregressive matrix of the exogenous states.  All its
        eigenvalues must lie strictly inside the unit circle.
    steady_guess : Array, shape (n_y + n_x,)
        Starting point ``[y, x]`` for the steady-state Newton solve.
    jacobians : callable or None
        Optional analytic provider returning the five Jacobian blocks of
        the residual at an arbitrary point.  When present it takes
        precedence over central differences.
    linear_in_next : bool
        Declare that the residual is linear in ``(y_next, x_next)``, so
        its nonlinear remainder involves current-period variables only
        and is evaluated directly, one residual call per batch of points.
        Other models get the next-period variables from a damped Newton
        solve run on all points of the batch at once; each Newton trial
        evaluates the points with their central-difference stencils in
        one residual call, so a batch costs two such calls when the
        residual is in fact linear in next-period variables, and one
        more per further Newton step.
    """

    n_x: int
    n_y: int
    n_z: int
    residual: ResidualFn
    lambda_mat: Array
    steady_guess: Array
    jacobians: JacobianProvider | None = None
    linear_in_next: bool = False

    def __post_init__(self) -> None:
        self.lambda_mat = np.asarray(self.lambda_mat, dtype=float).reshape(
            (self.n_z, self.n_z)
        )
        self.steady_guess = np.asarray(self.steady_guess, dtype=float).reshape(-1)
        if self.steady_guess.size != self.n_eq:
            raise DimensionMismatchError(
                f"steady_guess must have length n_y + n_x = {self.n_eq}, "
                f"got {self.steady_guess.size}"
            )
        if self.n_z > 0:
            spectral_radius = np.max(np.abs(np.linalg.eigvals(self.lambda_mat)))
            if spectral_radius >= 1.0:
                raise ValueError(
                    "exogenous transition matrix must have spectral radius < 1, "
                    f"got {spectral_radius:.6g}"
                )
        # two distinct points, one per column: the residual takes batches
        # when its value on both columns at once matches the per-column calls
        self._takes_batches = False  # the probe's per-column calls go one column at a time
        lo = self.steady_guess
        points = np.stack([lo, lo + 1e-3 * np.maximum(1.0, np.abs(lo))], axis=1)
        y, x = points[: self.n_y], points[self.n_y :]
        z = np.stack([np.zeros(self.n_z), np.full(self.n_z, 1e-3)], axis=1)
        column = lambda j: eval_residual(self, y[:, j], y[:, j], x[:, j], x[:, j], z[:, j])
        first = column(0)  # a residual that fails at the guess is a model error
        try:
            per_column = np.stack([first, column(1)], axis=1)
            with np.errstate(all="ignore"):
                batched = np.asarray(self.residual(y, y, x, x, z), dtype=float)
        except (ArithmeticError, TypeError, ValueError, IndexError):
            batched = per_column = None
        self._takes_batches = (
            batched is not None
            and batched.shape == per_column.shape
            and np.allclose(batched, per_column, rtol=1e-12, atol=1e-14, equal_nan=True)
        )

    @property
    def n_eq(self) -> int:
        """Number of equilibrium conditions (``n_y + n_x``)."""
        return self.n_y + self.n_x


@dataclass(frozen=True)
class SteadyState:
    """A root of the static system ``residual(y, y, x, x, 0) = 0``.

    Attributes
    ----------
    y_bar, x_bar : Array
        Steady-state controls and endogenous states.
    residual_norm : float
        Euclidean norm of the static residual at ``(y_bar, x_bar)``.
    """

    y_bar: Array
    x_bar: Array
    residual_norm: float

    @property
    def stacked(self) -> Array:
        """The steady state as one ``[y, x]`` vector."""
        return np.concatenate([self.y_bar, self.x_bar])


@dataclass(frozen=True)
class DerivativeBlocks:
    """Steady-state Jacobian blocks of the residual.

    ``f1`` through ``f5`` differentiate with respect to
    ``(y_next, y, x_next, x, z)`` in that order.
    """

    f1: Array
    f2: Array
    f3: Array
    f4: Array
    f5: Array


def _as_vector(value, size: int, name: str) -> Array:
    out = np.asarray(value, dtype=float).reshape(-1)
    if out.size != size:
        raise DimensionMismatchError(f"{name} must have length {size}, got {out.size}")
    return out


def eval_residual(
    model: ModelSpec, y_next, y, x_next, x, z
) -> Array:
    """Evaluate the equilibrium-condition residual at one point.

    Pure and deterministic; :func:`residual_columns` on one column, with
    the bits of that column in any batch.  Raises :class:`DimensionMismatchError`
    if any argument or the output violates the declared dimensions.
    """
    sizes = {"y_next": model.n_y, "y": model.n_y, "x_next": model.n_x, "x": model.n_x,
             "z": model.n_z}
    args = (_as_vector(value, size, name)[:, None]
            for value, (name, size) in zip((y_next, y, x_next, x, z), sizes.items()))
    return residual_columns(model, *args)[:, 0]


def residual_columns(
    model: ModelSpec, y_next: Array, y: Array, x_next: Array, x: Array, z: Array
) -> Array:
    """Residual at ``N`` points given as component-first ``(n, N)`` arrays.

    Every evaluation of a model's residual goes through here, except the
    batch probe of :class:`ModelSpec`.  Returns the ``(n_eq, N)`` array
    whose column ``j`` is the residual at the arguments' column ``j``.  A
    residual that passed the probe gets all columns in one call, a single
    column included (so ``y[0]`` is a row of ``N`` values); any other
    residual is evaluated column by column with 1-D arguments.  Raises
    :class:`DimensionMismatchError` if the output has the wrong shape.
    """
    n = y.shape[1]
    if model._takes_batches:
        out = np.asarray(model.residual(y_next, y, x_next, x, z), dtype=float)
        if out.shape != (model.n_eq, n):
            raise DimensionMismatchError(
                f"residual returned shape {out.shape} for {n} points, expected {(model.n_eq, n)}"
            )
        return out
    out = np.empty((model.n_eq, n))
    for j in range(n):
        value = model.residual(y_next[:, j], y[:, j], x_next[:, j], x[:, j], z[:, j])
        out[:, j] = _as_vector(value, model.n_eq, "residual")
    return out


def find_steady_state(
    model: ModelSpec, tol: float = 1e-12, max_iter: int = 50
) -> SteadyState:
    """Solve for the steady state by damped Newton iteration.

    Runs Newton's method on the static system from ``model.steady_guess``,
    halving the step (up to 30 times) whenever a full step fails to reduce
    the residual norm.  Without analytic Jacobians each point tried is
    evaluated together with its central-difference stencil in one
    :func:`residual_columns` call.

    Parameters
    ----------
    model : ModelSpec
    tol : float
        Absolute residual-norm target; must be positive.
    max_iter : int
        Newton iteration budget.

    Returns
    -------
    SteadyState

    Raises
    ------
    SteadyStateError
        If the iteration stalls or exhausts ``max_iter``; carries the last
        residual norm.
    SingularJacobianError
        If a Newton Jacobian is numerically singular.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    def error(reason: str, norm: float, row: int) -> SolverError:
        if reason == "singular":
            return SingularJacobianError(f"singular Newton Jacobian at residual norm {norm:.3e}")
        message = {
            "undefined": f"Newton Jacobian not finite at residual norm {norm:.3e}",
            "stalled": f"Newton stalled at residual norm {norm:.3e}",
            "max_iter": f"no convergence within {max_iter} iterations "
            f"(last residual norm {norm:.3e})",
        }[reason]
        return SteadyStateError(message, last_residual_norm=norm)

    n_y = model.n_y

    def static(P: Array) -> Array:
        # residual(y, y, x, x, 0) at the rows P = [y, x]
        y, x = P[:, :n_y].T, P[:, n_y:].T
        return residual_columns(model, y, y, x, x, np.zeros((model.n_z, P.shape[0]))).T

    def evaluate(P: Array, rows: Array) -> tuple[Array, Array]:
        if model.jacobians is None:
            return value_and_jacobian(static, P)
        y, x = P[0, :n_y], P[0, n_y:]
        blocks = model.jacobians(y, y, x, x, np.zeros(model.n_z))
        f1, f2, f3, f4, _ = (np.asarray(b) for b in blocks)
        return static(P), np.hstack([f1 + f2, f3 + f4])[None]

    roots, norms = damped_newton(evaluate, model.steady_guess[None], tol, max_iter, error)
    point, norm = roots[0], float(norms[0])
    if np.isnan(norm):  # the guess lies outside the residual's domain
        raise error("stalled", norm, 0)
    return SteadyState(
        y_bar=point[: model.n_y].copy(),
        x_bar=point[model.n_y :].copy(),
        residual_norm=norm,
    )


def numeric_derivatives(
    model: ModelSpec, ss: SteadyState, step_scale: float = 1.0
) -> DerivativeBlocks:
    """Jacobian blocks of the residual at the steady state.

    Uses the analytic provider when the model carries one, otherwise one
    central-difference Jacobian over the stacked arguments
    ``(y_next, y, x_next, x, z)``, with step
    ``step_scale * cbrt(eps) * max(1, |coordinate|)``, from one
    :func:`residual_columns` call on the point and its stencil.

    Parameters
    ----------
    model : ModelSpec
    ss : SteadyState
        Point of evaluation; should satisfy the static system within
        tolerance.
    step_scale : float
        Multiplier on the default finite-difference step (used by
        step-halving convergence checks).
    """
    args = (ss.y_bar, ss.y_bar, ss.x_bar, ss.x_bar, np.zeros(model.n_z))
    if model.jacobians is not None:
        blocks = model.jacobians(*args)
    else:
        bounds = np.cumsum([a.size for a in args])[:-1]
        residual = lambda W: residual_columns(model, *np.split(W.T, bounds)).T
        blocks = np.split(jacobian(residual, np.concatenate(args), step_scale), bounds, axis=1)
    shapes = (model.n_y, model.n_y, model.n_x, model.n_x, model.n_z)
    return DerivativeBlocks(*(np.asarray(block, dtype=float).reshape(model.n_eq, n)
                              for block, n in zip(blocks, shapes)))
