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

from ._numdiff import damped_newton, jacobian, jacobian_arg
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
        does this as written; one whose batched value on two probe
        points differs from its per-point values (or raises) is
        evaluated one point at a time.
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
        its nonlinear remainder involves current-period variables only.
        Enables a cheaper direct evaluation of the remainder; models
        without this property are handled by an inner Newton solve.
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

    Pure and deterministic; raises :class:`DimensionMismatchError` if any
    argument or the output violates the declared dimensions.
    """
    y_next = _as_vector(y_next, model.n_y, "y_next")
    y = _as_vector(y, model.n_y, "y")
    x_next = _as_vector(x_next, model.n_x, "x_next")
    x = _as_vector(x, model.n_x, "x")
    z = _as_vector(z, model.n_z, "z")
    out = np.asarray(model.residual(y_next, y, x_next, x, z), dtype=float).reshape(-1)
    if out.size != model.n_eq:
        raise DimensionMismatchError(
            f"residual returned {out.size} values, expected {model.n_eq}"
        )
    return out


def residual_columns(
    model: ModelSpec, y_next: Array, y: Array, x_next: Array, x: Array, z: Array
) -> Array:
    """Residual at ``N`` points given as component-first ``(n, N)`` arrays.

    Returns the ``(n_eq, N)`` array whose column ``j`` is the residual at
    the arguments' column ``j``.  A residual that passed the batch probe
    of :class:`ModelSpec` gets all columns in one call (so ``y[0]`` is a
    row of ``N`` values); any other residual, and a single point, is
    evaluated column by column with 1-D arguments.  Raises
    :class:`DimensionMismatchError` if the output has the wrong shape.
    """
    n = y.shape[1]
    if model._takes_batches and n > 1:
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


def _static_residual(model: ModelSpec, point: Array) -> Array:
    y = point[: model.n_y]
    x = point[model.n_y :]
    return eval_residual(model, y, y, x, x, np.zeros(model.n_z))


def _static_jacobian(model: ModelSpec, point: Array) -> Array:
    if model.jacobians is not None:
        y = point[: model.n_y]
        x = point[model.n_y :]
        f1, f2, f3, f4, _ = model.jacobians(y, y, x, x, np.zeros(model.n_z))
        return np.hstack([np.asarray(f1) + np.asarray(f2), np.asarray(f3) + np.asarray(f4)])
    return jacobian(lambda p: _static_residual(model, p), point)


def find_steady_state(
    model: ModelSpec, tol: float = 1e-12, max_iter: int = 50
) -> SteadyState:
    """Solve for the steady state by damped Newton iteration.

    Runs Newton's method on the static system from ``model.steady_guess``,
    halving the step (up to 30 times) whenever a full step fails to reduce
    the residual norm.

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

    def error(reason: str, norm: float) -> SolverError:
        if reason == "singular":
            return SingularJacobianError(f"singular Newton Jacobian at residual norm {norm:.3e}")
        message = {
            "stalled": f"Newton stalled at residual norm {norm:.3e}",
            "max_iter": f"no convergence within {max_iter} iterations "
            f"(last residual norm {norm:.3e})",
        }[reason]
        return SteadyStateError(message, last_residual_norm=norm)

    point, norm = damped_newton(
        lambda p: _static_residual(model, p), lambda p: _static_jacobian(model, p),
        model.steady_guess.copy(), tol, max_iter, error,
    )
    return SteadyState(
        y_bar=point[: model.n_y].copy(),
        x_bar=point[model.n_y :].copy(),
        residual_norm=norm,
    )


def numeric_derivatives(
    model: ModelSpec, ss: SteadyState, step_scale: float = 1.0
) -> DerivativeBlocks:
    """Jacobian blocks of the residual at the steady state.

    Uses the analytic provider when the model carries one, otherwise
    central differences with step
    ``step_scale * cbrt(eps) * max(1, |coordinate|)``.

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
        f1, f2, f3, f4, f5 = (np.asarray(b, dtype=float) for b in blocks)
    else:
        def func(y_next, y, x_next, x, z):
            return eval_residual(model, y_next, y, x_next, x, z)

        f1 = jacobian_arg(func, args, 0, step_scale)
        f2 = jacobian_arg(func, args, 1, step_scale)
        f3 = jacobian_arg(func, args, 2, step_scale)
        f4 = jacobian_arg(func, args, 3, step_scale)
        f5 = jacobian_arg(func, args, 4, step_scale)
    expected = {
        "f1": (model.n_eq, model.n_y),
        "f2": (model.n_eq, model.n_y),
        "f3": (model.n_eq, model.n_x),
        "f4": (model.n_eq, model.n_x),
        "f5": (model.n_eq, model.n_z),
    }
    values = {"f1": f1, "f2": f2, "f3": f3, "f4": f4, "f5": f5}
    for name, shape in expected.items():
        values[name] = values[name].reshape(shape)
    return DerivativeBlocks(**values)
