"""End-to-end equilibrium paths, extended-path iteration, and stochastic simulation.

Given a policy approximation, this module recovers the transformed
initial condition matching an original-variable starting point, iterates
the closed-loop dynamics, maps every period back to levels, and provides
the horizon-truncated extended-path sweep together with the
certainty-equivalent stochastic scheme (future shocks set to zero,
re-solving each period).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._numdiff import damped_newton, value_and_jacobian
from .exceptions import InfeasibleInitialError, NonContractionError
from .manifold import (
    _DIVERGENCE_CAP, PolicyApprox, _as_rows, _linear_rows, _solve, eval_policy, picard, sweep_image,
)
from .model import _as_vector
from .spectral import TransformedSystem, transformed_from_maps

Array = np.ndarray


@dataclass
class Trajectory:
    """Time-indexed equilibrium path in original levels and transformed coordinates.

    ``z_path``, ``x_path``, ``y_path`` hold one row per period in original
    levels; ``u_path`` and ``v_path`` the corresponding transformed
    deviations.  ``truncated_at`` is the first period (if any) whose
    u-coordinate left the verified ball, after which the path stops.
    """

    times: Array
    z_path: Array
    x_path: Array
    y_path: Array
    u_path: Array
    v_path: Array
    truncated_at: int | None = None

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class EPConfig:
    """Extended-path run parameters.

    A horizon ``n`` fixes the two-point problem: the terminal deviation
    one period past the horizon is pinned to zero, and ``type2_iters``
    full sweeps of implicit single-period solves are performed.
    """

    horizon: int
    type2_iters: int
    tol: float = 1e-13
    max_inner_iter: int = 200

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.type2_iters < 1:
            raise ValueError("type2_iters must be at least 1")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not self.max_inner_iter >= 1:
            raise ValueError(f"max_inner_iter must be at least 1, got {self.max_inner_iter}")


def solve_initial(
    p: PolicyApprox,
    x0,
    z0,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> Array:
    """Transformed initial condition matching original starting values; reads the basis of ``p.system``.

    The policy's stacked row is solved with its first point pinned by the
    starting values (:func:`_pinned_solve`: Newton on the row's sweep image,
    with the difference Jacobian over the row's coordinates), to increments
    of ``p.inner_tol`` within ``max_iter`` Newton steps.  The policy at the
    matched ``u``, one cold :func:`eval_policy`, must then meet the starting
    values to ``tol``, which rejects a row on another fixed point.

    Raises
    ------
    DimensionMismatchError
        If ``x0`` or ``z0`` does not have one value per endogenous or
        exogenous state.
    InfeasibleInitialError
        If the pinned solve fails, the policy's evaluation at its ``u``
        fails (the message says whether it went non-finite or ran out of
        ``p.inner_max_iter`` sweeps), or the policy there misses the
        starting values by more than ``tol``.  A miss within ``p.inner_tol``
        is the policy's own error, so ``u`` is not corrected and the message
        names ``inner_tol`` as the floor of ``tol``.
    """
    return _solve_initial(p, x0, z0, tol, max_iter)[0]


def _pinned_solve(
    sys: TransformedSystem, targets: Array, graph: int | Callable[[Array], Array], tol,
    max_iter: int, error: Callable[[str, float, int], Exception], start: Array | None = None,
) -> tuple[Array, Array]:
    """Points ``U`` on a policy graph that match the z- and x-deviations ``targets``, and ``V``.

    ``graph`` is an order ``n``, whose row ``y`` is the stacked row of
    ``n`` levels of :func:`picard`, or an explicit policy from rows of
    ``u`` to rows of ``v``, whose row is ``v`` alone.  Row ``j``'s first
    point is pinned by ``targets[j]``: ``u = R1^-1 (targets[j] - R2 v) =
    base - P v``, with ``R1`` and ``R2`` the ``u`` and ``v`` columns of the
    z- and x-rows of ``sys.split.Z``.  Its image is ``T(y) =
    sweep_image(sys, base - v P^T, y, None, n)``, or ``graph(base - v
    P^T)``.  One :func:`damped_newton` solves ``T(y) = y`` for all rows, a
    row stopping once its increment is at most ``tol``; each evaluation
    takes ``T`` and ``dT/dy`` from one :func:`value_and_jacobian` call over
    the row's own coordinates, whose stencil moves the pinned ``u`` with
    ``v``.  ``V`` is read off each row's last image, and ``U`` is its pin.
    Rows start at ``start``, else on :func:`_linear_rows`; at order 0,
    ``U`` is ``base``.  Of the failures :func:`damped_newton` returns, the
    first row's raises ``error(reason, norm, row)`` from its cause, a row
    not finite at its start with ``"undefined at the start"`` and norm NaN.
    """
    n_z, n_x, _ = sys.dims
    N, n_v = targets.shape[0], sys.n_v
    Z = sys.split.Z[: n_z + n_x]
    R1, R2 = Z[:, : sys.n_u], Z[:, sys.n_u :]
    try:
        base, P = np.linalg.solve(R1, targets.T).T, np.linalg.solve(R1, R2)
    except np.linalg.LinAlgError as exc:
        raise error("singular", np.nan, 0) from exc
    explicit = callable(graph)
    if not explicit and not graph:
        return base, np.zeros((N, n_v))
    if start is None:
        start = _linear_rows(sys, base, 1 if explicit else graph)
    eye = np.eye(start.shape[1])
    images = np.empty_like(start)  # each row's image at its last evaluation

    def evaluate(Y: Array, rows: Array) -> tuple[Array, Array]:
        def image(S: Array) -> Array:  # stacked row r of the stencil belongs to row r mod len(Y)
            U = np.tile(base[rows], (S.shape[0] // len(Y), 1)) - S[:, :n_v] @ P.T
            return graph(U) if explicit else sweep_image(sys, U, S, None, graph)

        T, dT = value_and_jacobian(image, Y)
        images[rows] = T
        return T - Y, dT - eye

    _, _, failures = damped_newton(evaluate, start, tol, max_iter)
    if failures:
        reason, norm, cause = failures[row := min(failures)]
        raise error(reason, norm, row) from cause
    V = images[:, :n_v]
    return base - V @ P.T, V


def policy_at_levels(
    sys: TransformedSystem, graph: int | Callable[[Array], Array], x, z=None, tol=1e-12,
    start: Array | None = None,
) -> Array:
    """Control levels ``(N, n_y)`` of a policy at ``N`` rows of state levels; reads the basis of ``sys``.

    ``x`` holds the endogenous states ``(N, n_x)`` (a vector if ``n_x`` is
    1) and ``z`` the exogenous ones, zero if omitted.  ``graph`` is an
    order ``n >= 1``, whose stacked row of :func:`picard` is solved, or an
    explicit policy from rows of ``u`` to rows of ``v``, whose row is ``v``
    alone.  Far from the steady state a graph may fold in ``u``, so each row
    is pinned by its levels and solved by :func:`_pinned_solve` to
    increments of ``tol`` (scalar or per row), from ``start`` or else the
    linear rows.  The difference stencil moves the pinned ``u`` with ``v``,
    so it leaves a row's levels where they are: an order solves at levels
    nearer the edge of the model's domain than the stencil's step, but an
    explicit policy sees only ``u``, which the stencil moves.  Raises
    ``ValueError`` if the order is below 1, or naming the levels of the
    first row whose solve fails.
    """
    n_z, n_x, _ = sys.dims
    x = np.asarray(x, dtype=float)
    z = np.zeros((len(x), n_z)) if z is None else np.asarray(z, dtype=float)
    targets = np.concatenate([z.reshape(len(x), n_z), x.reshape(len(x), n_x)], axis=1)
    if callable(graph):
        what = "the policy graph"
    elif graph >= 1:
        what = f"the order-{graph} policy"
    else:
        raise ValueError("order must be at least 1")
    names = [f"z{i}" for i in range(n_z)] + [f"x{i}" for i in range(n_x)]

    def failure(reason: str, increment: float, row: int) -> ValueError:
        at = ", ".join(f"{name} = {val:.6g}" for name, val in zip(names, targets[row]))
        return ValueError(f"could not solve {what} at {at} (Newton {reason}, increment {increment:.3g})")

    U, V = _pinned_solve(sys, targets - np.concatenate([np.zeros(n_z), sys.ss.x_bar]), graph,
                         tol, 50, failure, start)
    return sys.to_levels(U, V)[2]


def _solve_initial(p: PolicyApprox, x0, z0, tol: float, max_iter: int) -> tuple[Array, Array]:
    """:func:`solve_initial`'s ``u`` together with the policy value ``v`` there."""
    sys = p.system
    n_z, n_x, _ = sys.dims
    target = np.concatenate([_as_vector(z0, n_z, "z0"), _as_vector(x0, n_x, "x0") - sys.ss.x_bar])
    outside = ("policy evaluation failed while matching the initial condition "
               "(starting point outside the evaluable region)")

    def error(reason: str, norm: float, row: int) -> InfeasibleInitialError:
        if reason.startswith("undefined"):
            return InfeasibleInitialError(outside)
        return InfeasibleInitialError({
            "singular": "singular Jacobian while matching the initial condition "
            f"(residual {norm:.3e})",
            "stalled": f"initial-condition solve stalled at residual {norm:.3e}",
            "max_iter": f"initial-condition solve did not reach {p.inner_tol:.1e} "
            f"within {max_iter} iterations (residual {norm:.3e})",
        }[reason])

    U, _ = _pinned_solve(sys, target[None], p.order, p.inner_tol, max_iter, error)
    try:
        v = eval_policy(p, U[0])
    except NonContractionError as exc:
        if not exc.last_residual <= _DIVERGENCE_CAP:  # the solve diverged, not just ran out of sweeps
            raise InfeasibleInitialError(outside) from exc
        raise InfeasibleInitialError(
            "policy evaluation failed while matching the initial condition (the Picard "
            f"solve did not reach inner_tol {p.inner_tol:.1e} within inner_max_iter = "
            f"{p.inner_max_iter} sweeps; last increment {exc.last_residual:.3e})"
        ) from exc
    miss = float(np.linalg.norm(sys.split.Z[: n_z + n_x] @ np.concatenate([U[0], v]) - target))
    if not miss <= tol:
        floor = (f"; a miss within the policy's inner_tol {p.inner_tol:.1e} is its own evaluation "
                 "error, so tol cannot be met below inner_tol" if miss <= p.inner_tol else "")
        raise InfeasibleInitialError(
            f"the policy at the matched point misses the initial condition by {miss:.3e} "
            f"(tolerance {tol:.1e}){floor}"
        )
    return U[0], v


def simulate(p: PolicyApprox, u0, T: int) -> Trajectory:
    """Iterate the closed-loop dynamics for ``T`` periods from ``u0``.

    Each period solves the policy's stacked row at ``u_t`` and takes ``v_t``
    from it.  At order ``n >= 2`` the row's look-ahead point
    ``u_{n-1} = A u_t + F(u_t, v_n)`` is ``u_{t+1}``; it comes from the
    iterate before the final image, so it is within ``|F_v| * inner_tol`` of
    ``A u_t + F(u_t, v_t)``, which orders 0 and 1 take by one ``fg`` call.
    As the extended path (Fair and Taylor) moves on by shifting its solved
    path one period, each row at order ``n >= 2`` after the first starts
    from the last one shifted one level: ``[v_n ... v_1 | u_{n-1} ... u_1]``
    gives ``[v_{n-1} ... v_1, v_1 | u_{n-2} ... u_1, A u_1]``.  An order-1
    row has no level to shift, and on growth ``v_t`` starts it further from
    its value than zero does, so it starts cold.  A row stops at
    ``inner_tol`` from any start, so ``v_t`` depends on the path before
    ``t`` as well as on ``u_t``, and the path differs from one of cold rows
    by the tolerance.

    The path stops at the rounding floor of ``fg``: after the first step to
    a ``u_{t+1}`` of norm at most 1e-15, periods ``t + 1`` to ``T`` are the
    steady state ``u = v = 0`` (below 1e-16, growth's ``F(u, 0)`` rounds to
    about ``-A u``).  Every earlier period is solved in turn, so the path is
    bitwise the one that solving one period at a time from the shifted rows
    gives.  Each period is mapped to levels by the basis of ``p.system``
    with the bits it gets alone (:meth:`TransformedSystem.to_levels`).  A
    path whose ``u`` leaves the policy's verified ball, if it has one, ends
    with that period and is marked truncated.

    Raises
    ------
    ValueError
        If ``T`` is negative, or ``u0`` is not one point of shape ``(n_u,)``.
    NonContractionError
        If the policy's solve fails at some period.
    """
    if T < 0:
        raise ValueError(f"T must be nonnegative, got {T}")
    sys = p.system
    U, single = _as_rows(sys, u0)
    if not single:
        raise ValueError("simulate takes one starting point")
    u, A = U[0], sys.split.A
    n, n_u, n_v = p.order, sys.n_u, sys.n_v
    k = n * n_v  # u_{n-1} follows the values v_n, ..., v_1
    u_path, v_path = np.zeros((T + 1, n_u)), np.zeros((T + 1, n_v))
    end, start, truncated_at = T + 1, None, None
    for t in range(T + 1):
        X = _solve(p, u[None], start=start)[0]
        u_path[t], v_path[t] = u, X[:n_v]
        if p.domain is not None and np.linalg.norm(u) > p.domain.r_u * (1 + 1e-12):
            truncated_at, end = t, t + 1
            break
        if t == T:
            break
        if n >= 2:  # the extended path's next start: this row shifted one level
            u = X[k : k + n_u]
            start = np.concatenate([X[n_v:k], X[k - n_v : k], X[k + n_u :], A @ X[-n_u:]])[None]
        else:
            u = A @ u + sys.fg(u, X)[0]
        if np.linalg.norm(u) <= 1e-15:  # the rest is the steady state
            break
    u_path, v_path = u_path[:end], v_path[:end]
    return Trajectory(np.arange(end), *sys.to_levels(u_path, v_path), u_path, v_path, truncated_at)


def _require_v_independent_drift(sys: TransformedSystem) -> None:
    """Verify that the u-dynamics do not respond to v (spot check, one ``fg`` call).

    Each of three u-points is probed at v = 0, 0.1 and -0.07; a probe that
    evaluates to NaN is no evidence either way.
    """
    U = np.repeat([0.0, 0.05, -0.08], 3)[:, None] * np.ones(sys.n_u)
    V = np.tile([0.0, 0.1, -0.07], 3)[:, None] * np.ones(sys.n_v)
    F_val = sys.fg(U, V)[0].reshape(3, 3, sys.n_u)
    if np.any(np.abs(F_val[:, 1:] - F_val[:, :1]) > 1e-10):
        raise ValueError(
            "extended-path sweep requires u-dynamics independent of v "
            "(exogenous-state form)"
        )


def solve_ep(sys: TransformedSystem, u_path: Sequence, cfg: EPConfig) -> Array:
    """Extended-path sweeps on a precomputed exogenous-state path.

    ``u_path`` must hold the horizon+1 points ``u_t, ..., u_{t+n}``.  The
    terminal deviation is pinned to zero one period past the horizon, and
    each sweep solves the single-period implicit equations of all periods
    together, as one batch of rows, by the same contraction iteration the
    policy evaluator uses.

    Returns
    -------
    Array, shape (type2_iters + 1, horizon + 1, n_v)
        All iterates, sweep ``j = 0`` (the zero guess) included.

    Raises
    ------
    ValueError
        If the u-dynamics depend on v; the sweep is only defined for
        exogenous-state systems.
    NonContractionError
        If an implicit single-period solve fails to converge.
    """
    _require_v_independent_drift(sys)
    u_path = np.atleast_2d(np.asarray(u_path, dtype=float).reshape(cfg.horizon + 1, sys.n_u))
    V = np.zeros((cfg.type2_iters + 1, cfg.horizon + 1, sys.n_v))
    for j in range(1, cfg.type2_iters + 1):
        # period i looks ahead to period i + 1 of the previous sweep, and to
        # zero past the horizon; every period starts cold, at zero
        look = np.vstack([V[j - 1, 1:], np.zeros((1, sys.n_v))])
        V[j], inc = picard(
            sys, u_path, np.zeros_like(V[j]), look, cfg.tol, cfg.max_inner_iter
        )
        failed = np.flatnonzero(~(inc <= cfg.tol))
        if failed.size:
            i = failed[0]
            raise NonContractionError(
                f"extended-path inner solve failed at sweep {j}, period {i} "
                f"(last increment {inc[i]:.3e})",
                point=u_path[i],
                last_residual=float(inc[i]),
            )
    return V


def simulate_stochastic(p: PolicyApprox, x0, z0, shocks: Sequence, T: int) -> Trajectory:
    """Certainty-equivalent stochastic path; reads the basis of ``p.system``.

    Each period the deterministic problem is re-solved from the current
    ``(x, z)`` under zero future shocks by :func:`solve_initial`'s match
    with ``tol`` fixed at 1e-12, one closed-loop step produces the next
    endogenous state, and the drawn innovation is injected into the
    exogenous state.  With ``inner_tol`` above 1e-12 a feasible period can
    fail, with the message naming ``inner_tol`` as the floor.  The supplied
    ``shocks`` must contain at least ``T >= 0`` rows; no randomness is generated here.
    A start of the wrong length raises ``DimensionMismatchError``, as in
    :func:`solve_initial`.

    ``x_{t+1}`` is the state of the order-``n`` graph at ``u_{t+1} = A u_t
    + F(u_t, v_t)`` (one cold :func:`eval_policy`), not the control ``y_t``
    nor the state of the step ``(A u + F, B v + G)``: both carry ``v_t``'s
    policy error, the step through the unstable ``B``, while the graph's
    point is on the policy.  On Brock-Mirman (rho_z = 0.9, sigma = 0.01,
    order 3, T = 200 from 0.5 ``k_bar``) ``x_{t+1}`` and ``y_t`` differ by up
    to 1.2e-5; the step saved a third of the ``fg`` calls but raised the
    worst error against the closed form from 2.7e-6 to 1.5e-5.
    """
    if T < 0:
        raise ValueError(f"T must be nonnegative, got {T}")
    sys = p.system
    n_z, n_x, _ = sys.dims
    shocks = np.asarray(shocks, dtype=float).reshape(-1, n_z) if n_z else np.zeros((T, 0))
    if shocks.shape[0] < T:
        raise ValueError(f"need at least {T} shock rows, got {shocks.shape[0]}")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    z = np.atleast_1d(np.asarray(z0, dtype=float)).copy()
    us, vs, zs, xs, ys = [], [], [], [], []
    for t in range(T + 1):
        u, v = _solve_initial(p, x, z, 1e-12, 50)
        _, x_rec, y_rec = sys.to_levels(u, v)
        us.append(u)
        vs.append(v)
        zs.append(z.copy())
        xs.append(x_rec)
        ys.append(y_rec)
        if t < T:
            F_val, _ = sys.fg(u, v)
            u_next = sys.split.A @ u + F_val
            if n_x:  # with no endogenous state there is nothing to carry forward
                _, x, _ = sys.to_levels(u_next, eval_policy(p, u_next))
            z = sys.lambda_mat @ z + shocks[t]
    n = len(us)
    return Trajectory(
        times=np.arange(n),
        z_path=np.array(zs),
        x_path=np.array(xs),
        y_path=np.array(ys),
        u_path=np.array(us),
        v_path=np.array(vs),
    )


def make_exogenous_test_system() -> TransformedSystem:
    """Scalar exogenous-state system used to exercise the extended path.

    The u-dynamics are an autonomous AR(1) with coefficient 0.5 and the
    v-feed is the quadratic ``0.1 u^2 + 0.05 u v``, both maps taking rows
    ``(N, 1)``; both vanish at the origin with their derivatives, and the
    contraction conditions hold on the unit balls.
    """
    return transformed_from_maps(
        A=np.array([[0.5]]),
        B=np.array([[2.0]]),
        F=lambda U, V: np.zeros_like(U),
        G=lambda U, V: 0.1 * U**2 + 0.05 * U * V,
        dims=(1, 0, 1),
    )
