"""End-to-end equilibrium paths, extended-path iteration, and stochastic simulation.

Given a policy approximation, this module recovers the transformed
initial condition matching an original-variable starting point, iterates
the closed-loop dynamics, maps every period back to levels, and provides
the horizon-truncated extended-path sweep together with the
certainty-equivalent stochastic scheme (future shocks set to zero,
re-solving each period).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._numdiff import damped_newton, value_and_jacobian
from .exceptions import InfeasibleInitialError, NonContractionError
from .manifold import (
    _DIVERGENCE_CAP, PolicyApprox, _as_rows, _linear_rows, _row_failure, _row_norms, eval_policy, picard,
    sweep_image,
)
from .model import _as_vector
from .spectral import TransformedSystem, transformed_from_maps

Array = np.ndarray

#: periods that :func:`simulate` solves together, one row each
_WINDOW = 8


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
    z- and x-rows of ``sys.split.Z``.  Its image ``T(y)`` is the image of
    ``sweep_image(sys, base - v P^T, y, None)``, or ``graph(base - v
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
            return graph(U) if explicit else sweep_image(sys, U, S, None)[0]

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
    """Iterate the closed-loop dynamics for ``T`` periods from ``u0``, as the extended path does.

    Period ``t`` is the policy's stacked row at ``u_t`` (laid out as in
    :func:`picard`), whose first value is ``v_t``.  As in the extended path
    (Fair and Taylor), periods are solved together over a horizon that
    moves forward: a window of ``_WINDOW`` consecutive periods, one row
    each, on which every sweep is one :func:`sweep_image` call, so one
    ``fg`` call.  After a sweep each row takes its image, and row ``i + 1``
    moves to row ``i``'s new next point ``A u + F(u, v)``, which
    :func:`sweep_image` returns (at order ``n >= 2`` the row's first
    look-ahead point).  The window starts cold, period ``t`` at ``A^t u0``
    on :func:`_linear_rows`, so period 0 is the cold row of
    :func:`eval_policy` at ``u0``, bitwise where the rows of ``fg`` are
    (growth, exo_test, Brock-Mirman).

    After every sweep the converged front of the window retires.  The front
    row retires once its increment is at most ``inner_tol``; its point is
    final, being the next point of the row retired before it.  A row behind
    it retires in the same sweep only if its increment is at most
    ``inner_tol`` and it was solved within 1e-15 of the next point of the
    row before, the rounding floor at which the path stops (below).  An
    order-1 row retires one sweep later, with the image that met
    ``inner_tol``, so that its next point is ``A u + F(u, v_t)`` at the
    value it returns; at ``n >= 2`` the look-ahead point comes from the
    iterate before the final image, within ``|F_v| * inner_tol`` of that.
    Each retired row is replaced at the back by the last row shifted one
    level, ``[v_n ... v_1 | u_{n-1} ... u_1]`` giving ``[v_{n-1} ... v_1,
    v_1 | u_{n-2} ... u_1, A u_1]``; an order-1 row starts cold.  A row
    stops at ``inner_tol`` from wherever it started, so the path keeps to
    the one of cold rows, and to the one solved a period at a time, to
    about the tolerance.

    A row needs a few sweeps at its final point, so a wider window retires
    more periods a sweep but wastes its rows past the floor.  On growth the
    order-3 paths from 0.25/0.5/2.0 ``k_bar`` (T = 200) take 26/27/27 ``fg``
    calls at width 8, against 29-32 at widths 4 to 64 and 76/66/67 a period
    at a time; 8 is also the fastest width tried on Brock-Mirman from ``z =
    0``, its consumption form and CRRA growth.  A path still far from the
    floor at ``T`` gains from a wider window (Brock-Mirman from ``z =
    -0.05``: 99 calls at width 8, 53 at 32).

    After the first step to a ``u_{t+1}`` of norm at most 1e-15, the
    rounding floor of ``fg``, periods ``t + 1`` to ``T`` are the steady
    state ``u = v = 0`` (below 1e-16, growth's ``F(u, 0)`` rounds to about
    ``-A u``).  Each period is mapped to levels by the basis of ``p.system``
    with the bits it gets alone (:meth:`TransformedSystem.to_levels`).  A
    path whose ``u`` leaves the policy's verified ball, if it has one, ends
    with that period and is marked truncated.

    Raises
    ------
    ValueError
        If ``T`` is negative, or ``u0`` is not one point of shape ``(n_u,)``.
    NonContractionError
        If the front row goes non-finite or spends ``inner_max_iter`` sweeps
        as the front, with the message, point and increment of
        :func:`eval_policy`'s error.  A row behind the front that goes
        non-finite starts again cold at its new point.
    """
    if T < 0:
        raise ValueError(f"T must be nonnegative, got {T}")
    sys = p.system
    U, single = _as_rows(sys, u0)
    if not single:
        raise ValueError("simulate takes one starting point")
    A, n, n_u, n_v = sys.split.A, p.order, sys.n_u, sys.n_v
    k, tol = n * n_v, p.inner_tol  # u_{n-1} follows the values v_n, ..., v_1
    u_path, v_path = np.zeros((T + 1, n_u)), np.zeros((T + 1, n_v))

    def grow(last: Array, ahead: Array, count: int) -> tuple[Array, Array]:
        """The points and rows of ``count`` periods after the row ``last``, the first at ``ahead``.

        Each row is the one before it shifted one level, and the next point
        is its first look-ahead point; at orders 0 and 1 a row is cold and
        the next point is ``A`` times the one before.
        """
        points, rows = np.empty((count, n_u)), np.empty((count, last.size))
        for j in range(count):
            points[j] = ahead
            if n >= 2:
                last = np.concatenate([last[n_v:k], last[k - n_v : k], last[k + n_u :], A @ last[-n_u:]])
                ahead = last[k : k + n_u]
            else:
                last, ahead = np.zeros_like(last), A @ ahead
            rows[j] = last
        return points, rows

    X = _linear_rows(sys, U, n)
    U_new, X_new = grow(X[0], U[0] @ A.T, min(_WINDOW, T + 1) - 1)
    U, X = np.concatenate([U, U_new]), np.concatenate([X, X_new])
    settled = np.zeros(len(U), dtype=bool)  # order 1: the row's X met inner_tol at its point
    t0, front_sweeps = 0, 0  # the front row's period, and its sweeps as the front
    while True:
        with np.errstate(all="ignore"):  # a row behind the front may leave the region: it starts again below
            X_new, after = sweep_image(sys, U, X, None)
            inc = _row_norms(X_new - X)
        front_sweeps += 1
        # an order-1 row retires the sweep after its image met inner_tol, with that image,
        # so that its next point is A u + F(u, v) at the value it returns
        done, values = (settled, X) if n == 1 else (inc <= tol, X_new)
        gaps = _row_norms(U[1:] - after[:-1])  # each row's point from the next point of the row before
        for i in range(len(U)):
            if not done[i] or (i and not gaps[i - 1] <= 1e-15):
                break
            t = t0 + i
            u_path[t], v_path[t] = U[i], values[i, :n_v] if n else 0.0
            if p.domain is not None and np.linalg.norm(U[i]) > p.domain.r_u * (1 + 1e-12):
                u_path, v_path = u_path[: t + 1], v_path[: t + 1]
                return Trajectory(np.arange(t + 1), *sys.to_levels(u_path, v_path), u_path, v_path, t)
            if t == T or np.linalg.norm(after[i]) <= 1e-15:  # the rest is the steady state
                return Trajectory(np.arange(T + 1), *sys.to_levels(u_path, v_path), u_path, v_path)
        else:
            i = len(U)
        if i:
            front_sweeps = 0
        elif not math.isfinite(inc[0]) or (front_sweeps == p.inner_max_iter and not inc[0] <= tol):
            raise _row_failure(p, U[0], float(inc[0]))
        if not math.isfinite(inc[i:].sum()):
            for j in i + np.flatnonzero(~np.isfinite(inc[i:])):  # behind the front: start again cold
                X_new[j] = _linear_rows(sys, after[j - 1 : j], n)[0]
                after[j] = after[j - 1] @ A.T
        moved = np.concatenate([U[:1], after[:-1]])  # row j + 1 goes to row j's next point
        if n == 1:
            settled = (inc <= tol) & (_row_norms(moved - U) <= 1e-15)
        U, X, settled, t0 = moved[i:], X_new[i:], settled[i:], t0 + i
        count = min(i, T + 1 - (t0 + len(U)))
        if count:
            U_new, X_new = grow(X_new[-1], after[-1], count)
            U, X = np.concatenate([U, U_new]), np.concatenate([X, X_new])
            settled = np.concatenate([settled, np.zeros(count, dtype=bool)])


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


def solve_ep(
    sys: TransformedSystem, u_path: Sequence, sweeps: int, tol: float = 1e-13, max_iter: int = 200,
) -> Array:
    """Extended-path sweeps on a precomputed exogenous-state path.

    ``u_path`` holds the ``H + 1`` points ``u_t, ..., u_{t+H}`` of the
    horizon ``H``, as rows ``(H + 1, n_u)`` (a vector if ``n_u`` is 1).  The
    terminal deviation is pinned to zero one period past the horizon, and
    each of the ``sweeps`` sweeps solves the single-period implicit
    equations of all periods together, as one batch of rows, by the same
    contraction iteration the policy evaluator uses (:func:`picard`), each
    period to increments of ``tol`` within ``max_iter`` iterations.

    Returns
    -------
    Array, shape (sweeps + 1, H + 1, n_v)
        All iterates, sweep ``j = 0`` (the zero guess) included.

    Raises
    ------
    ValueError
        If ``u_path`` holds fewer than 2 points or is not rows of length
        ``n_u``, if ``sweeps`` or ``max_iter`` is below 1 or ``tol`` is not
        positive, or if the u-dynamics depend on v: the sweep is only
        defined for exogenous-state systems.
    NonContractionError
        If an implicit single-period solve fails to converge.
    """
    U = np.asarray(u_path, dtype=float)
    U = U[:, None] if U.ndim == 1 else U
    if U.ndim != 2 or U.shape[1] != sys.n_u:
        raise ValueError(f"u_path must be rows of length {sys.n_u}, got shape {np.shape(u_path)}")
    if len(U) < 2:
        raise ValueError(f"u_path must hold at least 2 points, got {len(U)}")
    if sweeps < 1:
        raise ValueError(f"sweeps must be at least 1, got {sweeps}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    _require_v_independent_drift(sys)
    V = np.zeros((sweeps + 1, len(U), sys.n_v))
    for j in range(1, sweeps + 1):
        # period i looks ahead to period i + 1 of the previous sweep, and to
        # zero past the horizon; every period starts cold, at zero
        look = np.vstack([V[j - 1, 1:], np.zeros((1, sys.n_v))])
        V[j], inc = picard(sys, U, np.zeros_like(V[j]), look, tol, max_iter)
        failed = np.flatnonzero(~(inc <= tol))
        if failed.size:
            i = failed[0]
            raise NonContractionError(
                f"extended-path inner solve failed at sweep {j}, period {i} "
                f"(last increment {inc[i]:.3e})",
                point=U[i],
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
    :func:`solve_initial`.  A period that fails raises what it raises
    alone, with ``period t: `` before the message.

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
        try:
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
        except (InfeasibleInitialError, NonContractionError) as exc:
            # the same error, so its type, attributes and cause stay
            exc.args = (f"period {t}: {exc}",)
            raise
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
        n_z=1,
    )
