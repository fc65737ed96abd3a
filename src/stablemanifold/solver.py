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
from typing import Sequence

import numpy as np

from ._numdiff import central_stencil, damped_newton, stencil_jacobian
from .exceptions import InfeasibleInitialError, NonContractionError
from .manifold import PolicyApprox, _raise_failed, _solve_rows, eval_policy, picard
from .spectral import SpectralSplit, TransformedSystem, transformed_from_maps

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


def _initial_rows(split: SpectralSplit, dims: tuple[int, int, int]) -> tuple[Array, Array]:
    n_z, n_x, _ = dims
    rows = split.Z[: n_z + n_x, :]
    return rows[:, : split.n_u], rows[:, split.n_u :]


def solve_initial(
    p: PolicyApprox,
    split: SpectralSplit,
    x0,
    z0,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> Array:
    """Transformed initial condition matching original starting values.

    Solves the square system that equates the z- and x-rows of the
    change of basis, evaluated on the graph of the policy, to the given
    starting deviations.  Newton iteration starts from the linear
    solution (policy set to zero).  Each point Newton tries is evaluated
    together with its central-difference stencil as one batch of
    ``1 + 2 n_u`` rows, so the Jacobian at an accepted point costs no
    further evaluation; a batch costs the ``fg`` calls of its slowest
    row.  A stencil row that fails only matters if Newton needs the
    Jacobian there.

    Raises
    ------
    InfeasibleInitialError
        If Newton fails to reach ``tol`` (including policy evaluations
        failing along the way); the starting point is outside the
        feasible image of the policy graph.
    """
    return _solve_initial(p, split, x0, z0, tol, max_iter)[0]


def _solve_initial(
    p: PolicyApprox, split: SpectralSplit, x0, z0, tol: float, max_iter: int
) -> tuple[Array, Array]:
    """:func:`solve_initial`'s ``u`` together with the policy value ``v`` there."""
    sys = p.system
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    z0 = np.atleast_1d(np.asarray(z0, dtype=float))
    target = np.concatenate([z0, x0 - sys.ss.x_bar])
    R1, R2 = _initial_rows(split, sys.dims)
    outside = ("policy evaluation failed while matching the initial condition "
               "(starting point outside the evaluable region)")
    last = {}  # the policy value at the point evaluated last

    def evaluate(U: Array, rows: Array) -> tuple[Array, Array]:
        u = U[0]
        stencil, h = central_stencil(u)
        X = np.vstack([u, stencil])
        V, inc = _solve_rows(p, X)
        _raise_failed(p, X[:1], inc[:1])  # a failed stencil row leaves a non-finite Jacobian
        last["v"] = V[0]
        return (R1 @ u + R2 @ V[0] - target)[None], (R1 + R2 @ stencil_jacobian(V[1:], h))[None]

    def error(reason: str, norm: float, row: int) -> InfeasibleInitialError:
        message = {
            "undefined": outside,
            "singular": "singular Jacobian while matching the initial condition "
            f"(residual {norm:.3e})",
            "stalled": f"initial-condition solve stalled at residual {norm:.3e}",
            "max_iter": f"initial-condition solve did not reach {tol:.1e} "
            f"within {max_iter} iterations (residual {norm:.3e})",
        }[reason]
        return InfeasibleInitialError(message)

    try:
        u = np.linalg.solve(R1, target)
    except np.linalg.LinAlgError:
        u, *_ = np.linalg.lstsq(R1, target, rcond=None)
    try:
        u, _ = damped_newton(evaluate, u[None], tol, max_iter, error)
    except NonContractionError as exc:
        raise InfeasibleInitialError(outside) from exc
    # the root is the last point damped_newton evaluated: its start or its last accepted trial
    return u[0], last["v"]


def simulate(p: PolicyApprox, split: SpectralSplit, u0, T: int) -> Trajectory:
    """Iterate the closed-loop dynamics for ``T`` periods from ``u0``.

    Every period is mapped back to original levels through the change of
    basis evaluated on the policy graph, each period with the bits it gets
    alone (:meth:`TransformedSystem.to_levels`).  If the u-coordinate
    leaves the verified ball (when the policy carries a domain), the
    trajectory is recorded up to and including that period and marked
    truncated.  Once the closed-loop map returns its argument bitwise,
    ``u_{t+1} == u_t`` (the path has reached the steady state in floating
    point), the remaining periods repeat period ``t``, levels included:
    the policy evaluation, ``fg`` and the change of basis are
    deterministic functions of ``u``, so iterating further would reproduce
    that row exactly.
    """
    sys = p.system
    A = sys.split.A
    u = np.atleast_1d(np.asarray(u0, dtype=float)).copy()
    u_path = np.empty((T + 1, sys.n_u))
    v_path = np.empty((T + 1, sys.n_v))
    n = m = T + 1  # the periods, and those before the fixed point's repeats
    truncated_at = None
    for t in range(T + 1):
        v = eval_policy(p, u)
        u_path[t], v_path[t] = u, v
        if p.domain is not None and np.linalg.norm(u) > p.domain.r_u * (1 + 1e-12):
            truncated_at, n = t, t + 1
            break
        if t < T:
            F_val, _ = sys.fg(u, v)
            u_next = A @ u + F_val
            if u_next.tobytes() == u.tobytes():  # a floating-point fixed point
                u_path[t + 1 :], v_path[t + 1 :] = u, v
                m = t + 1
                break
            u = u_next
    u_path, v_path = u_path[:n], v_path[:n]
    repeat = np.minimum(np.arange(n), m - 1)
    z_path, x_path, y_path = (w[repeat] for w in sys.to_levels(u_path[:m], v_path[:m]))
    return Trajectory(
        times=np.arange(n),
        z_path=z_path,
        x_path=x_path,
        y_path=y_path,
        u_path=u_path,
        v_path=v_path,
        truncated_at=truncated_at,
    )


def _require_v_independent_drift(sys: TransformedSystem) -> None:
    """Verify that the u-dynamics do not respond to v (spot check)."""
    for a in (0.0, 0.05, -0.08):
        u = np.full(sys.n_u, a)
        base = sys.fg(u, np.zeros(sys.n_v))[0]
        for s in (0.1, -0.07):
            probe = sys.fg(u, np.full(sys.n_v, s))[0]
            if np.max(np.abs(probe - base), initial=0.0) > 1e-10:
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
            sys, u_path, np.zeros_like(V[j]), lambda _U, _F, act: look[act],
            cfg.tol, cfg.max_inner_iter,
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


def simulate_stochastic(
    p: PolicyApprox,
    split: SpectralSplit,
    x0,
    z0,
    shocks: Sequence,
    T: int,
) -> Trajectory:
    """Certainty-equivalent stochastic path.

    Each period the deterministic problem is re-solved from the current
    ``(x, z)`` under zero future shocks, one closed-loop step produces the
    next endogenous state, and the drawn innovation is injected into the
    exogenous state.  The supplied ``shocks`` must contain at least ``T``
    rows; no randomness is generated here.
    """
    sys = p.system
    n_z, n_x, _ = sys.dims
    shocks = np.asarray(shocks, dtype=float).reshape(-1, n_z) if n_z else np.zeros((T, 0))
    if shocks.shape[0] < T:
        raise ValueError(f"need at least {T} shock rows, got {shocks.shape[0]}")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    z = np.atleast_1d(np.asarray(z0, dtype=float)).copy()
    us, vs, zs, xs, ys = [], [], [], [], []
    for t in range(T + 1):
        u, v = _solve_initial(p, split, x, z, 1e-12, 50)
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
    v-feed is the quadratic ``0.1 u^2 + 0.05 u v``; both maps vanish at
    the origin with their derivatives, and the contraction conditions
    hold on the unit balls.
    """

    def F(u: Array, v: Array) -> Array:
        return np.zeros(1)

    def G(u: Array, v: Array) -> Array:
        return np.array([0.1 * u[0] ** 2 + 0.05 * u[0] * v[0]])

    return transformed_from_maps(
        A=np.array([[0.5]]),
        B=np.array([[2.0]]),
        F=F,
        G=G,
        dims=(1, 0, 1),
    )
