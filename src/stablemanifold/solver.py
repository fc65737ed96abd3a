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
from .manifold import PolicyApprox, _raise_failed, _solve_rows, eval_policy, picard
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
    """Transformed initial condition matching original starting values.

    Solves the square system that equates the z- and x-rows of the
    change of basis, evaluated on the graph of the policy, to the given
    starting deviations; reads the basis of ``p.system``.  The solve is
    :func:`_on_graph`'s damped Newton from the linear solution (policy
    set to zero), the same solve that puts capital levels on the graph
    in :func:`~stablemanifold.growth.policy_in_levels`.  Each point
    Newton tries is evaluated together with its central-difference
    stencil as one batch of ``1 + 2 n_u`` rows, so the Jacobian at an
    accepted point costs no further evaluation; a batch costs the ``fg``
    calls of its slowest row.  A stencil row that fails only matters if
    Newton needs the Jacobian there.

    Raises
    ------
    InfeasibleInitialError
        If Newton fails to reach ``tol`` (including policy evaluations
        failing along the way); the starting point is outside the
        feasible image of the policy graph.
    """
    return _solve_initial(p, x0, z0, tol, max_iter)[0]


def _on_graph(
    policy: Callable[[Array], Array], sys: TransformedSystem, targets: Array, tol, max_iter: int,
    error: Callable[[str, float, int], Exception],
) -> tuple[Array, Array]:
    """Rows ``U`` on the graph of ``policy`` that match the z- and x-deviations ``targets``, and ``V``.

    Row ``j`` solves ``R1 u + R2 policy(u) = targets[j]``, where ``R1`` and
    ``R2`` are the ``u`` and ``v`` columns of the z- and x-rows of
    ``sys.split.Z``.  All rows run in lockstep through one
    :func:`damped_newton` that starts from the linear solution (policy set
    to zero).  Each evaluation is one ``policy`` call on the points stacked
    with their difference stencil, giving the Jacobian ``R1 + R2 dV``.
    ``V`` is each row's value at its last evaluation, which is its root.
    ``tol`` is a scalar or one tolerance per row.  The first failing row
    raises ``error(reason, norm, row)`` as :func:`damped_newton` does, a
    row undefined at its start with ``"undefined"`` and norm NaN.
    """
    n_z, n_x, _ = sys.dims
    R1, R2 = np.hsplit(sys.split.Z[: n_z + n_x], [sys.n_u])
    try:
        U = np.linalg.solve(R1, targets.T).T
    except np.linalg.LinAlgError:
        U = np.linalg.lstsq(R1, targets.T, rcond=None)[0].T
    V = np.empty((targets.shape[0], sys.n_v))
    undefined = []  # the rows whose starting residual is not finite

    def evaluate(P: Array, rows: Array) -> tuple[Array, Array]:
        V[rows], dV = value_and_jacobian(policy, P)
        R = P @ R1.T + V[rows] @ R2.T - targets[rows]
        if not undefined:  # the start, all rows
            undefined.append(np.flatnonzero(~np.isfinite(R).all(axis=1)))
        return R, R1 + R2 @ dV

    def first_error(reason: str, norm: float, row: int) -> Exception:
        start = undefined[0][undefined[0] < row]
        return error("undefined", np.nan, int(start[0])) if start.size else error(reason, norm, row)

    U, _ = damped_newton(evaluate, U, tol, max_iter, first_error)
    if undefined[0].size:
        raise error("undefined", np.nan, int(undefined[0][0]))
    return U, V


def _solve_initial(p: PolicyApprox, x0, z0, tol: float, max_iter: int) -> tuple[Array, Array]:
    """:func:`solve_initial`'s ``u`` together with the policy value ``v`` there."""
    sys = p.system
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    z0 = np.atleast_1d(np.asarray(z0, dtype=float))
    target = np.concatenate([z0, x0 - sys.ss.x_bar])
    outside = ("policy evaluation failed while matching the initial condition "
               "(starting point outside the evaluable region)")

    def policy(X: Array) -> Array:
        V, inc = _solve_rows(p, X)
        _raise_failed(p, X[:1], inc[:1])  # a failed stencil row leaves a non-finite Jacobian
        return V

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
        U, V = _on_graph(policy, sys, target[None], tol, max_iter, error)
    except NonContractionError as exc:
        raise InfeasibleInitialError(outside) from exc
    return U[0], V[0]


def simulate(p: PolicyApprox, u0, T: int) -> Trajectory:
    """Iterate the closed-loop dynamics for ``T`` periods from ``u0``.

    Every period is mapped back to original levels through the change of
    basis of ``p.system`` evaluated on the policy graph, each period with
    the bits it gets alone (:meth:`TransformedSystem.to_levels`).  If the
    u-coordinate leaves the verified ball (when the policy carries a
    domain), the trajectory is recorded up to and including that period
    and marked truncated.  Once the closed-loop map returns a state it returned
    before, bitwise, ``u_{t+1} == u_s`` for some ``s <= t`` (the path has
    reached the steady state, or a cycle around it, in floating point),
    the remaining periods repeat periods ``s..t`` in turn, levels
    included: the policy evaluation, ``fg`` and the change of basis are
    deterministic functions of ``u``, so iterating further would
    reproduce those rows exactly.
    """
    sys = p.system
    A = sys.split.A
    u = np.atleast_1d(np.asarray(u0, dtype=float)).copy()
    u_path = np.empty((T + 1, sys.n_u))
    v_path = np.empty((T + 1, sys.n_v))
    n = m = T + 1  # the periods, and those evaluated before the repeats
    seen = {}  # the period of each state reached so far
    repeat = np.arange(n)
    truncated_at = None
    for t in range(T + 1):
        v = eval_policy(p, u)
        u_path[t], v_path[t] = u, v
        if p.domain is not None and np.linalg.norm(u) > p.domain.r_u * (1 + 1e-12):
            truncated_at, n = t, t + 1
            break
        if t < T:
            seen[u.tobytes()] = t
            F_val, _ = sys.fg(u, v)
            u = A @ u + F_val
            s = seen.get(u.tobytes())
            if s is not None:  # periods s..t repeat from here on
                m = t + 1
                repeat[m:] = s + (repeat[m:] - s) % (m - s)
                break
    repeat = repeat[:n]
    u_path, v_path = u_path[repeat], v_path[repeat]
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
    ``(x, z)`` under zero future shocks, to a residual of 1e-12, one
    closed-loop step produces the next endogenous state, and the drawn
    innovation is injected into the exogenous state.  The supplied
    ``shocks`` must contain at least ``T`` rows; no randomness is
    generated here.
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
