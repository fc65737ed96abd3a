"""Independent oracles for the growth benchmark, written from first principles.

Everything here is computed directly from the model's algebra (closed-form
policy, hand-derived linearization coefficients, explicit transformed
nonlinearity) so the tests never compare the pipeline against itself.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Callable

import numpy as np

from stablemanifold import GrowthParams

from stablemanifold.manifold import _halton, domain_samples
from stablemanifold.model import eval_residual

Array = np.ndarray


def bisect(f, lo: float, hi: float, iters: int = 100) -> float:
    """Plain bisection; assumes f(lo) and f(hi) straddle a root."""
    f_lo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if np.isfinite(f_lo) and np.isfinite(f_mid) and f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def jacobian_loop(func, x, step_scale: float = 1.0) -> np.ndarray:
    """Central-difference Jacobian perturbing one coordinate at a time.

    The quotients ``_numdiff.value_and_jacobian`` is built to reproduce
    from one call on the stacked points: for each coordinate ``i`` of the
    point (or of every row at once) ``func`` is called at ``x + h_i e_i``
    and then at ``x - h_i e_i``, with
    ``h = step_scale * cbrt(eps) * max(1, |x|)``; ``n = 0`` calls ``func``
    once at ``x`` for the shape of the result.
    """
    x = np.asarray(x, dtype=float)
    h = step_scale * float(np.cbrt(np.finfo(float).eps)) * np.maximum(1.0, np.abs(x))
    cols = []
    for i in range(x.shape[-1]):
        e = np.zeros_like(x)
        e[..., i] = h[..., i]
        f_plus = np.asarray(func(x + e), dtype=float)
        f_minus = np.asarray(func(x - e), dtype=float)
        cols.append((f_plus - f_minus) / (2.0 * h[..., i, None]))
    if not cols:
        return np.zeros(np.asarray(func(x), dtype=float).shape + (0,))
    return np.stack(cols, axis=-1)


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


def derivative_blocks_by_argument(model, ss, step_scale: float = 1.0) -> list[np.ndarray]:
    """``[f1, ..., f5]``: the residual's difference Jacobian in each argument separately.

    Each block perturbs only its own argument of
    ``residual(y_next, y, x_next, x, z)`` at the steady state (``z = 0``),
    by :func:`jacobian_loop`.
    """
    args = [ss.y_bar, ss.y_bar, ss.x_bar, ss.x_bar, np.zeros(model.n_z)]
    blocks = []
    for k, at in enumerate(args):
        def partial(a, k=k):
            return eval_residual(model, *args[:k], a, *args[k + 1 :])

        blocks.append(jacobian_loop(partial, at, step_scale).reshape(model.n_eq, at.size))
    return blocks


def remainder_term(params: GrowthParams, k_dev: float, znext_dev: float) -> float:
    """Nonlinear remainder of the growth system in deviation form.

    ``k_dev`` is the capital deviation and ``znext_dev`` the deviation of
    next-period capital (the second system variable).
    """
    a, b = params.alpha, params.beta
    ab = a * b
    kb = params.k_bar
    return (
        (1.0 + ab) * (kb + znext_dev) ** a
        - ab * (kb + k_dev) ** a / (kb + znext_dev) ** (1.0 - a)
        - kb
        + k_dev / b
        - (1.0 / ab + a) * znext_dev
    )


def transformed_feed(params: GrowthParams, u: float, v: float) -> float:
    """The v-equation forcing term in the paper-normalized basis.

    Composition of the remainder with the coordinates
    ``k_dev = u + v`` and ``znext_dev = alpha*u + v/(alpha*beta)``, scaled
    by the matching inverse-basis entry.
    """
    a, b = params.alpha, params.beta
    ab = a * b
    scale = ab / (1.0 - a * a * b)
    return scale * remainder_term(params, u + v, a * u + v / ab)


def first_order_policy_root(params: GrowthParams, u: float, v_half: float = 0.05) -> float:
    """Root of the order-1 implicit policy equation, by bisection.

    Solves ``v = -(alpha*beta) * transformed_feed(u, v)`` independently of
    the pipeline's evaluator.
    """
    ab = params.alpha * params.beta

    def eqn(v: float) -> float:
        return v + ab * transformed_feed(params, u, v)

    return bisect(eqn, -v_half, v_half, iters=100)


def first_iterate_formula(params: GrowthParams, u: float) -> float:
    """Closed-form first contraction iterate of the order-1 policy.

    The zero-substituted right-hand side of the implicit equation,
    simplified: the two linear terms collapse to ``-alpha**2 * u``.
    """
    a, b = params.alpha, params.beta
    ab = a * b
    kb = params.k_bar
    scale = ab * ab / (1.0 - a * a * b)
    return -scale * (
        (1.0 + ab) * (kb + a * u) ** a
        - ab * (kb + u) ** a / (kb + a * u) ** (1.0 - a)
        - kb
        - a * a * u
    )


def exact_coords(params: GrowthParams, z_inv: np.ndarray, k_dev: float) -> np.ndarray:
    """Transformed coordinates of a point on the exact solution graph."""
    ab = params.alpha * params.beta
    kb = params.k_bar
    znext_dev = ab * (kb + k_dev) ** params.alpha - kb
    return z_inv @ np.array([k_dev, znext_dev])


def exact_policy_transformed(
    params: GrowthParams,
    z_inv: np.ndarray,
    u: float,
    k_dev_lo: float = -0.12,
    k_dev_hi: float = 0.8,
) -> float:
    """Exact stable-manifold value v at coordinate u (closed-form based).

    Parametrizes the exact solution graph by the capital deviation and
    inverts the u-coordinate by bisection; valid where that coordinate is
    monotone (a neighborhood of the origin well beyond any verified ball).
    """

    def mismatch(k_dev: float) -> float:
        return exact_coords(params, z_inv, k_dev)[0] - u

    k_dev = bisect(mismatch, k_dev_lo, k_dev_hi, iters=100)
    return exact_coords(params, z_inv, k_dev)[1]


def euler_equation_value(params: GrowthParams, k: float, k1: float, k2: float) -> float:
    """Second-order capital equation residual, direct arithmetic.

    ``k2 - ((1 + alpha*beta) k1 - alpha*beta k**alpha) / k1**(1-alpha)``.
    """
    a, b = params.alpha, params.beta
    ab = a * b
    return k2 - ((1.0 + ab) * k1 - ab * k ** a) / k1 ** (1.0 - a)


def closed_form_path(params: GrowthParams, k0: float, T: int) -> np.ndarray:
    """Iterate the exact policy ``k_next = alpha*beta*k**alpha``."""
    out = np.empty(T + 1)
    out[0] = k0
    for t in range(T):
        out[t + 1] = params.alpha * params.beta * out[t] ** params.alpha
    return out


def growth_euler_derivatives(params: GrowthParams) -> dict:
    """Hand-derived steady-state derivatives of the capital equation.

    In the explicit second-order form the derivative with respect to
    current capital is ``-1/beta`` and with respect to next-period
    capital ``1/(alpha*beta) + alpha``.
    """
    a, b = params.alpha, params.beta
    return {"d_current": -1.0 / b, "d_next": 1.0 / (a * b) + a}


def check_conditions_pointwise(sys, dom) -> tuple[float, float, bool]:
    """``(sup_G, L, cond3_ok)`` by one ``fg`` call and one 1-D Jacobian per sample.

    The per-point loop the batched condition check replaces: any
    non-finite value or Jacobian entry gives ``(inf, inf, False)``.
    """
    U, V = domain_samples(dom, sys.n_u, sys.n_v)
    n_u = sys.n_u
    sup_G, lip, cond3_ok = 0.0, 0.0, True
    for u, v in zip(U, V):
        F_val, G_val = sys.fg(u, v)
        jac = jacobian_loop(lambda p: np.concatenate(sys.fg(p[:n_u], p[n_u:])),
                            np.concatenate([u, v]))
        if not all(np.all(np.isfinite(a)) for a in (F_val, G_val, jac)):
            return math.inf, math.inf, False
        sup_G = max(sup_G, float(np.linalg.norm(G_val)))
        if float(np.linalg.norm(sys.split.A @ u + F_val)) > dom.r_u * (1.0 + 1e-12):
            cond3_ok = False
        lip = max(lip, float(np.linalg.norm(jac[:n_u], 2)), float(np.linalg.norm(jac[n_u:], 2)))
    return sup_G, lip, cond3_ok


def policy_cold(sys, order: int, u: np.ndarray, tol: float, max_iter: int = 200) -> np.ndarray:
    """Order-``order`` policy at ``u`` with every nested Picard solve started at zero.

    The plain recursion ``v <- B_inv (h_{order-1}(A u + F(u, v)) - G(u, v))``
    with ``h_0 = 0``, one point at a time and no state carried between
    solves.
    """
    v = np.zeros(sys.n_v)
    if order == 0:
        return v
    B_inv = sys.split.B_inv
    for _ in range(max_iter):
        F_val, G_val = sys.fg(u, v)
        ahead = policy_cold(sys, order - 1, sys.split.A @ u + F_val, tol, max_iter)
        v_new = B_inv @ (ahead - G_val)
        if np.linalg.norm(v_new - v) <= tol:
            return v_new
        v = v_new
    raise RuntimeError(f"cold Picard iteration at order {order} did not converge")


def policy_plain(sys, order: int, u: np.ndarray, tol: float, max_iter: int = 200):
    """Order-``order`` policy at the point ``u`` by plain Picard sweeps, or None if a solve fails.

    The nested evaluator the stacked solve replaced: each solve iterates
    ``v <- B_inv (h_{L-1}(A u + F(u, v)) - G(u, v))`` until successive
    iterates differ by at most ``tol`` and returns the last one.  The
    top-level solve starts at zero and each nested solve at level ``L``
    from the last level-``L`` solution of this evaluation (the first from
    zero).  A solve fails when an iterate goes non-finite or ``max_iter``
    runs out, and the evaluation then fails.
    """
    A, B_inv = sys.split.A, sys.split.B_inv
    warm = [np.zeros(sys.n_v) for _ in range(order + 1)]

    def solve(level, u):
        v = warm[level]
        for _ in range(max_iter):
            F_val, G_val = sys.fg(u, v)
            ahead = solve(level - 1, A @ u + F_val) if level > 1 else np.zeros(sys.n_v)
            if ahead is None:
                return None
            v_new = B_inv @ (ahead - G_val)
            inc = float(np.linalg.norm(v_new - v))
            if not math.isfinite(inc):
                return None
            if inc <= tol:
                warm[level] = v_new
                return v_new
            v = v_new
        return None

    return np.zeros(sys.n_v) if order == 0 else solve(order, np.asarray(u, dtype=float))


def normal_quantile(p: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each entry, by ``statistics.NormalDist``."""
    p = np.asarray(p, dtype=float)
    return np.array([NormalDist().inv_cdf(x) for x in p.ravel().tolist()]).reshape(p.shape)


def domain_samples_direct(
    dom, n_u: int, n_v: int, quantile: Callable = normal_quantile
) -> tuple[np.ndarray, np.ndarray]:
    """The domain sample built at one radius pair from scratch, group by group.

    Four combinations of interior or boundary-shell points in each ball,
    from one Halton sequence (normalised Gaussian quantiles, by
    ``quantile``, for the directions, last coordinate to the power
    ``1/dim`` for the radial fraction), followed by the grid of axis
    extremes.
    """

    def ball(radius, dim, rows, shell):
        m = rows.shape[0]
        if dim == 0:
            return np.zeros((m, 0))
        z = quantile(np.clip(rows[:, :dim], 1e-12, 1.0 - 1e-12))
        lengths = np.linalg.norm(z, axis=1)
        degenerate = lengths < 1e-12
        z[degenerate] = 0.0
        z[degenerate, 0] = 1.0
        lengths[degenerate] = 1.0
        radial = np.full(m, radius) if shell else radius * rows[:, dim] ** (1.0 / dim)
        return z / lengths[:, None] * radial[:, None]

    def axes(radius, dim):
        out = [np.zeros(dim)]
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = radius
            out += [e, -e]
        return np.array(out)

    m = max(1, -(-dom.sample_count // 4))
    rows = _halton(m + 1, n_u + n_v + 2)[1:]
    us, vs = [], []
    for shell_u in (False, True):
        for shell_v in (False, True):
            us.append(ball(dom.r_u, n_u, rows[:, : n_u + 1], shell_u))
            vs.append(ball(dom.r_v, n_v, rows[:, n_u + 1 :], shell_v))
    ax_u, ax_v = axes(dom.r_u, n_u), axes(dom.r_v, n_v)
    us.append(np.repeat(ax_u, len(ax_v), axis=0))
    vs.append(np.tile(ax_v, (len(ax_u), 1)))
    return np.vstack(us), np.vstack(vs)


def _straddles(a, b) -> bool:
    return bool(np.isfinite(a) and np.isfinite(b) and a * b <= 0.0)


def _widened_bracket(f, center: float, half: float, grow: float, tries: int, floor):
    """``(lo, hi, f(lo), f(hi))``: ``[max(center - half, floor), center + half]``
    grown by ``grow`` up to ``tries`` times until ``f`` changes sign across
    it; None if it never does."""

    def ends(half):
        lo = center - half if floor is None else max(center - half, floor)
        return lo, center + half

    lo, hi = ends(half)
    f_lo, f_hi = f(lo), f(hi)
    for _ in range(tries):
        if _straddles(f_lo, f_hi):
            break
        half *= grow
        lo, hi = ends(half)
        f_lo, f_hi = f(lo), f(hi)
    return (lo, hi, f_lo, f_hi) if _straddles(f_lo, f_hi) else None


def bracket_bisect_scalar(f, center: float, half: float, grow: float, tries: int, floor,
                          iters: int):
    """One root of the scalar ``f``: a bracket widened around ``center``, then bisection.

    The single-row search: the bracket of :func:`_widened_bracket`, then up
    to ``iters`` bisection steps, stopping once the bracket is narrower
    than ``1e-15 * max(1, |midpoint|)``.  None if no bracket.
    """
    bracket = _widened_bracket(f, center, half, grow, tries, floor)
    if bracket is None:
        return None
    lo, hi, f_lo, _ = bracket
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if _straddles(f_lo, f_mid):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo <= 1e-15 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def policy_in_levels_pointwise(policy, split, params, k_values) -> np.ndarray:
    """An explicit capital policy on a grid of levels, one level at a time with continuation.

    Level by level, ``k = Z[0,0] u + Z[0,1] policy(u) + k_bar`` is solved
    for ``u`` by :func:`bracket_bisect_scalar`, centered on the previous
    level's root (the first level on ``(k - k_bar) / Z[0,0]``) and kept
    above the floor where capital turns nonpositive; ``policy`` is called
    on one point ``(n_u,)`` at a time.
    """
    kb = params.k_bar
    Z = split.Z
    u_floor = -kb / abs(Z[0, 0]) * (1.0 - 1e-10)
    v_at = lambda u: float(policy(np.array([u]))[0])
    out, prev = [], None
    for k in k_values:
        k = float(k)
        center = (k - kb) / Z[0, 0] if prev is None else prev
        half = max(0.05 * abs(k - kb), 0.02 * kb, 1e-6)
        u = bracket_bisect_scalar(lambda u: Z[0, 0] * u + Z[0, 1] * v_at(u) + kb - k,
                                  center, half, 1.7, 60, u_floor, 200)
        if u is None:
            raise ValueError(f"could not bracket the capital level {k:.6g}")
        out.append(Z[1, 0] * u + Z[1, 1] * v_at(u) + kb)
        prev = u
    return np.array(out)


def implicit_policy_pointwise(system, params, order: int, k_values, inner_tol=1e-13,
                              inner_max_iter=400) -> np.ndarray:
    """Level-space policy solved one capital level at a time, every lower order cold.

    At each level the stable coordinate is eliminated through the capital
    row of the basis and the implicit recursion is root-found in ``v`` by
    :func:`bracket_bisect_scalar`, seeded from the closed form; each
    evaluation of the lower-order policy is a fresh one-point
    ``eval_policy``, so no solve starts from another's solution.
    """
    from stablemanifold import NonContractionError, PolicyApprox, eval_policy

    kb, split = params.k_bar, system.split
    Z, Z_inv, A = split.Z, split.Z_inv, split.A
    b_inv = float(split.B_inv[0, 0])
    inner = PolicyApprox(order=order - 1, system=system, inner_tol=inner_tol,
                         inner_max_iter=inner_max_iter)
    out = []
    for k in k_values:
        k = float(k)
        k_dev = k - kb

        def psi(v):
            u = np.array([(k_dev - Z[0, 1] * v) / Z[0, 0]])
            F_val, G_val = system.fg(u, np.array([v]))
            if not (np.isfinite(F_val[0]) and np.isfinite(G_val[0])):
                return np.nan
            try:
                ahead = float(eval_policy(inner, A @ u + F_val)[0]) if order > 1 else 0.0
            except NonContractionError:
                return np.nan
            return v + b_inv * float(G_val[0]) - b_inv * ahead

        ab = params.alpha * params.beta
        v_hint = float((Z_inv @ np.array([k_dev, ab * k ** params.alpha - kb]))[1])
        v = bracket_bisect_scalar(psi, v_hint, max(2e-3, 1e-3 * abs(k_dev)), 1.6, 40, None, 120)
        if v is None:
            raise ValueError(f"could not bracket the policy value at k = {k:.6g}")
        u = (k_dev - Z[0, 1] * v) / Z[0, 0]
        out.append(Z[1, 0] * u + Z[1, 1] * v + kb)
    return np.array(out)


def solve_ep_pointwise(sys, u_path: np.ndarray, horizon: int, sweeps: int, tol: float,
                       max_iter: int = 200) -> np.ndarray:
    """Extended-path sweeps solved one period at a time, each from zero.

    Period ``i`` of sweep ``j`` iterates ``v <- B_inv (V[j-1, i+1] - G(u_i, v))``
    (zero look-ahead past the horizon) until successive iterates differ by
    at most ``tol``.
    """
    B_inv = sys.split.B_inv
    V = np.zeros((sweeps + 1, horizon + 1, sys.n_v))
    for j in range(1, sweeps + 1):
        for i in range(horizon + 1):
            ahead = V[j - 1, i + 1] if i < horizon else np.zeros(sys.n_v)
            v = np.zeros(sys.n_v)
            for _ in range(max_iter):
                v_new = B_inv @ (ahead - sys.fg(u_path[i], v)[1])
                converged = np.linalg.norm(v_new - v) <= tol
                v = v_new
                if converged:
                    break
            else:
                raise RuntimeError(f"period {i} of sweep {j} did not converge")
            V[j, i] = v
    return V


def parametric_policy(policy, split, params: GrowthParams, u_grid) -> Array:
    """Graph of the capital policy traced by the transformed coordinate.

    For each ``u`` in the grid, returns the pair ``(k, k_next)`` obtained
    by pushing ``(u, policy(u))`` through the change of basis and adding
    back the steady state.  ``policy`` may be a policy evaluator or any
    map from rows ``(N, n_u)`` of u to rows ``(N, n_v)`` of v; it is called
    once, on the whole grid.
    """
    U = np.asarray(u_grid, dtype=float).reshape(-1, 1)
    return np.concatenate([U, policy(U)], axis=1) @ split.Z.T + params.k_bar


def forward_orbit(sys, u0, v0, steps: int) -> tuple[Array, Array]:
    """Forward orbit of the transformed system from ``(u0, v0)``.

    Returns the visited ``u`` and ``v`` sequences as arrays with at most
    ``steps + 1`` rows; stops early if the dynamics go nonfinite.
    """
    u = np.atleast_1d(np.asarray(u0, dtype=float)).copy()
    v = np.atleast_1d(np.asarray(v0, dtype=float)).copy()
    us, vs = [u.copy()], [v.copy()]
    for _ in range(steps):
        F_val, G_val = sys.fg(u, v)
        if not (np.all(np.isfinite(F_val)) and np.all(np.isfinite(G_val))):
            break
        u = sys.split.A @ u + F_val
        v = sys.split.B @ v + G_val
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            break
        us.append(u.copy())
        vs.append(v.copy())
    return np.array(us), np.array(vs)


def solve_initial_pointwise(p, x0, z0, tol: float = 1e-12, max_iter: int = 50):
    """Transformed initial condition by damped Newton with one-point policy evaluations.

    The residual evaluates the policy at the Newton point alone and the
    Jacobian by :func:`jacobian_loop`, two more one-point evaluations per
    coordinate; any failed evaluation raises ``NonContractionError``.
    """
    from stablemanifold import eval_policy

    sys = p.system
    target = np.concatenate([np.atleast_1d(np.asarray(z0, dtype=float)),
                             np.atleast_1d(np.asarray(x0, dtype=float)) - sys.ss.x_bar])
    n_z, n_x, _ = sys.dims
    Z, n_u = sys.split.Z, sys.split.n_u
    R1, R2 = Z[: n_z + n_x, :n_u], Z[: n_z + n_x, n_u:]

    def residual(u):
        return R1 @ u + R2 @ eval_policy(p, u) - target

    def jac(u):
        return R1 + R2 @ jacobian_loop(lambda q: eval_policy(p, q), u)

    def error(reason, norm):
        return RuntimeError(f"pointwise initial-condition solve: {reason} at {norm:.3e}")

    u, _ = damped_newton(residual, jac, np.linalg.solve(R1, target), tol, max_iter, error)
    return u


def shifted_row(sys, row: Array, order: int) -> Array:
    """The start of the next period's row: ``row`` shifted one level, as the extended path shifts.

    ``[v_n ... v_1 | u_{n-1} ... u_1]`` gives ``[v_{n-1} ... v_1, v_1 |
    u_{n-2} ... u_1, A u_1]`` for ``order = n >= 2``.
    """
    k = order * sys.n_v
    values = [row[l * sys.n_v : (l + 1) * sys.n_v] for l in range(order)]
    points = [row[k + l * sys.n_u : k + (l + 1) * sys.n_u] for l in range(order - 1)]
    return np.concatenate(values[1:] + values[-1:] + points[1:] + [sys.split.A @ points[-1]])


def simulate_stepwise(p, u0, T: int, from_row: bool = True, cold: bool = False):
    """``(u_path, v_path, x_path, y_path, z_path)`` by solving one period at a time.

    Each period solves a one-point :func:`manifold._stacked_rows` row at
    ``u``; at order ``n >= 2`` it starts from the row before, shifted
    (:func:`shifted_row`), and the next state is its look-ahead point
    ``u_{n-1}``.  Order-1 rows start cold, and at orders 0 and 1 and, with
    ``from_row`` False, at every order, the next state is ``A u + F(u, v)``
    by one ``fg`` call.  After the first step to a state of norm at most
    1e-15 every later period is ``u = v = 0``.  Levels are mapped one
    period at a time; the path stops after the first period whose u leaves
    the policy's domain ball.  With ``cold`` True every row starts cold
    (:func:`eval_policy`), and the path runs to ``T`` with no floor.
    """
    from stablemanifold import eval_policy
    from stablemanifold.manifold import _stacked_rows

    sys = p.system
    u = np.atleast_1d(np.asarray(u0, dtype=float)).copy()
    n, k = p.order, p.order * sys.n_v  # u_{n-1} follows the values v_n, ..., v_1
    us, vs, start = [], [], None
    for t in range(T + 1):
        warm = not cold and n >= 2
        row = _stacked_rows(p, u[None], start=start)[0][0] if warm else None
        v = row[: sys.n_v] if warm else eval_policy(p, u)
        us.append(u.copy())
        vs.append(v.copy())
        if p.domain is not None and np.linalg.norm(u) > p.domain.r_u * (1 + 1e-12):
            break
        if t == T:
            break
        if from_row and n >= 2:
            u = (row if warm else _stacked_rows(p, u[None])[0][0])[k : k + sys.n_u]
        else:
            u = sys.split.A @ u + sys.fg(u, v)[0]
        if warm:
            start = shifted_row(sys, row, n)[None]
        if not cold and np.linalg.norm(u) <= 1e-15:
            us += [np.zeros(sys.n_u)] * (T - t)
            vs += [np.zeros(sys.n_v)] * (T - t)
            break
    n_z, n_x, _ = sys.dims
    levels = [sys.split.Z @ np.concatenate([u, v]) for u, v in zip(us, vs)]
    W = np.array(levels)
    return (np.array(us), np.array(vs), W[:, n_z : n_z + n_x] + sys.ss.x_bar,
            W[:, n_z + n_x :] + sys.ss.y_bar, W[:, :n_z])


def simulate_stochastic_stepwise(p, x0, z0, shocks, T: int):
    """``(u_path, v_path)`` of the certainty-equivalent path, re-solved pointwise each period.

    Each period runs :func:`solve_initial_pointwise` from the current
    ``(x, z)``, evaluates the policy there alone, and takes one closed-loop
    step to the next endogenous state.
    """
    from stablemanifold import eval_policy

    sys = p.system
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    z = np.atleast_1d(np.asarray(z0, dtype=float))
    us, vs = [], []
    for t in range(T + 1):
        u = solve_initial_pointwise(p, x, z)
        v = eval_policy(p, u)
        us.append(u)
        vs.append(v)
        if t < T:
            u_next = sys.split.A @ u + sys.fg(u, v)[0]
            x = sys.to_levels(u_next, eval_policy(p, u_next))[1]
            z = sys.lambda_mat @ z + shocks[t]
    return np.array(us), np.array(vs)


def schur_split_scipy(K: np.ndarray, n_u: int, eps_unit: float = 1e-8):
    """The split as the library computes it, with SciPy's sorted real Schur form.

    ``scipy.linalg.schur(sort="iuc")`` and ``solve_sylvester`` in place of
    the library's deflation and Bartels-Stewart solve, with the same
    unit-root, count and balancing checks and the same Stein balancing of
    ``A`` and ``inv(B)``, so it raises where that split raises.
    """
    from scipy.linalg import schur, solve_sylvester

    from stablemanifold.exceptions import BalancingError, BlanchardKahnError, UnitRootError
    from stablemanifold.spectral import SpectralSplit, _contracting_similarity

    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    eigvals = np.linalg.eigvals(K)
    if np.any(np.abs(np.abs(eigvals) - 1.0) < eps_unit):
        raise UnitRootError("eigenvalue near the unit circle")
    T, Q, sdim = schur(K, output="real", sort="iuc")
    if sdim != n_u or int(np.sum(np.abs(eigvals) < 1.0)) != n_u:
        raise BlanchardKahnError(found=int(sdim), required=n_u)
    n_v = n - n_u
    T11, T12, T22 = T[:n_u, :n_u], T[:n_u, n_u:], T[n_u:, n_u:]
    S = solve_sylvester(T11, -T22, -T12) if n_u and n_v else np.zeros((n_u, n_v))
    try:
        R = np.zeros((n, n))
        R[:n_u, :n_u] = _contracting_similarity(T11)
        R[n_u:, n_u:] = _contracting_similarity(np.linalg.inv(T22))
    except np.linalg.LinAlgError as exc:
        raise BalancingError("Stein balancing failed") from exc
    M, M_inv = np.eye(n), np.eye(n)
    M[:n_u, n_u:], M_inv[:n_u, n_u:] = S, -S
    R_inv = np.linalg.inv(R)
    P = R @ T @ R_inv  # its diagonal blocks are the balanced T11 and T22
    split = SpectralSplit(Z=Q @ M @ R_inv, Z_inv=R @ M_inv @ Q.T, A=P[:n_u, :n_u], B=P[n_u:, n_u:])
    if split.normA >= 1.0 or (n_v and split.normBinv >= 1.0):
        raise BalancingError("a balanced norm is not below one")
    gap = np.max(np.abs(split.Z @ split.P @ split.Z_inv - K)) if n else 0.0
    if gap > 1e-9 * max(1.0, np.max(np.abs(K))):
        raise BalancingError("similarity reconstruction residual exceeds tolerance")
    return split


def stress_matrices(seed: int = 0, sizes=range(2, 17)):
    """Seeded ``(kind, K, n_u)`` cases for the spectral split: every kind at every ``n_u``.

    ``K = V D V^-1`` with ``V`` a random basis of condition number below
    100 and ``D`` block diagonal: distinct real eigenvalues (``real``),
    2x2 rotation blocks for complex pairs, placed in the stable and in
    the unstable group (``complex``), repeated real eigenvalues
    (``repeated``), or Jordan blocks of size 2 (``jordan``) or of size 3
    (``jordan3``, size 2 where only two eigenvalues of a group are left).
    Stable moduli lie in [0.1, 0.9], unstable ones in [1.15, 3].
    """
    rng = np.random.default_rng(seed)
    kinds = ("real", "complex", "repeated", "jordan", "jordan3")

    def modulus(stable):
        return rng.uniform(0.1, 0.9) if stable else rng.uniform(1.15, 3.0)

    def group(size, stable, kind):
        blocks = []
        left = size
        while left:
            r = modulus(stable)
            if kind == "complex" and left >= 2 and rng.random() < 0.7:
                t = rng.uniform(0.2, 3.0)
                blocks.append(r * np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]))
                left -= 2
            elif kind.startswith("jordan") and left >= 2:
                m = min(left, 3 if kind == "jordan3" else 2)
                J = r * rng.choice([-1.0, 1.0]) * np.eye(m) + np.diag(rng.uniform(0.5, 1.5, m - 1), 1)
                blocks.append(J)
                left -= m
            elif kind == "repeated" and left >= 2:
                blocks.append(r * rng.choice([-1.0, 1.0]) * np.eye(2))
                left -= 2
            else:
                blocks.append(np.array([[r * rng.choice([-1.0, 1.0])]]))
                left -= 1
        return blocks

    for n in sizes:
        for n_u in range(n + 1):
            for kind in kinds:
                D = np.zeros((n, n))
                at = 0
                for block in group(n_u, True, kind) + group(n - n_u, False, kind):
                    m = block.shape[0]
                    D[at : at + m, at : at + m] = block
                    at += m
                while True:
                    V = rng.normal(size=(n, n))
                    if np.linalg.cond(V) < 100:
                        break
                yield kind, V @ D @ np.linalg.solve(V, np.eye(n)), n_u
