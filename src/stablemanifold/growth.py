"""Deterministic one-sector growth model with log utility and full depreciation.

The planner's Euler equation in levels reduces to a second-order
difference equation in capital, written here as a two-variable
first-order system: the state is current capital ``k`` and the control is
next-period capital.  The model has the closed-form policy
``k_next = alpha*beta*k**alpha``, which makes it the standard accuracy
benchmark: every approximation produced by the pipeline can be compared
against the exact solution on an arbitrarily large interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .first_order import FirstOrderSystem, build_first_order
from .manifold import PolicyApprox, _stacked_rows
from .model import ModelSpec, SteadyState, find_steady_state
from .spectral import (
    SpectralSplit,
    TransformedSystem,
    build_transformed,
    rescale_columns,
    schur_split,
)

Array = np.ndarray


def _pow(base, expo: float):
    # fractional powers of nonpositive bases signal an out-of-domain point:
    # NaN there, elementwise for arrays and without floating-point warnings
    if np.ndim(base) == 0:
        return float(base) ** expo if base > 0.0 else np.nan
    return np.power(np.where(base > 0.0, base, np.nan), expo)


@dataclass(frozen=True)
class GrowthParams:
    """Capital share ``alpha`` and discount factor ``beta``.

    ``alpha*beta < 1`` gives the saddle configuration (one eigenvalue at
    ``alpha``, one at ``1/(alpha*beta)``); ``alpha*beta = 1`` is accepted
    here so the unit-root guard downstream can be exercised.
    """

    alpha: float = 0.36
    beta: float = 0.99

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")

    @property
    def k_bar(self) -> float:
        """Steady-state capital ``(alpha*beta)**(1/(1-alpha))``."""
        return (self.alpha * self.beta) ** (1.0 / (1.0 - self.alpha))


def build_growth(params: GrowthParams, steady_guess: float = 0.15) -> ModelSpec:
    """Model specification for the growth economy, in levels.

    Variables: endogenous state ``x = k`` (capital), control
    ``y = k_next``; there are no exogenous states.  The residual is
    linear in next-period variables, so the nonlinear remainder involves
    only current-period values.  Analytic Jacobians are attached.
    """
    a, b = params.alpha, params.beta
    ab = a * b

    def residual(y_next, y, x_next, x, z):
        zeta_next, zeta, k = y_next[0], y[0], x[0]
        euler = zeta_next - (1.0 + ab) * _pow(zeta, a) + ab * _pow(k, a) * _pow(zeta, a - 1.0)
        transition = x_next[0] - zeta
        return np.array([euler, transition])

    def jacobians(y_next, y, x_next, x, z):
        zeta, k = y[0], x[0]
        d_euler_zeta = (
            -a * (1.0 + ab) * _pow(zeta, a - 1.0)
            + ab * (a - 1.0) * _pow(k, a) * _pow(zeta, a - 2.0)
        )
        d_euler_k = ab * a * _pow(k, a - 1.0) * _pow(zeta, a - 1.0)
        f1 = np.array([[1.0], [0.0]])
        f2 = np.array([[d_euler_zeta], [-1.0]])
        f3 = np.array([[0.0], [1.0]])
        f4 = np.array([[d_euler_k], [0.0]])
        f5 = np.zeros((2, 0))
        return f1, f2, f3, f4, f5

    return ModelSpec(
        n_x=1,
        n_y=1,
        n_z=0,
        residual=residual,
        lambda_mat=np.zeros((0, 0)),
        steady_guess=np.array([steady_guess, steady_guess]),
        jacobians=jacobians,
        linear_in_next=True,
    )


def closed_form(params: GrowthParams, k) -> float | Array:
    """Exact policy ``alpha*beta*k**alpha``; requires ``k > 0``."""
    k_arr = np.asarray(k, dtype=float)
    if np.any(k_arr <= 0.0):
        raise ValueError("capital must be positive")
    out = params.alpha * params.beta * k_arr ** params.alpha
    return float(out) if np.isscalar(k) else out


def taylor_policy(params: GrowthParams, order: int, k) -> float | Array:
    """Taylor expansion of the exact policy around the steady state.

    The m-th coefficient is ``alpha*beta * C(alpha, m) * k_bar**(alpha-m)``
    with the falling-factorial binomial ``C(alpha, m)``; used as the
    perturbation-solution comparator of the given order.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    k_arr = np.asarray(k, dtype=float)
    kb = params.k_bar
    dev = k_arr - kb
    coeff = params.alpha * params.beta
    out = np.full_like(dev, coeff * kb ** params.alpha)
    binom = 1.0
    for m in range(1, order + 1):
        binom *= (params.alpha - (m - 1)) / m
        out = out + coeff * binom * kb ** (params.alpha - m) * dev ** m
    return float(out) if np.isscalar(k) else out


@dataclass
class GrowthPipeline:
    """All stages of the solution pipeline for one parameterization."""

    params: GrowthParams
    model: ModelSpec
    ss: SteadyState
    first_order: FirstOrderSystem
    split: SpectralSplit
    system: TransformedSystem


def build_growth_pipeline(
    params: GrowthParams,
    steady_tol: float = 1e-14,
) -> GrowthPipeline:
    """Run model -> steady state -> first order -> spectral split -> transform.

    The basis columns are rescaled so the capital row of the transform is
    all ones, i.e. the capital deviation decomposes as
    ``k - k_bar = u + v``.  Results in original variables do not depend
    on this choice.
    """
    model = build_growth(params)
    ss = find_steady_state(model, tol=steady_tol)
    fos = build_first_order(model, ss)
    # a Newton root of the static system carries ~sqrt(steady_tol) error at
    # ill-conditioned calibrations, so eigenvalues inherit ~1e-6 uncertainty;
    # the unit-circle guard must be at least that wide here
    split = schur_split(fos.K, n_u=1, eps_unit=1e-6)
    split = rescale_columns(split, 1.0 / split.Z[0, :])
    system = build_transformed(fos, split)
    return GrowthPipeline(
        params=params,
        model=model,
        ss=ss,
        first_order=fos,
        split=split,
        system=system,
    )


def _bracket_bisect(
    f: Callable[[Array, Array], Array], center: Array, half: Array, grow: float, tries: int,
    floor: float | None, iters: int,
) -> Array:
    """Roots of ``f`` row by row, each by a bracket widened around its center, then Chandrupatla's steps.

    Row ``j``'s bracket ``[max(center[j] - half[j], floor), center[j] + half[j]]``
    grows by the factor ``grow`` up to ``tries`` times until ``f`` changes
    sign across it.  Up to ``iters`` steps of Chandrupatla's method follow
    (Chandrupatla 1997, *Adv. Eng. Software* 28(3)): the first point is the
    midpoint ``0.5 * (lo + hi)``; each later one is the inverse quadratic
    interpolant through the last three points when Chandrupatla's test
    accepts it, clipped to lie at least the stop tolerance inside the
    bracket, and the midpoint otherwise.  A row stops once its bracket is
    narrower than ``1e-15 * max(1, |x|)`` at its newest point ``x``.
    ``f(x, rows)`` returns the values at ``x`` of the rows ``rows``
    (indices into ``center``).  The rows run in lockstep, each with its own
    widenings, steps and stop test, so each evaluates ``f`` at the points a
    single-row search would; a stopped row is no longer evaluated.  Returns
    the midpoints of the final brackets, NaN where no bracket is found or
    ``f`` is not finite at a point inside it.
    """
    center = np.asarray(center, dtype=float)
    half = np.array(half, dtype=float)

    def ends(c: Array, h: Array) -> tuple[Array, Array]:
        return (c - h if floor is None else np.maximum(c - h, floor)), c + h

    def straddles(a: Array, b: Array) -> Array:
        with np.errstate(invalid="ignore", over="ignore"):
            return np.isfinite(a) & np.isfinite(b) & (a * b <= 0.0)

    act = np.arange(center.size)
    lo, hi = ends(center, half)
    f_lo, f_hi = f(lo, act), f(hi, act)
    ok = straddles(f_lo, f_hi)
    for _ in range(tries):
        act = np.flatnonzero(~ok)
        if not act.size:
            break
        half[act] *= grow
        lo[act], hi[act] = ends(center[act], half[act])
        f_lo[act], f_hi[act] = f(lo[act], act), f(hi[act], act)
        ok[act] = straddles(f_lo[act], f_hi[act])
    root = np.full(center.size, np.nan)
    act = np.flatnonzero(ok)
    lo, hi, f_lo, f_hi = lo[act], hi[act], f_lo[act], f_hi[act]
    x = 0.5 * (lo + hi)
    for _ in range(iters):
        if not act.size:
            break
        f_x = f(x, act)
        left = straddles(f_lo, f_x)  # the root lies in [lo, x]
        b, f_b = np.where(left, lo, hi), np.where(left, f_lo, f_hi)  # the end kept
        c, f_c = np.where(left, hi, lo), np.where(left, f_hi, f_lo)  # the end replaced
        lo, f_lo = np.where(left, lo, x), np.where(left, f_lo, f_x)
        hi, f_hi = np.where(left, x, hi), np.where(left, f_x, f_hi)
        tol = 1e-15 * np.maximum(1.0, np.abs(x))
        t_min = tol / np.abs(b - x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # Chandrupatla's test: the inverse quadratic through (x, b, c) is monotone
            xi, phi = (x - b) / (c - b), (f_x - f_b) / (f_c - f_b)
            quad = (phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi) & (t_min < 0.5)
            t = (f_x / (f_b - f_x) * f_c / (f_b - f_c)
                 + (c - x) / (b - x) * f_x / (f_c - f_x) * f_b / (f_c - f_b))
            x_next = np.where(quad, x + np.clip(t, t_min, 1.0 - t_min) * (b - x), 0.5 * (lo + hi))
        failed = ~np.isfinite(f_x)
        done = (hi - lo <= tol) | failed
        x = x_next
        if done.any():
            root[act[done]] = np.where(failed[done], np.nan, 0.5 * (lo[done] + hi[done]))
            going = ~done
            act, x, lo, hi, f_lo, f_hi = (r[going] for r in (act, x, lo, hi, f_lo, f_hi))
    root[act] = 0.5 * (lo + hi)
    return root


def policy_in_levels(
    policy: Callable[[Array], Array] | PolicyApprox,
    split: SpectralSplit,
    params: GrowthParams,
    k_values: Sequence[float],
) -> Array:
    """Evaluate an explicitly given capital policy on a grid of capital levels.

    ``policy`` maps rows ``(N, n_u)`` of u to rows ``(N, n_v)`` of v.  Each
    level's ``u`` solves ``k = Z[0,0] u + Z[0,1] policy(u) + k_bar``, all
    levels at once by :func:`_bracket_bisect` (one ``policy`` call per
    step), each bracket centered on the closed form's ``u`` and kept above
    the floor where capital turns nonpositive; returns ``k_next``.  Suited
    to explicit maps; the implicit orders go through
    :func:`implicit_policy_in_levels`, which stays well-posed where the
    u-parametrization folds.  Raises ``ValueError`` naming the first level
    that has no bracket.
    """
    kb = params.k_bar
    Z = split.Z
    k = np.array(k_values, dtype=float).reshape(-1)
    k_dev = k - kb
    u_floor = -kb / abs(Z[0, 0]) * (1.0 - 1e-10)

    def gap(u: Array, rows: Array) -> Array:
        return Z[0, 0] * u + Z[0, 1] * policy(u[:, None])[:, 0] + kb - k[rows]

    u_hint = split.Z_inv[0, 0] * k_dev + split.Z_inv[0, 1] * (closed_form(params, k) - kb)
    half = np.maximum(np.maximum(0.05 * np.abs(k_dev), 0.02 * kb), 1e-6)
    u = _bracket_bisect(gap, u_hint, half, 1.7, 60, u_floor, 200)
    failed = np.flatnonzero(np.isnan(u))
    if failed.size:
        raise ValueError(f"could not bracket the capital level {k[failed[0]]:.6g}")
    return Z[1, 0] * u + Z[1, 1] * policy(u[:, None])[:, 0] + kb


def implicit_policy_in_levels(
    system: TransformedSystem,
    params: GrowthParams,
    order: int,
    k_values: Sequence[float],
    inner_tol: float = 1e-13,
) -> Array:
    """Order-``order`` policy on a grid of capital levels, solved at fixed capital.

    Reads the change of basis of ``system``.

    Far from the steady state the graph of an approximate policy folds in
    the stable coordinate, so inverting ``u`` after an ordinary policy
    evaluation can have no solution on the branch the contraction
    iteration reaches.  Here the current capital level pins one equation,
    the stable coordinate is eliminated through it, and the implicit
    recursion is root-found in the single unknown ``v`` by
    :func:`_bracket_bisect`, seeded from the closed form.  Recursive
    lower-order evaluations happen near the steady state where the
    ordinary evaluator is reliable.

    All levels are solved in lockstep: each root-finding step is one
    batched ``fg`` call and one batched lower-order solve over the levels
    still searching.  The lower-order solve of level ``j`` is one stacked
    solve that starts from level ``j``'s solved row, values and look-ahead
    points, of its previous step.
    """
    if system.n_u != 1 or system.n_v != 1:
        raise ValueError("level-space evaluation requires scalar u and v")
    if order < 1:
        raise ValueError("order must be at least 1")
    kb = params.k_bar
    split = system.split
    Z = split.Z
    Z_inv = split.Z_inv
    b_inv = float(split.B_inv[0, 0])
    A_T = split.A.T
    k = np.array(k_values, dtype=float).reshape(-1)
    k_dev = k - kb
    inner = PolicyApprox(
        order=order - 1, system=system, inner_tol=inner_tol, inner_max_iter=400
    )
    # each capital level's lower-order stacked row (order - 1 values and order - 2
    # points), from its last step; NaN until it has one
    warm = np.full((k.size, max(2 * order - 3, 0)), np.nan)

    def psi(v: Array, rows: Array) -> Array:
        u = ((k_dev[rows] - Z[0, 1] * v) / Z[0, 0])[:, None]
        F_val, G_val = system.fg(u, v[:, None])
        finite = np.isfinite(F_val[:, 0]) & np.isfinite(G_val[:, 0])
        ahead = np.zeros(v.size)
        if order > 1 and finite.any():
            sel = slice(None) if finite.all() else finite
            # a failed lower-order solve is a NaN row, so psi is NaN there
            at = rows[sel]
            warm[at] = _stacked_rows(inner, u[sel] @ A_T + F_val[sel], warm[at])[0]
            ahead[sel] = warm[at, 0]
        out = v + b_inv * G_val[:, 0] - b_inv * ahead
        out[~finite] = np.nan
        return out

    # seed from the exact solution's coordinates: every approximation
    # order lies within a few 1e-3 of it, so a small bracket suffices
    # and never strays into the domain boundary (one product per level:
    # a batched product may round differently)
    v_hint = np.array([(Z_inv @ (kd, c - kb))[1] for kd, c in zip(k_dev, closed_form(params, k))])
    half = np.maximum(2e-3, 1e-3 * np.abs(k_dev))
    v = _bracket_bisect(psi, v_hint, half, 1.6, 40, None, 120)
    failed = np.flatnonzero(np.isnan(v))
    if failed.size:
        raise ValueError(f"could not bracket the policy value at k = {k[failed[0]]:.6g}")
    u = (k_dev - Z[0, 1] * v) / Z[0, 0]
    return Z[1, 0] * u + Z[1, 1] * v + kb
