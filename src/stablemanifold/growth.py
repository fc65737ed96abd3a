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

from .exceptions import NonContractionError
from .first_order import FirstOrderSystem, build_first_order
from .manifold import DomainSpec, PolicyApprox, eval_policy
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
    return np.power(base, expo, out=np.full(np.shape(base), np.nan), where=base > 0.0)


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
    normalize: bool = True,
) -> GrowthPipeline:
    """Run model -> steady state -> first order -> spectral split -> transform.

    With ``normalize=True`` the basis columns are rescaled so the
    capital row of the transform is all ones, i.e. the capital deviation
    decomposes as ``k - k_bar = u + v``.  Results in original variables
    do not depend on this choice.
    """
    model = build_growth(params)
    ss = find_steady_state(model, tol=steady_tol)
    fos = build_first_order(model, ss)
    # a Newton root of the static system carries ~sqrt(steady_tol) error at
    # ill-conditioned calibrations, so eigenvalues inherit ~1e-6 uncertainty;
    # the unit-circle guard must be at least that wide here
    split = schur_split(fos.K, n_u=1, eps_unit=1e-6)
    if normalize:
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


def parametric_policy(
    policy: Callable[[Array], Array] | PolicyApprox,
    split: SpectralSplit,
    params: GrowthParams,
    u_grid: Sequence[float],
) -> Array:
    """Graph of the capital policy traced by the transformed coordinate.

    For each ``u`` in the grid, returns the pair ``(k, k_next)`` obtained
    by pushing ``(u, policy(u))`` through the change of basis and adding
    back the steady state.  ``policy`` may be a policy evaluator or any
    map from u to v.
    """
    kb = params.k_bar
    out = np.empty((len(u_grid), 2))
    for i, u in enumerate(u_grid):
        uv = np.concatenate([np.atleast_1d(float(u)), np.atleast_1d(policy(np.atleast_1d(float(u))))])
        w = split.Z @ uv
        out[i, 0] = w[0] + kb
        out[i, 1] = w[1] + kb
    return out


def _bracket_bisect(
    f: Callable[[float], float], center: float, half: float, grow: float, tries: int,
    floor: float | None, iters: int,
) -> float | None:
    """Root of ``f`` by a bracket widened around ``center``, then bisection.

    The bracket ``[max(center - half, floor), center + half]`` grows by the
    factor ``grow`` up to ``tries`` times until ``f`` changes sign across
    it; ``iters`` bisection steps follow.  Returns None if no bracket is
    found.
    """

    def ends(half: float) -> tuple[float, float]:
        lo = center - half if floor is None else max(center - half, floor)
        return lo, center + half

    def straddles(a: float, b: float) -> bool:
        return bool(np.isfinite(a) and np.isfinite(b) and a * b <= 0.0)

    lo, hi = ends(half)
    f_lo, f_hi = f(lo), f(hi)
    for _ in range(tries):
        if straddles(f_lo, f_hi):
            break
        half *= grow
        lo, hi = ends(half)
        f_lo, f_hi = f(lo), f(hi)
    if not straddles(f_lo, f_hi):
        return None
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if straddles(f_lo, f_mid):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo <= 1e-15 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def capital_to_u(
    policy: Callable[[Array], Array],
    split: SpectralSplit,
    params: GrowthParams,
    k: float,
    bracket_center: float | None = None,
) -> float:
    """Invert ``k(u) = Z[0,0] u + Z[0,1] policy(u) + k_bar`` by bisection.

    ``bracket_center`` seeds the search (continuation along a grid); the
    bracket widens geometrically until the target is straddled, staying
    above the domain floor where capital would turn nonpositive.
    """
    kb = params.k_bar
    z_u, z_v = split.Z[0, 0], split.Z[0, 1]
    u_floor = -kb / abs(z_u) * (1.0 - 1e-10)

    def k_of_u(u: float) -> float:
        v = policy(np.atleast_1d(u))
        return z_u * u + z_v * float(v[0]) + kb

    center = bracket_center if bracket_center is not None else (k - kb) / z_u
    half = max(0.05 * abs(k - kb), 0.02 * kb, 1e-6)
    u = _bracket_bisect(lambda u: k_of_u(u) - k, center, half, 1.7, 60, u_floor, 200)
    if u is None:
        raise ValueError(f"could not bracket the capital level {k:.6g}")
    return u


def policy_in_levels(
    policy: Callable[[Array], Array] | PolicyApprox,
    split: SpectralSplit,
    params: GrowthParams,
    k_values: Sequence[float],
) -> Array:
    """Evaluate an explicitly given capital policy on a grid of capital levels.

    Inverts the parametric representation at each grid point by bisection
    in the stable coordinate (with continuation from the previous grid
    point) and returns ``k_next``.  Suitable for explicit maps; the
    implicit policy orders should go through
    :func:`implicit_policy_in_levels`, which stays well-posed where the
    u-parametrization folds.
    """
    kb = params.k_bar
    z_rows = split.Z
    out = np.empty(len(k_values))
    prev_u: float | None = None
    for i, k in enumerate(k_values):
        u = capital_to_u(policy, split, params, float(k), bracket_center=prev_u)
        v = policy(np.atleast_1d(u))
        out[i] = z_rows[1, 0] * u + z_rows[1, 1] * float(v[0]) + kb
        prev_u = u
    return out


def implicit_policy_in_levels(
    system: TransformedSystem,
    split: SpectralSplit,
    params: GrowthParams,
    order: int,
    k_values: Sequence[float],
    inner_tol: float = 1e-13,
    inner_max_iter: int = 400,
    domain: DomainSpec | None = None,
    memo: bool = True,
) -> Array:
    """Order-``order`` policy on a grid of capital levels, solved at fixed capital.

    Far from the steady state the graph of an approximate policy folds in
    the stable coordinate, so inverting ``u`` after an ordinary policy
    evaluation can have no solution on the branch the contraction
    iteration reaches.  Here the current capital level pins one equation,
    the stable coordinate is eliminated through it, and the implicit
    recursion is root-found in the single unknown ``v`` by bracketed
    bisection, seeded from the closed form.  Recursive lower-order
    evaluations happen near the steady state where the ordinary evaluator
    is reliable.
    """
    if system.n_u != 1 or system.n_v != 1:
        raise ValueError("level-space evaluation requires scalar u and v")
    if order < 1:
        raise ValueError("order must be at least 1")
    kb = params.k_bar
    Z = split.Z
    Z_inv = split.Z_inv
    b_inv = float(split.B_inv[0, 0])
    A = split.A
    inner = (
        PolicyApprox(
            order=order - 1,
            system=system,
            inner_tol=inner_tol,
            inner_max_iter=inner_max_iter,
            domain=domain,
            memo=memo and domain is not None,
        )
        if order > 1
        else None
    )

    def solve_one(k: float, v_hint: float) -> tuple[float, float]:
        k_dev = k - kb

        def psi(v: float) -> float:
            u = np.array([(k_dev - Z[0, 1] * v) / Z[0, 0]])
            vv = np.array([v])
            F_val, G_val = system.fg(u, vv)
            if not (np.isfinite(F_val[0]) and np.isfinite(G_val[0])):
                return np.nan
            if inner is None:
                ahead = 0.0
            else:
                try:
                    ahead = float(eval_policy(inner, A @ u + F_val)[0])
                except NonContractionError:
                    return np.nan
            return v + b_inv * float(G_val[0]) - b_inv * ahead

        half = max(2e-3, 1e-3 * abs(k_dev))
        v = _bracket_bisect(psi, v_hint, half, 1.6, 40, None, 120)
        if v is None:
            raise ValueError(f"could not bracket the policy value at k = {k:.6g}")
        u = (k_dev - Z[0, 1] * v) / Z[0, 0]
        return u, v

    out = np.empty(len(k_values))
    for i, k in enumerate(k_values):
        k = float(k)
        # seed from the exact solution's coordinates: every approximation
        # order lies within a few 1e-3 of it, so a small bracket suffices
        # and never strays into the domain boundary
        dev = np.array([k - kb, closed_form(params, k) - kb])
        v_hint = float((Z_inv @ dev)[1])
        u, v = solve_one(k, v_hint)
        out[i] = Z[1, 0] * u + Z[1, 1] * v + kb
    return out
