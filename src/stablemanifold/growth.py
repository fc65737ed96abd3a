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

import numpy as np

from .first_order import FirstOrderSystem, build_first_order
from .model import ModelSpec, SteadyState, find_steady_state
from .spectral import (
    SpectralSplit,
    TransformedSystem,
    build_transformed,
    rescale_columns,
    schur_split,
)

Array = np.ndarray


@dataclass(frozen=True)
class GrowthParams:
    """Capital share ``alpha`` and discount factor ``beta``.

    ``alpha*beta < 1`` gives the saddle configuration (one eigenvalue at
    ``alpha``, one at ``1/(alpha*beta)``); ``alpha*beta = 1`` is accepted
    here so the unit-root guard downstream can be exercised.  ``beta``
    must be positive, finite and at most ``1/alpha``: above it, Newton
    misses ``k_bar > 1`` for the static residual's spurious root ``k = 1``.
    """

    alpha: float = 0.36
    beta: float = 0.99

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.beta < np.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if self.beta > 1.0 / self.alpha:
            raise ValueError(f"beta must be at most 1/alpha = {1.0 / self.alpha:.6g}, "
                             f"got {self.beta}")

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

    def positive(base):
        # fractional powers of nonpositive capital signal an out-of-domain point:
        # NaN there, elementwise and without floating-point warnings
        return np.where(base > 0.0, base, np.nan)

    def residual(y_next, y, x_next, x, z):
        zeta_next, zeta, k = y_next[0], positive(y[0]), positive(x[0])
        euler = zeta_next - (1.0 + ab) * zeta**a + ab * k**a * zeta ** (a - 1.0)
        transition = x_next[0] - y[0]
        return np.array([euler, transition])

    def jacobians(y_next, y, x_next, x, z):
        zeta, k = positive(y[0]), positive(x[0])
        d_euler_zeta = (
            -a * (1.0 + ab) * zeta ** (a - 1.0)
            + ab * (a - 1.0) * k**a * zeta ** (a - 2.0)
        )
        d_euler_k = ab * a * k ** (a - 1.0) * zeta ** (a - 1.0)
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
    split = schur_split(fos.K, n_u=1)
    split = rescale_columns(split, 1.0 / split.Z[0, :])
    return GrowthPipeline(params=params, model=model, ss=ss, first_order=fos, split=split,
                          system=build_transformed(fos, split))


def closed_form_start(system: TransformedSystem, params: GrowthParams, order: int, k) -> Array:
    """Start rows for :func:`~stablemanifold.solver.policy_at_levels` on the closed form's path.

    Each capital level ``k`` gives the path ``k_n = k``, ``k_{l-1} = alpha beta k_l^alpha``,
    as the stacked order-``order`` row ``v_n ... v_1, u_{n-1} ... u_1`` in the basis of
    ``system``.  The benchmark grid (11 to 501 levels from 0.01 to 5 ``k_bar``) costs
    5/4/3 ``fg`` calls from it at orders 1/2/3 to 1e-12, against 7-8 from the linear start.
    """
    path = [np.asarray(k, dtype=float).reshape(-1)]
    for _ in range(order):
        path.append(closed_form(params, path[-1]))
    path = np.stack(path, axis=1) - system.ss.x_bar
    coords = np.stack([path[:, :-1], path[:, 1:]], axis=2) @ system.split.Z_inv.T
    return np.concatenate((coords[:, :, 1], coords[:, 1:, 0]), axis=1)
