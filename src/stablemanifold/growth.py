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
from ._numdiff import damped_newton, value_and_jacobian
from .manifold import PolicyApprox, sweep_image
from .model import ModelSpec, SteadyState, find_steady_state
from .solver import _on_graph
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
    here so the unit-root guard downstream can be exercised.  ``beta``
    must be positive and finite.
    """

    alpha: float = 0.36
    beta: float = 0.99

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.beta < np.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")

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


def policy_in_levels(
    policy: Callable[[Array], Array] | PolicyApprox,
    system: TransformedSystem,
    k_values: Sequence[float],
) -> Array:
    """Evaluate an explicitly given capital policy on a grid of capital levels.

    ``policy`` maps rows ``(N, n_u)`` of u to rows ``(N, n_v)`` of v, in the
    basis of ``system``.  Each level's ``u`` solves
    ``Z[0,0] u + Z[0,1] policy(u) = k - k_bar``, all levels at once by the
    damped Newton of :func:`~stablemanifold.solver.solve_initial`, from
    the linear solution (one ``policy`` call per evaluation, stencil
    included), to a residual of ``4 eps max(1, |k|)``; returns ``k_next``
    read off the graph, the basis, ``k_bar`` and the steady-state
    ``k_next`` being those of ``system``.  Suited to explicit maps; the
    implicit orders go through :func:`implicit_policy_in_levels`, which
    stays well-posed where the u-parametrization folds.  Raises
    ``ValueError`` naming the first level whose solve fails; on growth,
    every level below capital 6.06e-6 fails, its difference stencil
    reaching nonpositive capital, where the map is undefined.
    """
    k = np.array(k_values, dtype=float).reshape(-1)

    def failure(reason: str, norm: float, row: int) -> ValueError:
        return ValueError(f"Newton {reason} (residual {norm:.3g}): could not solve on the "
                          f"policy graph at capital level {k[row]:.6g}")

    tol = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(k))
    U, V = _on_graph(policy, system, k[:, None] - system.ss.x_bar, tol, 50, failure)
    return system.to_levels(U, V)[2][:, 0]


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
    iteration reaches.  Here the capital level pins the first point of the
    order-``n`` stacked row instead: the row ``y`` holds ``v_n, ..., v_1``
    and the look-ahead points ``u_{n-1}, ..., u_1`` of :func:`picard`, and
    ``u_n = (k - k_bar - Z[0,1] v_n) / Z[0,0]``.  Each level's row is the
    fixed point ``T_k(y) = y`` of the sweep image ``T_k``
    (:func:`sweep_image`), solved by :func:`damped_newton` on
    ``T_k(y) - y``, all levels in lockstep.  The Jacobian of ``T_k`` comes
    from the same ``fg`` call as its value, on the row's pairs
    ``(u_l, v_l)`` stacked on their ``2(n_u + n_v)`` central-difference
    neighbours: the image is linear in the pairs' points and ``fg``
    values, so :func:`sweep_image` maps their derivatives as it maps them,
    and the stencil grows like ``n``.  Each row starts on the closed
    form's path, ``k_n = k`` and ``k_{l-1} = alpha beta k_l^alpha``.  A row
    stops once its increment ``|T_k(y) - y|`` is at most ``inner_tol``, and
    the policy value is read off the image ``T_k(y)``, so a returned value
    moves by at most ``inner_tol`` under one plain sweep, as in
    :func:`picard`.

    Raises
    ------
    ValueError
        If ``system`` has more than one ``u`` or ``v`` coordinate, ``order``
        is below 1, or the solve of some level fails; the message names the
        first such level.
    """
    if system.n_u != 1 or system.n_v != 1:
        raise ValueError("level-space evaluation requires scalar u and v")
    if order < 1:
        raise ValueError("order must be at least 1")
    kb = params.k_bar
    Z = system.split.Z
    k = np.array(k_values, dtype=float).reshape(-1)
    k_dev = k - kb
    n, d = order, 2 * order - 1
    # d(u_l, v_l)/dy for the pairs l = n, ..., 1 of a row y; u_n moves with v_n
    D = np.zeros((n, 2, d))
    D[range(n), 1, range(n)] = 1.0
    D[range(1, n), 0, range(n, d)] = 1.0
    D[0, 0, 0] = -Z[0, 1] / Z[0, 0]
    eye = np.eye(d)
    images = np.empty((k.size, d))  # each row's image at its last evaluation

    def fg_rows(Q: Array) -> Array:
        return np.hstack(system.fg(Q[:, :1], Q[:, 1:]))

    def evaluate(Y: Array, rows: Array) -> tuple[Array, Array]:
        N = Y.shape[0]
        Q = np.empty((N, n, 2))  # the pairs (u_l, v_l), l = n, ..., 1
        Q[:, 0, 0] = (k_dev[rows] - Z[0, 1] * Y[:, 0]) / Z[0, 0]
        Q[:, 1:, 0] = Y[:, n:]
        Q[:, :, 1] = Y[:, :n]
        val, jac = value_and_jacobian(fg_rows, Q.reshape(-1, 2))
        T = sweep_image(system, Q[:, :, 0].reshape(-1, 1), val[:, :1], val[:, 1:], None, n)
        images[rows] = T
        # the sweep maps each direction of the row, as rows (N, d, n) of the pairs' derivatives
        dFG = (jac.reshape(N, n, 2, 2) @ D).transpose(0, 3, 1, 2)
        dP = np.broadcast_to(D[:, 0, :].T, (N, d, n))
        dT = sweep_image(system, dP.reshape(-1, 1), dFG[..., 0].reshape(-1, 1),
                         dFG[..., 1].reshape(-1, 1), None, n)
        return T - Y, dT.reshape(N, d, d).transpose(0, 2, 1) - eye

    def failure(reason: str, increment: float, row: int) -> ValueError:
        return ValueError(f"could not solve the order-{order} policy at k = {k[row]:.6g} "
                          f"(Newton {reason}, increment {increment:.3g})")

    # start on the closed form's path k_n = k, k_{l-1} = alpha beta k_l^alpha, in (u, v)
    path = [k]
    for _ in range(n):
        path.append(closed_form(params, path[-1]))
    path = np.stack(path, axis=1) - kb
    coords = np.stack([path[:, :-1], path[:, 1:]], axis=2) @ system.split.Z_inv.T
    Y0 = np.concatenate((coords[:, :, 1], coords[:, 1:, 0]), axis=1)
    _, increment = damped_newton(evaluate, Y0, inner_tol, 50, failure)
    failed = np.flatnonzero(~(increment <= inner_tol))
    if failed.size:  # the start already lies outside the map's domain
        raise failure("undefined at the start", float(increment[failed[0]]), failed[0])
    v = images[:, 0]
    u = (k_dev - Z[0, 1] * v) / Z[0, 0]
    return Z[1, 0] * u + Z[1, 1] * v + kb
