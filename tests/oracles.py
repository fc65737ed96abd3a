"""Independent oracles for the growth benchmark, written from first principles.

Everything here is computed directly from the model's algebra (closed-form
policy, hand-derived linearization coefficients, explicit transformed
nonlinearity) so the tests never compare the pipeline against itself.
"""

from __future__ import annotations

import math

import numpy as np

from stablemanifold import GrowthParams
from stablemanifold._numdiff import jacobian
from stablemanifold.manifold import domain_samples


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
        jac = jacobian(lambda p: np.concatenate(sys.fg(p[:n_u], p[n_u:])), np.concatenate([u, v]))
        if not all(np.all(np.isfinite(a)) for a in (F_val, G_val, jac)):
            return math.inf, math.inf, False
        sup_G = max(sup_G, float(np.linalg.norm(G_val)))
        if float(np.linalg.norm(sys.split.A @ u + F_val)) > dom.r_u * (1.0 + 1e-12):
            cond3_ok = False
        lip = max(lip, float(np.linalg.norm(jac[:n_u], 2)), float(np.linalg.norm(jac[n_u:], 2)))
    return sup_G, lip, cond3_ok
