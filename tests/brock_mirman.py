"""Brock-Mirman growth with a productivity shock: an exact oracle with ``n_u = 2``.

Log utility, full depreciation, output ``e^z k^alpha`` and ``z' = rho_z z``.
With ``zeta = k'`` as the control, the Euler equation is

    ``zeta' - (1 + alpha beta) e^{rho_z z} zeta^alpha
    + alpha beta e^{(1 + rho_z) z} zeta^(alpha - 1) k^alpha = 0``

and the transition is ``k' - zeta = 0``.  The residual is linear in the
next-period variables; ``linear_in_next=False`` sends it through the
remainder's inner Newton solve instead.  On every shock path the policy is
``k' = alpha beta e^z k^alpha``, and the stable eigenvalues are ``alpha``
and ``rho_z``.

The CLI loads it with ``[model] name = tests/brock_mirman.py``, which
calls :func:`build_model` with its defaults.
"""

from __future__ import annotations

import numpy as np

from stablemanifold import ModelSpec

ALPHA = 0.36
BETA = 0.99
K_BAR = (ALPHA * BETA) ** (1.0 / (1.0 - ALPHA))


def _pow(base, expo: float):
    # NaN at nonpositive capital: outside the model's domain
    return np.power(np.where(base > 0.0, base, np.nan), expo)


def closed_form(k, z):
    """The exact policy ``k' = alpha beta e^z k^alpha``."""
    return ALPHA * BETA * np.exp(z) * np.power(k, ALPHA)


def build_model(rho_z: float = 0.9, linear_in_next: bool = True) -> ModelSpec:
    """The model in levels: ``z`` exogenous, ``x = k``, ``y = zeta = k'``."""
    ab = ALPHA * BETA

    def residual(y_next, y, x_next, x, z):
        zeta_next, zeta, k, shock = y_next[0], y[0], x[0], z[0]
        euler = (zeta_next - (1.0 + ab) * np.exp(rho_z * shock) * _pow(zeta, ALPHA)
                 + ab * np.exp((1.0 + rho_z) * shock) * _pow(zeta, ALPHA - 1.0) * _pow(k, ALPHA))
        return np.array([euler, x_next[0] - zeta])

    return ModelSpec(
        n_x=1,
        n_y=1,
        n_z=1,
        residual=residual,
        lambda_mat=np.array([[rho_z]]),
        steady_guess=np.array([0.15, 0.15]),
        linear_in_next=linear_in_next,
    )
