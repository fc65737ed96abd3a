"""Brock-Mirman growth in consumption form: an exact oracle nonlinear in next-period variables.

Log utility, full depreciation, output ``e^z k^alpha`` and ``z' = rho_z z``,
with consumption ``c`` as the control.  The Euler equation and the budget
are

    ``c' - alpha beta e^{rho_z z} k'^(alpha - 1) c = 0``,
    ``k' - (e^z k^alpha - c) = 0``,

so the residual is nonlinear in next-period capital ``k'`` and the
remainder solves for the next-period variables by its inner Newton
iteration.  On every shock path the policy is ``c = (1 - alpha beta) e^z
k^alpha``, so ``k' = alpha beta e^z k^alpha``; the stable eigenvalues are
``alpha`` and ``rho_z``.

The CLI loads it with ``[model] name = tests/brock_mirman_c.py``, which
calls :func:`build_model` with its defaults.
"""

from __future__ import annotations

import numpy as np

import stablemanifold
from stablemanifold import ModelSpec, TransformedSystem

ALPHA = 0.36
BETA = 0.99
K_BAR = (ALPHA * BETA) ** (1.0 / (1.0 - ALPHA))


def _pow(base, expo: float):
    # NaN at nonpositive capital: outside the model's domain
    return np.power(np.where(base > 0.0, base, np.nan), expo)


def closed_form(k, z):
    """The exact consumption policy ``c = (1 - alpha beta) e^z k^alpha``."""
    return (1.0 - ALPHA * BETA) * np.exp(z) * np.power(k, ALPHA)


def build_model(rho_z: float = 0.9) -> ModelSpec:
    """The model in levels: ``z`` exogenous, ``x = k``, ``y = c``."""
    ab = ALPHA * BETA

    def residual(y_next, y, x_next, x, z):
        c_next, c, k_next, k, shock = y_next[0], y[0], x_next[0], x[0], z[0]
        euler = c_next - ab * np.exp(rho_z * shock) * _pow(k_next, ALPHA - 1.0) * c
        return np.array([euler, k_next - (np.exp(shock) * _pow(k, ALPHA) - c)])

    return ModelSpec(
        n_x=1,
        n_y=1,
        n_z=1,
        residual=residual,
        lambda_mat=np.array([[rho_z]]),
        steady_guess=np.array([0.35, 0.2]),
        linear_in_next=False,
    )


def build_system(rho_z: float = 0.9) -> TransformedSystem:
    """The model's transformed system, built as the CLI builds a module model."""
    return stablemanifold.build_system(build_model(rho_z), 1e-13)
