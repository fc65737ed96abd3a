"""Growth with CRRA utility and partial depreciation: a standard calibration with no closed form.

Utility ``c^(1 - sigma) / (1 - sigma)``, output ``e^z k^alpha``,
depreciation ``delta`` and ``z' = rho_z z``, with consumption ``c`` as the
control.  The Euler equation, scaled by marginal utility at the steady
state, and the budget are

    ``[beta c'^(-sigma) (alpha e^{rho_z z} k'^(alpha - 1) + 1 - delta) - c^(-sigma)] / c_bar^(-sigma) = 0``,
    ``k' - (e^z k^alpha + (1 - delta) k - c) = 0``,

so the residual is nonlinear in next-period variables and the remainder
solves for them by its inner Newton iteration.  At the defaults the
stable roots are ``rho_z`` and about 0.923, near the unit circle, where
every closed-form model in the tests has them at most 0.9.

The CLI loads it with ``[model] name = tests/crra_growth.py``, which
calls :func:`build_model` with its defaults.
"""

from __future__ import annotations

import numpy as np

from stablemanifold import ModelSpec

ALPHA = 0.36
BETA = 0.99


def _pow(base, expo: float):
    # NaN at nonpositive capital or consumption: outside the model's domain
    return np.power(np.where(base > 0.0, base, np.nan), expo)


def steady_state(delta: float = 0.1) -> tuple[float, float]:
    """``(k_bar, c_bar)``, from ``beta (alpha k^(alpha - 1) + 1 - delta) = 1`` and the budget."""
    k_bar = (ALPHA / (1.0 / BETA - 1.0 + delta)) ** (1.0 / (1.0 - ALPHA))
    return k_bar, k_bar**ALPHA - delta * k_bar


def build_model(sigma: float = 2.0, delta: float = 0.1, rho_z: float = 0.9) -> ModelSpec:
    """The model in levels: ``z`` exogenous, ``x = k``, ``y = c``."""
    k_bar, c_bar = steady_state(delta)
    scale = c_bar**sigma  # 1 / c_bar^(-sigma)

    def residual(y_next, y, x_next, x, z):
        c_next, c, k_next, k, shock = y_next[0], y[0], x_next[0], x[0], z[0]
        gross = ALPHA * np.exp(rho_z * shock) * _pow(k_next, ALPHA - 1.0) + 1.0 - delta
        euler = (BETA * _pow(c_next, -sigma) * gross - _pow(c, -sigma)) * scale
        budget = k_next - (np.exp(shock) * _pow(k, ALPHA) + (1.0 - delta) * k - c)
        return np.array([euler, budget])

    return ModelSpec(
        n_x=1,
        n_y=1,
        n_z=1,
        residual=residual,
        lambda_mat=np.array([[rho_z]]),
        steady_guess=np.array([1.3, 6.4]),
        linear_in_next=False,
    )
