"""N Brock-Mirman economies seen through fixed mixing maps: an exact oracle with ``n_v = N``.

Economy ``i`` has its own ``alpha_i``, its own shock persistence
``rho_i`` and the Euler equation and transition of
``tests/brock_mirman.py``, so its policy is ``k_i' = alpha_i beta e^{s_i}
k_i^{alpha_i}``.  The model's variables are mixtures of the economies':
states ``x = M_x k``, controls ``y = M_y zeta`` and shocks ``z = M_z s``,
with ``z' = Lambda z`` for ``Lambda = M_z diag(rho) M_z^-1``.  Each
mixing map is the identity plus uniform ``[0, 0.3)`` entries, scaled to
unit row sums, so it is positive and well conditioned, and the linearization
couples every coordinate: the first oracle with ``n_v >= 2``, so a
non-scalar ``B``.  The stable eigenvalues are the ``alpha_i`` and the
``rho_i``.  The residual is linear in next-period variables;
``linear_in_next=False`` sends it through the remainder's inner Newton solve.

The CLI loads it with ``[model] name = tests/mixed_bm.py``, which calls
:func:`build_model` with its defaults (two economies, seed 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stablemanifold import ModelSpec

BETA = 0.99


@dataclass(frozen=True)
class Draws:
    """The economies' parameters and the three mixing maps of one seed."""

    alpha: np.ndarray
    rho: np.ndarray
    M_x: np.ndarray
    M_y: np.ndarray
    M_z: np.ndarray

    @property
    def k_bar(self) -> np.ndarray:
        """Each economy's steady-state capital ``(alpha_i beta)^(1 / (1 - alpha_i))``."""
        return (self.alpha * BETA) ** (1.0 / (1.0 - self.alpha))

    def closed_form(self, x, z) -> np.ndarray:
        """The exact next state ``M_x k'`` at the mixed state ``x`` and shock ``z`` (rows of points)."""
        k, s = np.linalg.solve(self.M_x, np.asarray(x).T), np.linalg.solve(self.M_z, np.asarray(z).T)
        return (self.M_x @ (self.alpha[:, None] * BETA * np.exp(s) * k ** self.alpha[:, None])).T


def draws(N: int = 2, seed: int = 0) -> Draws:
    """``alpha``, then ``rho``, then ``M_x``, ``M_y`` and ``M_z`` from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    alpha, rho = rng.uniform(0.25, 0.45, N), rng.uniform(0.5, 0.9, N)
    maps = []
    for _ in range(3):
        M = np.eye(N) + rng.uniform(0.0, 0.3, (N, N))
        maps.append(M / M.sum(axis=1, keepdims=True))
    return Draws(alpha, rho, *maps)


def _pow(base, expo):
    # NaN at nonpositive capital: outside the model's domain
    return np.power(np.where(base > 0.0, base, np.nan), expo)


def build_model(N: int = 2, seed: int = 0, linear_in_next: bool = True) -> ModelSpec:
    """The mixed model: ``z`` exogenous, ``x = M_x k``, ``y = M_y zeta`` with ``zeta = k'``.

    The residual takes 1-D points or ``(n, K)`` columns of ``K`` points.
    """
    d = draws(N, seed)
    inv_x, inv_y, inv_z = (np.linalg.inv(M) for M in (d.M_x, d.M_y, d.M_z))

    def residual(y_next, y, x_next, x, z):
        zeta_next, zeta, k_next, k, s = (inv @ v for inv, v in (
            (inv_y, y_next), (inv_y, y), (inv_x, x_next), (inv_x, x), (inv_z, z)))
        a, r = (p if s.ndim == 1 else p[:, None] for p in (d.alpha, d.rho))
        euler = (zeta_next - (1.0 + a * BETA) * np.exp(r * s) * _pow(zeta, a)
                 + a * BETA * np.exp((1.0 + r) * s) * _pow(zeta, a - 1.0) * _pow(k, a))
        return np.concatenate([euler, k_next - zeta])

    return ModelSpec(
        n_x=N,
        n_y=N,
        n_z=N,
        residual=residual,
        lambda_mat=d.M_z @ np.diag(d.rho) @ inv_z,
        steady_guess=np.concatenate([d.M_y @ d.k_bar, d.M_x @ d.k_bar]),
        linear_in_next=linear_in_next,
    )
