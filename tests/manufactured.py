"""A manufactured stable manifold on a complex pair: an exact nonlinear oracle with ``n_u = 2``.

In coordinates ``x = (u, v)``, with ``u`` in the plane and ``v`` scalar,
the system is ``u' = A u + F(u, v)``, ``v' = B v + G(u, v)`` with
``A = 0.5 rot(0.7)``, so the stable block is a complex pair, and
``B = [[2]]``.  The manifold ``v = phi(u)`` for the quadratic

    ``phi(u) = 0.3 u_1^2 - 0.2 u_1 u_2 + 0.1 u_2^2``

is made invariant by choosing ``G`` (Roache's method of manufactured
solutions):

    ``G(u, v) = phi(A u + F) - B phi(u) + g(u, v) - g(u, phi(u))``,

with ``F(u, v) = 0.1 v (u_2, -u_1)`` and ``g(u, v) = 0.2 v u_1``.  Then on
``v = phi(u)`` the next ``v`` is ``phi`` of the next ``u``, and ``F``,
``G`` vanish with their derivatives at the origin.

:func:`build_system` hides that basis behind a random one: the model is
``w' = K w + Z (F, G)(Z^-1 w)`` for ``K = Z diag(A, B) Z^-1``, and the
solver sees it through its own Schur split of ``K``, as
``tests/oracles.quadratic_stress_systems`` builds its systems.  A policy
``v' = h(u')`` in the split's coordinates maps back through ``Z^-1`` to
points ``(u, v)`` that should lie on ``v = phi(u)``.
"""

from __future__ import annotations

import numpy as np

from stablemanifold import SteadyState, TransformedSystem, schur_split

A = 0.5 * np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
B = np.array([[2.0]])


def phi(U: np.ndarray) -> np.ndarray:
    """The exact manifold ``v = phi(u)`` at rows ``U`` ``(N, 2)``, as rows ``(N, 1)``."""
    u1, u2 = U[:, :1], U[:, 1:]
    return 0.3 * u1**2 - 0.2 * u1 * u2 + 0.1 * u2**2


def _g(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    return 0.2 * V * U[:, :1]


def F(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    return 0.1 * V * np.hstack([U[:, 1:], -U[:, :1]])


def G(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    return phi(U @ A.T + F(U, V)) - phi(U) @ B.T + _g(U, V) - _g(U, phi(U))


def basis(seed: int) -> np.ndarray:
    """``Z = I + 0.5 N(0, 1)^{3x3}`` from ``default_rng(seed)``, redrawn until cond(``Z``) < 20."""
    rng = np.random.default_rng(seed)
    while True:
        Z = np.eye(3) + 0.5 * rng.normal(size=(3, 3))
        if np.linalg.cond(Z) < 20:
            return Z


def build_system(seed: int) -> tuple[TransformedSystem, np.ndarray]:
    """The manufactured model seen through :func:`basis` ``Z``, split by ``schur_split``, and ``Z``."""
    Z = basis(seed)
    Z_inv = np.linalg.inv(Z)
    D = np.zeros((3, 3))
    D[:2, :2], D[2:, 2:] = A, B

    def nonlinear(w: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(w) @ Z_inv.T
        U, V = X[:, :2], X[:, 2:]
        out = np.hstack([F(U, V), G(U, V)]) @ Z.T
        return out if np.ndim(w) == 2 else out[0]

    system = TransformedSystem(
        split=schur_split(Z @ D @ Z_inv, 2), nonlinear=nonlinear,
        ss=SteadyState(y_bar=np.zeros(1), x_bar=np.zeros(2), residual_norm=0.0),
        dims=(0, 2, 1), lambda_mat=np.zeros((0, 0)),
    )
    return system, Z


def manifold_error(system: TransformedSystem, Z: np.ndarray, U: np.ndarray, V: np.ndarray) -> float:
    """Sup of ``|v - phi(u)|`` over the split's rows ``(U, V)``, mapped back through ``Z^-1``."""
    X = np.hstack([U, V]) @ system.split.Z.T @ np.linalg.inv(Z).T
    return float(np.max(np.abs(X[:, 2:] - phi(X[:, :2]))))


def invariance_defect(U: np.ndarray) -> float:
    """Sup of ``|v' - phi(u')|`` one step from the rows ``(U, phi(U))`` in the manufactured basis."""
    V = phi(U)
    return float(np.max(np.abs(V @ B.T + G(U, V) - phi(U @ A.T + F(U, V)))))
