"""Manufactured stable manifolds: exact nonlinear oracles on a complex pair and on a Jordan block.

In coordinates ``x = (u, v)`` each case is the system ``u' = A u + F(u, v)``,
``v' = B v + G(u, v)`` whose manifold ``v = phi(u)`` is made invariant by
choosing ``G`` (Roache's method of manufactured solutions):

    ``G(u, v) = phi(A u + F) - B phi(u) + g(u, v) - g(u, phi(u))``.

Then on ``v = phi(u)`` the next ``v`` is ``phi`` of the next ``u``, and ``F``,
``G`` vanish with their derivatives at the origin.  There are two cases:

* :data:`COMPLEX`: ``u`` in the plane and ``v`` scalar, ``A = 0.5 rot(0.7)``,
  so the stable block is a complex pair, ``B = [[2]]``,
  ``phi(u) = 0.3 u_1^2 - 0.2 u_1 u_2 + 0.1 u_2^2``,
  ``F(u, v) = 0.1 v (u_2, -u_1)`` and ``g(u, v) = 0.2 v u_1``;
* :data:`JORDAN`: ``u`` scalar and ``v`` in the plane, ``A = [[0.5]]`` and
  ``B = [[2, 1], [0, 2]]``, a Jordan block, ``phi(u) = (0.3 u^2,
  -0.2 u^2 + 0.1 u^3)``, ``F(u, v) = 0.1 u v_1`` and ``g(u, v) = 0.2 v u``.

:func:`build_system` hides that basis behind a random one: the model is
``w' = K w + Z (F, G)(Z^-1 w)`` for ``K = Z diag(A, B) Z^-1``, and the
solver sees it through its own Schur split of ``K``, as
``tests/oracles.quadratic_stress_systems`` builds its systems.  A policy
``v' = h(u')`` in the split's coordinates maps back through ``Z^-1`` to
points ``(u, v)`` that should lie on ``v = phi(u)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from stablemanifold import SteadyState, TransformedSystem, schur_split


@dataclass(frozen=True)
class Case:
    """One manufactured model: the blocks ``A`` and ``B``, the manifold ``phi`` and the maps ``F`` and ``g``.

    ``phi``, ``F`` and ``g`` take rows ``U`` ``(N, n_u)`` (and ``V``
    ``(N, n_v)``) and return rows ``(N, n_v)``, ``(N, n_u)`` and ``(N, n_v)``.
    """

    A: np.ndarray
    B: np.ndarray
    phi: Callable[[np.ndarray], np.ndarray]
    F: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]

    @property
    def n_u(self) -> int:
        return self.A.shape[0]

    def G(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        phi_U = self.phi(U)
        return (self.phi(U @ self.A.T + self.F(U, V)) - phi_U @ self.B.T
                + self.g(U, V) - self.g(U, phi_U))


COMPLEX = Case(
    A=0.5 * np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]]),
    B=np.array([[2.0]]),
    phi=lambda U: 0.3 * U[:, :1]**2 - 0.2 * U[:, :1] * U[:, 1:] + 0.1 * U[:, 1:]**2,
    F=lambda U, V: 0.1 * V * np.hstack([U[:, 1:], -U[:, :1]]),
    g=lambda U, V: 0.2 * V * U[:, :1],
)

JORDAN = Case(
    A=np.array([[0.5]]),
    B=np.array([[2.0, 1.0], [0.0, 2.0]]),
    phi=lambda U: np.hstack([0.3 * U**2, -0.2 * U**2 + 0.1 * U**3]),
    F=lambda U, V: 0.1 * U * V[:, :1],
    g=lambda U, V: 0.2 * V * U,
)


def basis(seed: int) -> np.ndarray:
    """``Z = I + 0.5 N(0, 1)^{3x3}`` from ``default_rng(seed)``, redrawn until cond(``Z``) < 20."""
    rng = np.random.default_rng(seed)
    while True:
        Z = np.eye(3) + 0.5 * rng.normal(size=(3, 3))
        if np.linalg.cond(Z) < 20:
            return Z


def build_system(seed: int, case: Case = COMPLEX) -> tuple[TransformedSystem, np.ndarray]:
    """``case`` seen through :func:`basis` ``Z``, split by ``schur_split``, and ``Z``."""
    Z = basis(seed)
    Z_inv = np.linalg.inv(Z)
    n_u = case.n_u
    D = np.zeros((3, 3))
    D[:n_u, :n_u], D[n_u:, n_u:] = case.A, case.B

    def nonlinear(w: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(w) @ Z_inv.T
        U, V = X[:, :n_u], X[:, n_u:]
        out = np.hstack([case.F(U, V), case.G(U, V)]) @ Z.T
        return out if np.ndim(w) == 2 else out[0]

    system = TransformedSystem(
        split=schur_split(Z @ D @ Z_inv, n_u), nonlinear=nonlinear,
        ss=SteadyState(y_bar=np.zeros(3 - n_u), x_bar=np.zeros(n_u), residual_norm=0.0),
        dims=(0, n_u, 3 - n_u), lambda_mat=np.zeros((0, 0)),
    )
    return system, Z


def manifold_error(system: TransformedSystem, Z: np.ndarray, U: np.ndarray, V: np.ndarray,
                   case: Case = COMPLEX) -> float:
    """Sup of ``|v - phi(u)|`` over the split's rows ``(U, V)``, mapped back through ``Z^-1``."""
    X = np.hstack([U, V]) @ system.split.Z.T @ np.linalg.inv(Z).T
    return float(np.max(np.abs(X[:, case.n_u:] - case.phi(X[:, :case.n_u]))))


def invariance_defect(U: np.ndarray, case: Case = COMPLEX) -> float:
    """Sup of ``|v' - phi(u')|`` one step from the rows ``(U, phi(U))`` in the manufactured basis."""
    V = case.phi(U)
    return float(np.max(np.abs(V @ case.B.T + case.G(U, V) - case.phi(U @ case.A.T + case.F(U, V)))))
