"""Stable/unstable block decoupling of the linear transition matrix.

``schur_split`` factors ``K = Z @ diag(A, B) @ Z_inv`` with the stable
block ``A`` (all eigenvalues inside the unit circle) leading and the
unstable block ``B`` trailing, then rescales so that the spectral norms
satisfy ``norm(A) < 1`` and ``norm(inv(B)) < 1`` with as little slack
over the spectral radii as the balancing grid permits.

``build_transformed`` conjugates the first-order nonlinearity by ``Z`` to
produce the decoupled maps ``F`` (feeding the stable coordinates ``u``)
and ``G`` (feeding the unstable coordinates ``v``); both vanish at the
origin together with their Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import schur, solve_sylvester

from ._numdiff import jacobian_richardson
from .exceptions import (
    BalancingError,
    BlanchardKahnError,
    TransformBuildError,
    UnitRootError,
)
from .first_order import FirstOrderSystem
from .model import SteadyState

Array = np.ndarray

DEFAULT_BALANCE_DELTAS = (1.0, 0.5, 0.1, 0.01)


@dataclass
class SpectralSplit:
    """Change of basis decoupling stable and unstable dynamics.

    Attributes
    ----------
    Z, Z_inv : Array
        The similarity transform and its inverse; ``K = Z @ P @ Z_inv``
        with ``P = diag(A, B)``.
    A : Array, shape (n_u, n_u)
        Stable block, spectral radius < 1.
    B : Array, shape (n_v, n_v)
        Unstable block, all eigenvalues outside the unit circle.

    The remaining attributes are derived from ``A`` and ``B`` on
    construction:

    B_inv : Array
        Inverse of ``B``.
    normA, normBinv : float
        Spectral norms of ``A`` and ``B_inv``.
    gamma_slack : float
        Excess of the norms over the corresponding spectral radii,
        ``max(normA - rho(A), normBinv - rho(B_inv), 0)``.
    """

    Z: Array
    Z_inv: Array
    A: Array
    B: Array
    B_inv: Array = field(init=False)
    normA: float = field(init=False)
    normBinv: float = field(init=False)
    gamma_slack: float = field(init=False)

    def __post_init__(self) -> None:
        self.Z = np.asarray(self.Z, dtype=float)
        self.Z_inv = np.asarray(self.Z_inv, dtype=float)
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        self.B_inv = np.linalg.inv(self.B)
        self.normA = _spectral_norm(self.A)
        self.normBinv = _spectral_norm(self.B_inv)
        self.gamma_slack = max(
            self.normA - _spectral_radius(self.A),
            self.normBinv - _spectral_radius(self.B_inv),
            0.0,
        )

    @property
    def n_u(self) -> int:
        return self.A.shape[0]

    @property
    def n_v(self) -> int:
        return self.B.shape[0]

    @property
    def P(self) -> Array:
        """The block-diagonal form ``diag(A, B)``."""
        n = self.n_u + self.n_v
        out = np.zeros((n, n))
        out[: self.n_u, : self.n_u] = self.A
        out[self.n_u :, self.n_u :] = self.B
        return out


def _spectral_norm(mat: Array) -> float:
    if mat.size == 0:
        return 0.0
    return float(np.linalg.norm(mat, 2))


def _spectral_radius(mat: Array) -> float:
    if mat.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


def _block_index(T: Array) -> np.ndarray:
    """Index of the diagonal (1x1 or 2x2) block owning each row of ``T``."""
    n = T.shape[0]
    idx = np.zeros(n, dtype=int)
    i = 0
    b = 0
    while i < n:
        size = 2 if (i + 1 < n and abs(T[i + 1, i]) > 1e3 * np.finfo(float).eps * max(1.0, abs(T[i, i]))) else 1
        idx[i : i + size] = b
        i += size
        b += 1
    return idx


def _pair_normalizer(T: Array, block_idx: np.ndarray) -> Array:
    """Diagonal scaling that makes each 2x2 block's off-diagonals equal in magnitude.

    A complex-pair block ``[[a, b], [c, a]]`` becomes a scaled rotation
    under ``diag(1, sqrt(|c/b|))``, so its spectral norm drops to its
    spectral radius.  Returns the diagonal as a vector.
    """
    n = T.shape[0]
    d = np.ones(n)
    i = 0
    while i < n:
        if i + 1 < n and block_idx[i] == block_idx[i + 1]:
            b, c = T[i, i + 1], T[i + 1, i]
            if b != 0.0 and c != 0.0:
                d[i + 1] = np.sqrt(abs(c / b))
            i += 2
        else:
            i += 1
    return d


def _balance_block(T: Array, deltas) -> tuple[Array, Array]:
    """Minimize the spectral norm of a quasi-triangular block by diagonal similarity.

    Combines the 2x2-pair normalization with a geometric damping of the
    couplings between diagonal blocks (the same scale within each block so
    the quasi-triangular structure is preserved).  Returns the rescaled
    block and the diagonal of the applied similarity.
    """
    n = T.shape[0]
    if n == 0:
        return T.copy(), np.ones(0)
    block_idx = _block_index(T)
    d_pair = _pair_normalizer(T, block_idx)
    best = None
    for delta in deltas:
        d = d_pair * (float(delta) ** block_idx)
        cand = (T * (d[None, :] / d[:, None]))  # diag(1/d) @ T @ diag(d)
        norm = _spectral_norm(cand)
        if best is None or norm < best[0] - 1e-15:
            best = (norm, cand, d)
    return best[1], best[2]


def schur_split(
    K: Array,
    n_u: int,
    eps_unit: float = 1e-8,
    balance_deltas=DEFAULT_BALANCE_DELTAS,
) -> SpectralSplit:
    """Decouple ``K`` into stable and unstable blocks by ordered real Schur form.

    Computes a real Schur form with the stable eigenvalues leading,
    eliminates the off-diagonal coupling by solving a Sylvester equation,
    and balances each block by a diagonal similarity chosen on a fixed
    grid so the norm inequalities hold with the smallest achieved slack.

    Parameters
    ----------
    K : Array
        Square transition matrix.
    n_u : int
        Required number of stable eigenvalues (predetermined variables).
    eps_unit : float
        Half-width of the guard band around the unit circle; eigenvalues
        with modulus within it are rejected.
    balance_deltas : sequence of float
        Candidate damping factors for the balancing similarity.

    Raises
    ------
    UnitRootError
        If an eigenvalue has modulus within ``eps_unit`` of one.
    BlanchardKahnError
        If the stable count differs from ``n_u``.
    BalancingError
        If no grid point brings both spectral norms below one.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    eigvals = np.linalg.eigvals(K)
    near_unit = np.abs(np.abs(eigvals) - 1.0) < eps_unit
    if np.any(near_unit):
        offender = eigvals[near_unit][0]
        raise UnitRootError(
            f"eigenvalue {offender:.12g} has modulus within {eps_unit:.1e} "
            "of the unit circle"
        )
    n_stable = int(np.sum(np.abs(eigvals) < 1.0))
    if n_stable != n_u:
        raise BlanchardKahnError(found=n_stable, required=n_u)
    n_v = n - n_u

    T, Q, sdim = schur(K, output="real", sort="iuc")
    if sdim != n_u:
        raise BlanchardKahnError(found=int(sdim), required=n_u)

    T11 = T[:n_u, :n_u]
    T12 = T[:n_u, n_u:]
    T22 = T[n_u:, n_u:]
    if n_u and n_v:
        S = solve_sylvester(T11, -T22, -T12)
    else:
        S = np.zeros((n_u, n_v))

    A_bal, dA = _balance_block(T11, balance_deltas)
    B_bal, dB = _balance_block(T22, balance_deltas)

    # Z = Q @ [[I, S], [0, I]] @ diag(dA, dB), applied without forming the
    # dense coupling matrix.
    d = np.concatenate([dA, dB])
    M = np.eye(n)
    M[:n_u, n_u:] = S
    Z = (Q @ M) * d[None, :]
    M_inv = np.eye(n)
    M_inv[:n_u, n_u:] = -S
    Z_inv = (M_inv * (1.0 / d)[:, None]) @ Q.T

    split = SpectralSplit(Z=Z, Z_inv=Z_inv, A=A_bal, B=B_bal)
    if split.normA >= 1.0 or (n_v and split.normBinv >= 1.0):
        raise BalancingError(
            f"balancing grid exhausted with norm(A) = {split.normA:.6g}, "
            f"norm(inv(B)) = {split.normBinv:.6g}; both must be < 1"
        )
    recon = split.Z @ split.P @ split.Z_inv
    gap = np.max(np.abs(recon - K)) if n else 0.0
    if gap > 1e-9 * max(1.0, np.max(np.abs(K))):
        raise BalancingError(
            f"similarity reconstruction residual {gap:.3e} exceeds tolerance"
        )
    return split


def rescale_columns(split: SpectralSplit, scales: Array) -> SpectralSplit:
    """Rescale the columns of ``Z`` by nonzero scalars.

    The scale must be constant within each diagonal block of ``A`` and
    ``B`` so the blocks themselves are left untouched (guaranteed for
    scalar blocks).  Useful for adopting a particular normalization of the
    transformed coordinates; dynamics in the original variables are
    invariant to this choice.
    """
    scales = np.asarray(scales, dtype=float).reshape(-1)
    if scales.size != split.Z.shape[1]:
        raise ValueError("one scale per column required")
    if np.any(scales == 0.0):
        raise ValueError("scales must be nonzero")
    n_u = split.n_u
    for block, sub in ((split.A, scales[:n_u]), (split.B, scales[n_u:])):
        idx = _block_index(block) if block.size else np.zeros(0, dtype=int)
        for b in np.unique(idx):
            vals = sub[idx == b]
            if vals.size > 1 and not np.allclose(vals, vals[0]):
                raise ValueError("scales must be constant within 2x2 blocks")
    Z = split.Z * scales[None, :]
    Z_inv = split.Z_inv / scales[:, None]
    return SpectralSplit(Z=Z, Z_inv=Z_inv, A=split.A.copy(), B=split.B.copy())


@dataclass
class TransformedSystem:
    """The model in decoupled coordinates ``(u, v)``.

    ``u_next = A u + F(u, v)`` drives the stable directions and
    ``v_next = B v + G(u, v)`` the unstable ones; ``fg(u, v)`` evaluates
    both maps from a single pass through the underlying nonlinearity.
    It takes one point, ``u`` and ``v`` of shapes ``(n_u,)`` and
    ``(n_v,)``, or ``N`` points as rows, shapes ``(N, n_u)`` and
    ``(N, n_v)``, and returns ``(F, G)`` with the same leading shape.
    Points outside the model's domain give NaN rows.
    """

    split: SpectralSplit
    fg: Callable[[Array, Array], tuple[Array, Array]]
    ss: SteadyState
    dims: tuple[int, int, int]
    lambda_mat: Array

    @property
    def n_u(self) -> int:
        return self.split.n_u

    @property
    def n_v(self) -> int:
        return self.split.n_v

    def to_levels(self, u: Array, v: Array) -> tuple[Array, Array, Array]:
        """Map transformed coordinates to original levels ``(z, x, y)``."""
        n_z, n_x, _ = self.dims
        w = self.split.Z @ np.concatenate([np.atleast_1d(u), np.atleast_1d(v)])
        return (
            w[:n_z],
            w[n_z : n_z + n_x] + self.ss.x_bar,
            w[n_z + n_x :] + self.ss.y_bar,
        )


def build_transformed(
    sys: FirstOrderSystem,
    split: SpectralSplit,
    origin_tol: float = 1e-8,
) -> TransformedSystem:
    """Conjugate the first-order nonlinearity into decoupled coordinates.

    Verifies at the origin that both maps and their Jacobians vanish
    within ``origin_tol``; failure indicates an inconsistent steady state
    or derivative blocks rather than a recoverable condition.
    """
    if split.Z.shape[0] != sys.n_w:
        raise ValueError("split dimension does not match the first-order system")
    n_u = split.n_u
    Z_T, Z_inv_T = split.Z.T.copy(), split.Z_inv.T.copy()

    def fg(u: Array, v: Array) -> tuple[Array, Array]:
        uv = np.concatenate([np.atleast_1d(u), np.atleast_1d(v)], axis=-1, dtype=float)
        out = sys.nonlinear(uv @ Z_T) @ Z_inv_T
        return out[..., :n_u], out[..., n_u:]

    tsys = TransformedSystem(
        split=split,
        fg=fg,
        ss=sys.ss,
        dims=sys.dims,
        lambda_mat=sys.lambda_mat,
    )
    u0 = np.zeros(split.n_u)
    v0 = np.zeros(split.n_v)
    F0, G0 = fg(u0, v0)
    if max(np.linalg.norm(F0), np.linalg.norm(G0)) > origin_tol:
        raise TransformBuildError(
            "transformed maps do not vanish at the origin "
            f"(|F| = {np.linalg.norm(F0):.3e}, |G| = {np.linalg.norm(G0):.3e})"
        )
    stacked = lambda p: np.concatenate(fg(p[:n_u], p[n_u:]))
    jac = jacobian_richardson(stacked, np.zeros(split.n_u + split.n_v))
    if jac.size and np.max(np.abs(jac)) > origin_tol:
        raise TransformBuildError(
            f"transformed maps have Jacobian {np.max(np.abs(jac)):.3e} at the origin"
        )
    return tsys


def transformed_from_maps(
    A: Array,
    B: Array,
    F: Callable[[Array, Array], Array],
    G: Callable[[Array, Array], Array],
    dims: tuple[int, int, int],
    lambda_mat: Array | None = None,
) -> TransformedSystem:
    """Build a system directly in decoupled coordinates (identity basis).

    Intended for analytically specified test systems; the steady state is
    the origin and ``Z`` is the identity.  ``F`` and ``G`` map one point
    ``(u, v)`` to a vector; a batch passed to ``fg`` is evaluated row by
    row.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n_u, n_v = A.shape[0], B.shape[0]
    n_z, n_x, n_y = dims
    if n_z + n_x != n_u or n_y != n_v:
        raise ValueError("dims inconsistent with block sizes")
    split = SpectralSplit(Z=np.eye(n_u + n_v), Z_inv=np.eye(n_u + n_v), A=A, B=B)
    ss = SteadyState(y_bar=np.zeros(n_y), x_bar=np.zeros(n_x), residual_norm=0.0)
    if lambda_mat is None:
        lambda_mat = A[:n_z, :n_z].copy()

    def fg(u: Array, v: Array) -> tuple[Array, Array]:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        if u.ndim == 2:  # F and G take one point: evaluate the rows in turn
            F_rows, G_rows = np.empty((u.shape[0], n_u)), np.empty((u.shape[0], n_v))
            for j in range(u.shape[0]):
                F_rows[j], G_rows[j] = fg(u[j], v[j])
            return F_rows, G_rows
        return (
            np.atleast_1d(np.asarray(F(u, v), dtype=float)),
            np.atleast_1d(np.asarray(G(u, v), dtype=float)),
        )

    return TransformedSystem(split=split, fg=fg, ss=ss, dims=dims, lambda_mat=np.asarray(lambda_mat, dtype=float))
