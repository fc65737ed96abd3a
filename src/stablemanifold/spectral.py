"""Stable/unstable block decoupling of the linear transition matrix.

``schur_split`` factors ``K = Z @ diag(A, B) @ Z_inv`` with the stable
block ``A`` (all eigenvalues inside the unit circle) leading and the
unstable block ``B`` trailing, then rescales so that the spectral norms
satisfy ``norm(A) < 1`` and ``norm(inv(B)) < 1`` with as little slack
over the spectral radii as the balancing grid permits.  The ordered real
Schur form and the Sylvester solve behind it are written here in numpy.

``build_transformed`` conjugates the first-order nonlinearity by ``Z`` to
produce the decoupled maps ``F`` (feeding the stable coordinates ``u``)
and ``G`` (feeding the unstable coordinates ``v``); both vanish at the
origin together with their Jacobians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._numdiff import jacobian_richardson
from .exceptions import (
    BalancingError,
    BlanchardKahnError,
    TransformBuildError,
    UnitRootError,
)
from .first_order import _ORIGIN_TOL, FirstOrderSystem
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


def _standard_pair(a: float, b: float, c: float, d: float) -> tuple[Array, Array]:
    """Standardized Schur form of the 2x2 block ``[[a, b], [c, d]]`` (LAPACK ``dlanv2``).

    Returns the new block and the rotation ``G`` with
    ``[[a, b], [c, d]] = G @ block @ G.T``.  Complex eigenvalues give a
    block with equal diagonals and ``b * c < 0``; real ones give an upper
    triangular block.  ``dlanv2``'s rescaling of extreme entries is left
    out.
    """
    sign = math.copysign
    if c == 0.0:
        cs, sn = 1.0, 0.0
    elif b == 0.0:  # swap rows and columns
        cs, sn = 0.0, 1.0
        a, b, c, d = d, -c, 0.0, a
    elif a - d == 0.0 and sign(1.0, b) != sign(1.0, c):
        cs, sn = 1.0, 0.0
    else:
        temp = a - d
        p = 0.5 * temp
        bcmax = max(abs(b), abs(c))
        bcmis = min(abs(b), abs(c)) * sign(1.0, b) * sign(1.0, c)
        scale = max(abs(p), bcmax)
        z = (p / scale) * p + (bcmax / scale) * bcmis
        if z >= 4.0 * np.finfo(float).eps:  # real eigenvalues
            z = p + sign(math.sqrt(scale) * math.sqrt(z), p)
            a = d + z
            d = d - (bcmax / z) * bcmis
            tau = math.hypot(c, z)
            cs, sn = z / tau, c / tau
            b, c = b - c, 0.0
        else:  # complex or almost equal real eigenvalues: equalize the diagonal
            sigma = b + c
            tau = math.hypot(sigma, temp)
            cs = math.sqrt(0.5 * (1.0 + abs(sigma) / tau))
            sn = -(p / (tau * cs)) * sign(1.0, sigma)
            aa, bb = a * cs + b * sn, -a * sn + b * cs
            cc, dd = c * cs + d * sn, -c * sn + d * cs
            b, c = bb * cs + dd * sn, -aa * sn + cc * cs
            a = d = temp = 0.5 * ((aa * cs + cc * sn) + (-bb * sn + dd * cs))
            if c != 0.0:
                if b == 0.0:
                    b, c = -c, 0.0
                    cs, sn = -sn, cs
                elif sign(1.0, b) == sign(1.0, c):  # real after all: triangularize
                    sab, sac = math.sqrt(abs(b)), math.sqrt(abs(c))
                    p = sign(sab * sac, c)
                    tau = 1.0 / math.sqrt(abs(b + c))
                    a, d = temp + p, temp - p
                    b, c = b - c, 0.0
                    cs1, sn1 = sab * tau, sac * tau
                    cs, sn = cs * cs1 - sn * sn1, cs * sn1 + sn * cs1
    return np.array([[a, b], [c, d]]), np.array([[cs, -sn], [sn, cs]])


_QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])


def _turn_pair(T: Array, p: int, start: int, end: int) -> bool:
    """Whether a quarter turn of the complex pair at rows ``p, p + 1`` of ``T`` helps balancing.

    :func:`_pair_normalizer` scales a pair's second column by
    ``s = sqrt(|c / b|)`` and its second row by ``1 / s``, so within the
    diagonal block ``T[start:end, start:end]`` the couplings above the
    pair grow by ``s`` and those to its right by ``1 / s``.  A quarter
    turn swaps the pair's rows and columns (up to sign), which keeps the
    block standardized and replaces ``s`` by ``1 / s``.  For a near-real
    pair ``s`` is far from one; True if the turned pair grows its
    couplings less.  Turning one pair leaves the norms this compares for
    every other pair unchanged.
    """
    s = math.sqrt(abs(T[p + 1, p] / T[p, p + 1]))
    above, right = T[start:p, p : p + 2], T[p : p + 2, p + 2 : end]
    grow = max(np.linalg.norm(above[:, 1]) * s, np.linalg.norm(right[1]) / s)
    grow_turned = max(np.linalg.norm(above[:, 0]) / s, np.linalg.norm(right[0]) * s)
    return grow_turned < grow


def _deflating_basis(M: Array, lam: complex) -> tuple[Array, float]:
    """Orthogonal ``Qk`` whose leading columns span the invariant subspace of ``M`` at ``lam``.

    A real ``lam`` gives one leading column, the right singular vector of
    ``M - lam I`` with the smallest singular value; a complex ``lam`` gives
    two, the real and imaginary parts of the complex null vector.  Also
    returns the norm of the block that deflation sets to zero, the
    backward error of the step.
    """
    shifted = M - lam * np.eye(M.shape[0])
    null = np.linalg.svd(shifted)[2][-1].conj()
    basis = null[:, None].real if lam.imag == 0.0 else np.stack([null.real, null.imag], axis=1)
    size = basis.shape[1]
    Qk = np.linalg.qr(basis, mode="complete")[0]
    return Qk, float(np.linalg.norm(Qk[:, size:].T @ M @ Qk[:, :size]))


def _rotate(T: Array, Q: Array, rows: slice, R: Array) -> None:
    """Apply the orthogonal similarity ``R`` to ``rows`` of ``T`` in place and accumulate it in ``Q``."""
    T[rows] = R.T @ T[rows]
    T[:, rows] = T[:, rows] @ R
    Q[:, rows] = Q[:, rows] @ R


def _ordered_schur(K: Array, eigvals: Array) -> tuple[Array, Array]:
    """Real Schur form ``K = Q @ T @ Q.T`` with the stable eigenvalues leading.

    ``eigvals`` is ``np.linalg.eigvals(K)``.  The form is built by
    deflation; its targets are the stable entries of ``eigvals`` and then
    the unstable ones, each in the order given.  Each step takes the
    eigenvalue of the trailing block nearest the next target (a defective
    eigenvalue moves by a root of the rounding error once its neighbours
    are deflated), rotates its invariant subspace, one real direction or
    the real and imaginary parts of a complex pair, onto the leading axes
    and zeroes the block beneath it.  That block's norm is the step's
    backward error, about the smallest singular value of the shifted
    trailing block.  Every 2x2 block is standardized as LAPACK's
    ``dlanv2`` does, and a pair that is real in floating point becomes two
    1x1 blocks.  A pair whose real part deflates within rounding error,
    ``m * eps * norm(M)`` for a trailing block ``M`` of size ``m``, or
    better than the pair does (a near-defective real eigenvalue reported
    as ``lam +- i eps``) is deflated as real, because its complex basis is
    nearly rank one and would leave an ill-scaled 2x2 block.  Finally each
    complex pair of the stable block ``T[:n_stable, :n_stable]`` and of
    the unstable block is turned where :func:`_turn_pair` says so.
    """
    n = K.shape[0]
    T, Q = K.copy(), np.eye(n)
    stable = np.abs(eigvals) < 1.0
    n_stable = int(np.sum(stable))
    targets = list(np.concatenate([eigvals[stable], eigvals[~stable]]))
    eig = eigvals
    p = 0
    while n - p > 1:
        M, m = T[p:, p:], n - p
        if p:
            eig = np.linalg.eigvals(M)
        lam = eig[np.argmin(np.abs(eig - targets.pop(0)))]
        if lam.imag == 0.0:
            Qk, size = _deflating_basis(M, lam)[0], 1
        else:
            Qk, err = _deflating_basis(M, lam) if m > 2 else (None, 0.0)
            Qk_real, err_real = _deflating_basis(M, complex(lam.real))
            if err_real <= max(err, m * np.finfo(float).eps * np.linalg.norm(M)):
                Qk, size = Qk_real, 1  # near-real: the partner follows as real
            else:
                size = 2
                targets.pop(int(np.argmin(np.abs(np.asarray(targets) - lam.conjugate()))))
        if Qk is not None:
            _rotate(T, Q, slice(p, n), Qk)
            T[p + size :, p : p + size] = 0.0
        if size == 2:
            pair = slice(p, p + 2)
            block, G = _standard_pair(*T[pair, pair].ravel())
            _rotate(T, Q, pair, G)
            T[pair, pair] = block
        p += size
    # orient the complex pairs, now that their couplings are final
    for start, end in ((0, n_stable), (n_stable, n)):
        for p in range(start, end - 1):
            if T[p + 1, p] != 0.0 and _turn_pair(T, p, start, end):
                _rotate(T, Q, slice(p, p + 2), _QUARTER_TURN)
    return T, Q


def _solve_sylvester(T11: Array, T22: Array, T12: Array) -> Array:
    """Solve ``T11 @ S - S @ T22 + T12 = 0`` for quasi-triangular ``T22`` (Bartels-Stewart).

    Walks the diagonal blocks of ``T22`` from the left, a nonzero
    subdiagonal entry marking a 2x2 block; the columns of ``S`` at a 1x1
    block solve one system of size ``n_u``, those at a 2x2 block one of
    size ``2 n_u``.
    """
    n_u, n_v = T12.shape
    S = np.zeros((n_u, n_v))
    eye = np.eye(n_u)
    j = 0
    while j < n_v:
        size = 2 if j + 1 < n_v and T22[j + 1, j] != 0.0 else 1
        cols = slice(j, j + size)
        rhs = S[:, :j] @ T22[:j, cols] - T12[:, cols]
        if size == 1:
            S[:, j] = np.linalg.solve(T11 - T22[j, j] * eye, rhs[:, 0])
        else:  # column-stacked: (I kron T11 - D^T kron I) vec(S_J) = vec(rhs)
            D = T22[cols, cols]
            lhs = np.kron(np.eye(2), T11) - np.kron(D.T, eye)
            S[:, cols] = np.linalg.solve(lhs, rhs.T.reshape(-1)).reshape(2, n_u).T
        j += size
    return S


def schur_split(
    K: Array,
    n_u: int,
    eps_unit: float = 1e-8,
) -> SpectralSplit:
    """Decouple ``K`` into stable and unstable blocks by ordered real Schur form.

    Computes a real Schur form with the stable eigenvalues leading, by
    deflation: one eigenvalue or complex pair at a time, in the order
    ``np.linalg.eigvals`` returns them within each group, with every 2x2
    block standardized as LAPACK's ``dlanv2`` does.  Then it eliminates
    the off-diagonal coupling by a Bartels-Stewart Sylvester solve and
    balances each block by a diagonal similarity chosen on the fixed grid
    ``DEFAULT_BALANCE_DELTAS`` of damping factors so the norm
    inequalities hold with the smallest achieved slack.

    Parameters
    ----------
    K : Array
        Square transition matrix.
    n_u : int
        Required number of stable eigenvalues (predetermined variables).
    eps_unit : float
        Half-width of the guard band around the unit circle; eigenvalues
        with modulus within it are rejected.

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

    T, Q = _ordered_schur(K, eigvals)
    T11 = T[:n_u, :n_u]
    T22 = T[n_u:, n_u:]
    S = _solve_sylvester(T11, T22, T[:n_u, n_u:])

    A_bal, dA = _balance_block(T11, DEFAULT_BALANCE_DELTAS)
    B_bal, dB = _balance_block(T22, DEFAULT_BALANCE_DELTAS)

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
        for b in range(idx.max() + 1 if idx.size else 0):  # blocks are numbered from 0
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
        """Map transformed coordinates to original levels ``(z, x, y)``.

        ``u`` and ``v`` are one point, ``(n_u,)`` and ``(n_v,)``, or ``N``
        points as rows, ``(N, n_u)`` and ``(N, n_v)``; the levels have
        the same leading shape.  Each row is mapped as a matrix-vector
        product of its own, so it has the bits that row gets as a single
        point (one matrix-matrix product may round rows differently).
        """
        n_z, n_x, _ = self.dims
        uv = np.concatenate([np.atleast_1d(u), np.atleast_1d(v)], axis=-1)
        w = (self.split.Z @ uv[..., None])[..., 0]
        return (
            w[..., :n_z],
            w[..., n_z : n_z + n_x] + self.ss.x_bar,
            w[..., n_z + n_x :] + self.ss.y_bar,
        )


def build_transformed(
    sys: FirstOrderSystem,
    split: SpectralSplit,
) -> TransformedSystem:
    """Conjugate the first-order nonlinearity into decoupled coordinates.

    Verifies at the origin that both maps and their Jacobians vanish
    within the origin tolerance of :func:`build_first_order`; failure
    indicates an inconsistent steady state or derivative blocks rather
    than a recoverable condition.
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
    if max(np.linalg.norm(F0), np.linalg.norm(G0)) > _ORIGIN_TOL:
        raise TransformBuildError(
            "transformed maps do not vanish at the origin "
            f"(|F| = {np.linalg.norm(F0):.3e}, |G| = {np.linalg.norm(G0):.3e})"
        )
    stacked = lambda p: np.concatenate(fg(p[:n_u], p[n_u:]))
    jac = jacobian_richardson(stacked, np.zeros(split.n_u + split.n_v))
    if jac.size and np.max(np.abs(jac)) > _ORIGIN_TOL:
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
) -> TransformedSystem:
    """Build a system directly in decoupled coordinates (identity basis).

    Intended for analytically specified test systems; the steady state is
    the origin and ``Z`` is the identity.  ``F`` and ``G`` map one point
    ``(u, v)`` to a vector; a batch passed to ``fg`` is evaluated row by
    row.  The exogenous states follow ``A``'s leading ``n_z`` block.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n_u, n_v = A.shape[0], B.shape[0]
    n_z, n_x, n_y = dims
    if n_z + n_x != n_u or n_y != n_v:
        raise ValueError("dims inconsistent with block sizes")
    split = SpectralSplit(Z=np.eye(n_u + n_v), Z_inv=np.eye(n_u + n_v), A=A, B=B)
    ss = SteadyState(y_bar=np.zeros(n_y), x_bar=np.zeros(n_x), residual_norm=0.0)

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

    return TransformedSystem(split=split, fg=fg, ss=ss, dims=dims, lambda_mat=A[:n_z, :n_z].copy())
