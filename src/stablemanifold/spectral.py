"""Stable/unstable block decoupling of the linear transition matrix.

``schur_split`` factors ``K = Z @ diag(A, B) @ Z_inv`` with the stable
block ``A`` (all eigenvalues inside the unit circle) leading and the
unstable block ``B`` trailing, then balances so that the spectral norms
satisfy ``norm(A) < 1`` and ``norm(inv(B)) < 1``, each block by one
Stein-equation similarity.  Each block's basis is read off one real
Schur deflation that puts its eigenvalues first, written here in numpy.

A ``TransformedSystem`` conjugates one nonlinear remainder by ``Z`` to
produce the decoupled maps ``F`` (feeding the stable coordinates ``u``)
and ``G`` (feeding the unstable coordinates ``v``); for a system from
``build_transformed`` both vanish at the origin together with their
Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exceptions import BalancingError, BlanchardKahnError, UnitRootError
from .first_order import FirstOrderSystem, _check_origin, build_first_order
from .model import ModelSpec, SteadyState, find_steady_state

Array = np.ndarray

#: the split rejects an eigenvalue whose modulus is within this of one: a Newton
#: steady state carries ~sqrt(steady_tol) error at ill-conditioned calibrations,
#: so the eigenvalues inherit ~1e-6 uncertainty and the band must be that wide
_UNIT_BAND = 1e-6

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


def _contracting_similarity(M: Array) -> Array:
    """Upper-triangular ``R`` with ``norm(R @ M @ inv(R)) < 1``, for ``M`` of spectral radius below one.

    ``P`` solves the Stein equation ``P - M.T @ P @ M = I`` and ``R`` is
    the upper Cholesky factor of ``P = R.T @ R``, scaled so ``R[0, 0] = 1``.
    Then ``norm(R @ M @ x)**2 = norm(R @ x)**2 - norm(x)**2`` for every
    ``x``, so ``R @ M @ inv(R)`` contracts; being upper triangular, ``R``
    keeps a quasi-triangular ``M`` quasi-triangular, and a 1x1 ``M`` gets
    ``R = [[1.0]]``, the scaled solve's exact result, without a solve.  The
    Kronecker form of the Stein equation costs ``O(n**6)`` for an
    ``n x n`` block.
    """
    n = M.shape[0]
    if n < 2:
        return np.eye(n)
    P = np.linalg.solve(np.eye(n * n) - np.kron(M.T, M.T), np.eye(n).reshape(-1)).reshape(n, n)
    R = np.linalg.cholesky(P).T
    return R / R[0, 0]


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
    """Leading block ``T`` and orthonormal ``Q`` with ``K @ Q = Q @ T`` for the given eigenvalues.

    ``eigvals`` is a subset of ``np.linalg.eigvals(K)``, closed under
    conjugation; ``T`` is quasi-triangular with exactly these eigenvalues.
    Built by deflation, stopping once they are deflated: each step takes
    the eigenvalue of the trailing block nearest the next target, in the
    order given (a defective eigenvalue moves by a root of the rounding
    error once its neighbours are deflated), rotates its invariant
    subspace, one real direction or the real and imaginary parts of a
    complex pair, onto the leading axes and zeroes the block beneath it.
    That block's norm is the step's backward error, about the smallest
    singular value of the shifted trailing block.  Only complex pairs
    become 2x2 blocks: a pair whose real part deflates within rounding
    error, ``m * eps * norm(M)`` for a trailing block ``M`` of size ``m``,
    or better than the pair does (a near-defective real eigenvalue
    reported as ``lam +- i eps``) is deflated as real first, because its
    complex basis is nearly rank one and would leave an ill-scaled 2x2
    block.
    """
    n, k = K.shape[0], len(eigvals)
    T, Q = K.copy(), np.eye(n)
    targets = list(eigvals)
    eig = eigvals
    p = 0
    while p < k and n - p > 1:
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
        p += size
    return T[:k, :k], Q[:, :k]


def schur_split(K: Array, n_u: int) -> SpectralSplit:
    """Decouple ``K`` into stable and unstable blocks by two leading real Schur deflations.

    One deflation puts the stable eigenvalues first and gives the
    quasi-triangular ``T11`` with orthonormal columns ``Q1``; a second
    puts the unstable ones first and gives ``T22`` and ``Q2``.  Each runs
    one eigenvalue or complex pair at a time, in the order
    ``np.linalg.eigvals`` returns them within the group, with every 2x2
    block a complex pair (:func:`_ordered_schur`).  ``Q = [Q1, Q2]``
    satisfies ``K @ Q = Q @ diag(T11, T22)`` up to the deflations' backward
    errors, so no coupling block is left to remove.  ``A`` and ``inv(B)``
    are then each balanced by the upper-triangular similarity of one
    Stein-equation solve (:func:`_contracting_similarity`), which brings
    both spectral norms below one by construction: ``Z = [Q1 @ inv(R_A),
    Q2 @ inv(R_B)]``.  It trades slack over the spectral radii for a
    well-conditioned ``Z``.

    Parameters
    ----------
    K : Array
        Square transition matrix.
    n_u : int
        Required number of stable eigenvalues (predetermined variables).

    Raises
    ------
    UnitRootError
        If an eigenvalue has modulus within ``_UNIT_BAND`` (1e-6) of one.
    BlanchardKahnError
        If the stable count differs from ``n_u``.
    BalancingError
        If the Stein balancing or the inverse of ``Q`` fails, or rounding
        leaves a spectral norm at one or above, or ``Z @ P @ Z_inv``
        misses ``K``.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    eigvals = np.linalg.eigvals(K)
    near_unit = np.abs(np.abs(eigvals) - 1.0) < _UNIT_BAND
    if np.any(near_unit):
        raise UnitRootError(f"eigenvalue {eigvals[near_unit][0]:.12g} has modulus within "
                            f"{_UNIT_BAND:.1e} of the unit circle")
    stable = np.abs(eigvals) < 1.0
    n_stable = int(np.sum(stable))
    if n_stable != n_u:
        raise BlanchardKahnError(found=n_stable, required=n_u)
    n_v = n - n_u

    T11, Q1 = _ordered_schur(K, eigvals[stable])
    T22, Q2 = _ordered_schur(K, eigvals[~stable])
    try:
        R_A, R_B = _contracting_similarity(T11), _contracting_similarity(np.linalg.inv(T22))
        Q_inv = np.linalg.inv(np.hstack([Q1, Q2]))
    except np.linalg.LinAlgError as exc:
        raise BalancingError(f"the Stein balancing of a block failed or the basis is singular ({exc})") from exc
    R_A_inv, R_B_inv = np.linalg.inv(R_A), np.linalg.inv(R_B)
    Z = np.hstack([Q1 @ R_A_inv, Q2 @ R_B_inv])
    Z_inv = np.vstack([R_A @ Q_inv[:n_u], R_B @ Q_inv[n_u:]])
    A_bal, B_bal = R_A @ T11 @ R_A_inv, R_B @ T22 @ R_B_inv

    split = SpectralSplit(Z=Z, Z_inv=Z_inv, A=A_bal, B=B_bal)
    if split.normA >= 1.0 or (n_v and split.normBinv >= 1.0):
        raise BalancingError(
            f"balancing left norm(A) = {split.normA:.6g}, "
            f"norm(inv(B)) = {split.normBinv:.6g}; both must be < 1"
        )
    recon = split.Z @ split.P @ split.Z_inv
    gap = np.max(np.abs(recon - K)) if n else 0.0
    if gap > 1e-9 * max(1.0, np.max(np.abs(K))):
        raise BalancingError(f"similarity reconstruction residual {gap:.3e} exceeds tolerance")
    return split


def rescale_columns(split: SpectralSplit, scales: Array) -> SpectralSplit:
    """Rescale the columns of ``Z`` by nonzero scalars.

    ``A`` and ``B`` are kept, so ``K = Z @ P @ Z_inv`` still holds only if
    two coordinates have equal scales wherever ``P = diag(A, B)`` couples
    them by a nonzero entry (every scale is free for scalar blocks).
    Useful for adopting a particular normalization of the transformed
    coordinates; dynamics in the original variables are invariant to this
    choice.
    """
    scales = np.asarray(scales, dtype=float).reshape(-1)
    if scales.size != split.Z.shape[1]:
        raise ValueError("one scale per column required")
    if np.any(scales == 0.0):
        raise ValueError("scales must be nonzero")
    rows, cols = np.nonzero(split.P)
    if np.any(scales[rows] != scales[cols]):
        raise ValueError("scales must be equal on coordinates that A or B couples")
    Z = split.Z * scales[None, :]
    Z_inv = split.Z_inv / scales[:, None]
    return SpectralSplit(Z=Z, Z_inv=Z_inv, A=split.A.copy(), B=split.B.copy())


@dataclass
class TransformedSystem:
    """The model in decoupled coordinates ``(u, v)``.

    ``u_next = A u + F(u, v)`` drives the stable directions and
    ``v_next = B v + G(u, v)`` the unstable ones.  The system holds one
    remainder, ``nonlinear``, on original deviations ``w = Z (u, v)`` (one
    point or rows, as :attr:`FirstOrderSystem.nonlinear`), and one basis,
    ``split``; :meth:`fg` conjugates the one by the other at each call.
    """

    split: SpectralSplit
    nonlinear: Callable[[Array], Array]
    ss: SteadyState
    dims: tuple[int, int, int]
    lambda_mat: Array

    def fg(self, u: Array, v: Array) -> tuple[Array, Array]:
        """``(F, G) = nonlinear((u, v) Z^T) Z_inv^T``, split after ``n_u`` columns.

        ``u`` and ``v`` are one point, shapes ``(n_u,)`` and ``(n_v,)``, or
        ``N`` points as rows, ``(N, n_u)`` and ``(N, n_v)``; ``(F, G)`` has
        the same leading shape.  A point is a batch of one all the way down
        to the model's residual.  A row of a batch has the bits of that point
        alone where BLAS rounds the products by ``Z`` row by row alike, as on
        growth, exo_test and Brock-Mirman (n <= 3); at n >= 4 it may differ
        by rounding (3.2e-16 on mixed Brock-Mirman, n = 6).  Points outside
        the model's domain give NaN rows.
        """
        n_u = self.split.n_u
        uv = np.concatenate([np.atleast_1d(u), np.atleast_1d(v)], axis=-1, dtype=float)
        # contiguous transposes: with transposed views a single point takes
        # another BLAS kernel than a batch does and rounds differently
        out = self.nonlinear(uv @ self.split.Z.T.copy()) @ self.split.Z_inv.T.copy()
        return out[..., :n_u], out[..., n_u:]

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
    """The first-order remainder in the decoupled coordinates of ``split``.

    Verifies at the origin that both maps and their Jacobians vanish
    within the origin tolerance of :func:`build_first_order`; failure
    indicates an inconsistent steady state or derivative blocks rather
    than a recoverable condition.
    """
    if split.Z.shape[0] != sys.n_w:
        raise ValueError("split dimension does not match the first-order system")
    system = TransformedSystem(
        split=split, nonlinear=sys.nonlinear, ss=sys.ss, dims=sys.dims, lambda_mat=sys.lambda_mat
    )
    n_u = split.n_u
    _check_origin(
        lambda uv: np.concatenate(system.fg(uv[..., :n_u], uv[..., n_u:]), axis=-1), sys.n_w,
        lambda FG: "transformed maps do not vanish at the origin "
        f"(|F| = {np.linalg.norm(FG[:n_u]):.3e}, |G| = {np.linalg.norm(FG[n_u:]):.3e})",
        lambda largest: f"transformed maps have Jacobian {largest:.3e} at the origin",
    )
    return system


def build_system(model: ModelSpec, steady_tol: float = 1e-12) -> TransformedSystem:
    """The decoupled system of ``model``: steady state, first order, split and transform.

    The split takes ``n_z + n_x`` stable roots; each stage raises as it
    does alone.  Growth's pipeline adds a rescaling of the basis between
    the split and the transform, and so builds its own.
    """
    fos = build_first_order(model, find_steady_state(model, tol=steady_tol))
    return build_transformed(fos, schur_split(fos.K, n_u=model.n_z + model.n_x))


def transformed_from_maps(
    A: Array,
    B: Array,
    F: Callable[[Array, Array], Array],
    G: Callable[[Array, Array], Array],
    n_z: int = 0,
) -> TransformedSystem:
    """Build a system directly in decoupled coordinates (identity basis).

    Intended for analytically specified test systems; the steady state is
    the origin and ``Z`` is the identity.  ``F(U, V)`` and ``G(U, V)``
    take rows ``(N, n_u)`` and ``(N, n_v)`` and return rows of those
    shapes; side by side they are the system's ``nonlinear``, so one
    ``fg`` call makes one call of each.  The sizes are read off the
    blocks: ``n_u`` and ``n_v`` are those of ``A`` and ``B``, the first
    ``n_z`` of the ``u``-coordinates are exogenous states, which follow
    ``A``'s leading ``n_z`` block, and the other ``n_x = n_u - n_z`` are
    endogenous; the ``n_y = n_v`` controls are ``v``.  Raises
    ``ValueError`` unless ``0 <= n_z <= n_u``.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n_u, n_v = A.shape[0], B.shape[0]
    if not 0 <= n_z <= n_u:
        raise ValueError(f"n_z must be between 0 and n_u = {n_u}, got {n_z}")
    n_x, n_y = n_u - n_z, n_v
    split = SpectralSplit(Z=np.eye(n_u + n_v), Z_inv=np.eye(n_u + n_v), A=A, B=B)
    ss = SteadyState(y_bar=np.zeros(n_y), x_bar=np.zeros(n_x), residual_norm=0.0)

    def nonlinear(w: Array) -> Array:
        W = np.asarray(w, dtype=float).reshape(-1, n_u + n_v)
        U, V = W[:, :n_u], W[:, n_u:]
        out = np.concatenate([F(U, V), G(U, V)], axis=1, dtype=float)
        return out if np.ndim(w) == 2 else out[0]

    return TransformedSystem(
        split=split, nonlinear=nonlinear, ss=ss, dims=(n_z, n_x, n_y), lambda_mat=A[:n_z, :n_z].copy()
    )
