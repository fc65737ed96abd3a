"""Stable/unstable block decoupling of the linear transition matrix.

``schur_split`` factors ``K = Z @ diag(A, B) @ Z_inv`` with the stable
block ``A`` (all eigenvalues inside the unit circle) leading and the
unstable block ``B`` trailing, then balances so that the spectral norms
satisfy ``norm(A) < 1`` and ``norm(inv(B)) < 1``, each block by one
Stein-equation similarity.  The ordered real Schur form and the
Sylvester solve behind it are written here in numpy.

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
from .first_order import FirstOrderSystem, _check_origin
from .model import SteadyState

Array = np.ndarray

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
    ``R = [[1.0]]``.  The Kronecker form of the Stein equation costs
    ``O(n**6)`` for an ``n x n`` block.
    """
    n = M.shape[0]
    if not n:
        return np.eye(0)
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
    trailing block.  Only complex pairs become 2x2 blocks: a pair whose
    real part deflates within rounding error, ``m * eps * norm(M)`` for a
    trailing block ``M`` of size ``m``, or better than the pair does (a
    near-defective real eigenvalue reported as ``lam +- i eps``) is
    deflated as real first, because its complex basis is nearly rank one
    and would leave an ill-scaled 2x2 block.
    """
    n = K.shape[0]
    T, Q = K.copy(), np.eye(n)
    stable = np.abs(eigvals) < 1.0
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
        p += size
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
    block a complex pair.  Then it eliminates the off-diagonal coupling by a
    Bartels-Stewart Sylvester solve and balances ``A`` and ``inv(B)`` each
    by the upper-triangular similarity of one Stein-equation solve
    (:func:`_contracting_similarity`), which brings both spectral norms
    below one by construction.  It trades slack over the spectral radii
    for a well-conditioned ``Z``.

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
        If the Stein balancing fails, or rounding leaves a spectral norm
        at one or above, or ``Z @ P @ Z_inv`` misses ``K``.
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

    try:
        R_A, R_B = _contracting_similarity(T11), _contracting_similarity(np.linalg.inv(T22))
    except np.linalg.LinAlgError as exc:
        raise BalancingError(f"the Stein balancing of a block failed ({exc})") from exc
    R_A_inv, R_B_inv = np.linalg.inv(R_A), np.linalg.inv(R_B)

    # Z = Q @ [[I, S], [0, I]] @ inv(diag(R_A, R_B)) and Z_inv its mirror
    W, W_inv = np.zeros((n, n)), np.zeros((n, n))
    W[:n_u, :n_u], W[:n_u, n_u:], W[n_u:, n_u:] = R_A_inv, S @ R_B_inv, R_B_inv
    W_inv[:n_u, :n_u], W_inv[:n_u, n_u:], W_inv[n_u:, n_u:] = R_A, -R_A @ S, R_B
    Z, Z_inv = Q @ W, W_inv @ Q.T
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
        raise BalancingError(
            f"similarity reconstruction residual {gap:.3e} exceeds tolerance"
        )
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
    ``split``; ``fg(u, v) = nonlinear((u, v) Z^T) Z_inv^T`` is derived
    from the two on construction and again whenever either is assigned, so
    ``dataclasses.replace(system, split=other)`` and ``system.split =
    other`` both conjugate the same remainder by the new basis.
    ``fg`` takes one point, ``u`` and ``v`` of shapes ``(n_u,)`` and
    ``(n_v,)``, or ``N`` points as rows, shapes ``(N, n_u)`` and
    ``(N, n_v)``, and returns ``(F, G)`` with the same leading shape.
    Points outside the model's domain give NaN rows.
    """

    split: SpectralSplit
    nonlinear: Callable[[Array], Array]
    ss: SteadyState
    dims: tuple[int, int, int]
    lambda_mat: Array
    fg: Callable[[Array, Array], tuple[Array, Array]] = field(init=False)

    def __post_init__(self) -> None:
        nonlinear, n_u = self.nonlinear, self.split.n_u
        Z_T, Z_inv_T = self.split.Z.T.copy(), self.split.Z_inv.T.copy()

        def fg(u: Array, v: Array) -> tuple[Array, Array]:
            uv = np.concatenate([np.atleast_1d(u), np.atleast_1d(v)], axis=-1, dtype=float)
            out = nonlinear(uv @ Z_T) @ Z_inv_T
            return out[..., :n_u], out[..., n_u:]

        self.fg = fg

    def __setattr__(self, name: str, value) -> None:
        super().__setattr__(name, value)
        if name in ("split", "nonlinear") and "fg" in self.__dict__:
            self.__post_init__()

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


def transformed_from_maps(
    A: Array,
    B: Array,
    F: Callable[[Array, Array], Array],
    G: Callable[[Array, Array], Array],
    dims: tuple[int, int, int],
) -> TransformedSystem:
    """Build a system directly in decoupled coordinates (identity basis).

    Intended for analytically specified test systems; the steady state is
    the origin and ``Z`` is the identity.  ``F(U, V)`` and ``G(U, V)``
    take rows ``(N, n_u)`` and ``(N, n_v)`` and return rows of those
    shapes; side by side they are the system's ``nonlinear``, so one
    ``fg`` call makes one call of each.  The exogenous states follow
    ``A``'s leading ``n_z`` block.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n_u, n_v = A.shape[0], B.shape[0]
    n_z, n_x, n_y = dims
    if n_z + n_x != n_u or n_y != n_v:
        raise ValueError("dims inconsistent with block sizes")
    split = SpectralSplit(Z=np.eye(n_u + n_v), Z_inv=np.eye(n_u + n_v), A=A, B=B)
    ss = SteadyState(y_bar=np.zeros(n_y), x_bar=np.zeros(n_x), residual_norm=0.0)

    def nonlinear(w: Array) -> Array:
        W = np.asarray(w, dtype=float).reshape(-1, n_u + n_v)
        U, V = W[:, :n_u], W[:, n_u:]
        out = np.concatenate([F(U, V), G(U, V)], axis=1, dtype=float)
        return out if np.ndim(w) == 2 else out[0]

    return TransformedSystem(
        split=split, nonlinear=nonlinear, ss=ss, dims=dims, lambda_mat=A[:n_z, :n_z].copy()
    )
