"""Approximate policy functions, contraction conditions, and error bounds.

The central object is the family of maps ``h_i`` defined recursively by

    ``h_i(u) = -B_inv G(u, h_i(u)) + B_inv h_{i-1}(A u + F(u, h_i(u)))``

with ``h_0 = 0``.  So ``h_n(u)`` is the first value of an ``n``-period
two-point problem: along ``u_n = u``, ``u_{l-1} = A u_l + F(u_l, v_l)``
the values ``v_l = h_l(u_l)`` satisfy ``v_l = B_inv (v_{l-1} - G(u_l, v_l))``
with ``v_0 = 0``.  Each evaluation solves that problem for all ``n``
levels at once, as the extended path does for all periods, by one Picard
iteration, a contraction whenever the sampled conditions reported by
:func:`check_conditions` hold on the working domain.  The
module also provides the explicit graph-transform recursion and the
truncated forward-summation operator for comparison, the majorizing
scalar recursion used by the derivative bound, and the a priori error
bound of the approximation theory.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._numdiff import value_and_jacobian
from .exceptions import ForwardDivergenceError, NonContractionError
from .spectral import SpectralSplit, TransformedSystem

Array = np.ndarray

#: Radii tried (largest first) when searching for a verified domain.
DEFAULT_RADIUS_GRID = (
    0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.12, 0.1, 0.08, 0.06,
    0.05, 0.04, 0.03, 0.02, 0.015, 0.01, 0.0075, 0.005, 0.002, 0.001,
)

_DIVERGENCE_CAP = 1e8  # a shooting iterate this large has left the manifold


@dataclass(frozen=True)
class DomainSpec:
    """Working domain: a product of Euclidean balls in u- and v-space.

    Attributes
    ----------
    r_u, r_v : float
        Radii of the balls around the origin.
    sample_count : int
        Number of deterministic sample points used for norm estimation.
    """

    r_u: float
    r_v: float
    sample_count: int = 2048

    def __post_init__(self) -> None:
        for name in ("r_u", "r_v"):
            r = getattr(self, name)
            if not (r > 0 and math.isfinite(r)):
                raise ValueError(f"{name} must be positive and finite, got {r}")
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")


@dataclass(frozen=True)
class ConditionReport:
    """Sampled norm estimates and contraction-condition verdicts on a domain.

    ``sup_G`` estimates the sup of ``|G|`` and ``L`` the sup of the
    Jacobian norms of ``F`` and ``G`` over the sampled domain.  The three
    booleans record, respectively: the self-mapping bound on ``G``, the
    Lipschitz smallness bound on ``L``, and forward invariance of the
    u-ball.  ``rho = normBinv * L`` is the resulting contraction factor
    estimate.  A failed condition is data, not an error.
    """

    sup_G: float
    L: float
    cond1_ok: bool
    cond2_ok: bool
    cond3_ok: bool
    cond1_rhs: float
    cond2_rhs: float
    rho: float
    samples_used: int
    r_u: float
    r_v: float

    @property
    def all_ok(self) -> bool:
        return self.cond1_ok and self.cond2_ok and self.cond3_ok


def _unit_ball(dim: int, rows: Array) -> tuple[Array, Array]:
    """Directions and radial fractions of low-discrepancy rows in [0, 1]^(dim+1).

    The last coordinate gives the fraction ``t ** (1/dim)`` of the radius
    at which an interior point lies, the first ``dim`` a unit direction: on
    a line the sign of ``q - 1/2`` (+1 at 1/2), in wider balls the
    normalised standard normal quantiles of ``q`` clipped to [1e-12, 1 - 1e-12].
    """
    m = rows.shape[0]
    if dim == 0:
        return np.zeros((m, 0)), np.ones(m)
    if dim == 1:
        return np.where(rows[:, :1] < 0.5, -1.0, 1.0), rows[:, 1]
    from statistics import NormalDist  # loads fractions and decimal, which a line never needs
    q = np.clip(rows[:, :dim], 1e-12, 1.0 - 1e-12)
    z = np.fromiter(map(NormalDist().inv_cdf, q.ravel().tolist()), float, q.size).reshape(q.shape)
    lengths = np.linalg.norm(z, axis=1)
    degenerate = lengths < 1e-12
    z[degenerate] = 0.0
    z[degenerate, 0] = 1.0
    lengths[degenerate] = 1.0
    return z / lengths[:, None], rows[:, dim] ** (1.0 / dim)


def _halton(n: int, d: int) -> Array:
    """First ``n`` points of the unscrambled ``d``-dimensional Halton sequence.

    Coordinate ``j`` is the radical inverse of the point index in the
    ``j``-th prime base; the first point (index 0) is the origin.
    """
    primes: list[int] = []
    candidate = 2
    while len(primes) < d:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    out = np.zeros((n, d))
    for j, base in enumerate(primes):
        index = np.arange(n)
        b2r = 1.0 / base
        while np.any(index > 0):
            index, digit = np.divmod(index, base)
            out[:, j] += digit * b2r
            b2r /= base
    return out


def _axis_points(dim: int) -> Array:
    """The origin followed by each unit vector and its negative, as rows."""
    out = [np.zeros(dim)]
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        out.append(e)
        out.append(-e)
    return np.array(out)


def _unit_samples(sample_count: int, n_u: int, n_v: int) -> tuple[tuple, tuple]:
    """The radius-free part of :func:`domain_samples`: ``(directions, fractions)`` per ball.

    The rows are the four combinations of interior and boundary-shell
    points of the two balls, then the grid of axis extremes; a row's point
    is its unit direction times its fraction of the radius, which is 1 on
    the shell and on the axis rows.  :func:`_scale_samples` multiplies the
    fractions by the radii.
    """
    groups = 4
    m = max(1, -(-sample_count // groups))
    rows = _halton(m + 1, (n_u + 1) + (n_v + 1))[1:]  # drop the initial all-zero point
    dir_u, frac_u = _unit_ball(n_u, rows[:, : n_u + 1])
    dir_v, frac_v = _unit_ball(n_v, rows[:, n_u + 1 :])
    shell = np.ones(m)
    ax_u = _axis_points(n_u)
    ax_v = _axis_points(n_v)
    n_axes = len(ax_u) * len(ax_v)
    unit_u = (
        np.vstack([dir_u] * groups + [np.repeat(ax_u, len(ax_v), axis=0)]),
        np.concatenate([frac_u, frac_u, shell, shell, np.ones(n_axes)]),
    )
    unit_v = (
        np.vstack([dir_v] * groups + [np.tile(ax_v, (len(ax_u), 1))]),
        np.concatenate([frac_v, shell, frac_v, shell, np.ones(n_axes)]),
    )
    return unit_u, unit_v


def _scale_samples(unit: tuple[tuple, tuple], r_u, r_v) -> tuple[Array, Array]:
    """The unit sample of :func:`_unit_samples` scaled to the radii.

    Scalar radii give the ``(S, n_u)`` and ``(S, n_v)`` samples; columns of
    ``C`` radii, ``(C, 1)``, give ``(C, S, n_u)`` and ``(C, S, n_v)``, each
    candidate's sample bitwise the one its radii give alone.
    """
    (dir_u, frac_u), (dir_v, frac_v) = unit
    return dir_u * (r_u * frac_u)[..., None], dir_v * (r_v * frac_v)[..., None]


def domain_samples(dom: DomainSpec, n_u: int, n_v: int) -> tuple[Array, Array]:
    """Deterministic sample of the product domain.

    Combines low-discrepancy interior points, boundary-shell points (where
    the suprema of smooth maps vanishing at the origin are attained), and
    axis-aligned extreme points.  Reproducible across runs by
    construction.
    """
    return _scale_samples(_unit_samples(dom.sample_count, n_u, n_v), dom.r_u, dom.r_v)


def _max_spectral_norm(blocks: Array) -> float:
    """Largest 2-norm among the matrices ``blocks[j]`` (0 for empty matrices).

    A block of one row or one column has the 2-norm of its entries as a
    vector, its Frobenius norm; wider blocks take the batched SVD.
    """
    if blocks.size == 0:
        return 0.0
    thin = min(blocks.shape[1:]) == 1
    return float(np.max(np.linalg.norm(blocks, None if thin else 2, axis=(1, 2))))


def check_conditions(sys: TransformedSystem, dom: DomainSpec) -> ConditionReport:
    """Estimate the contraction conditions on a domain by sampling.

    ``sup_G`` and the Lipschitz estimate ``L`` are computed over the
    deterministic sample of :func:`domain_samples` (directions are signs on
    a line, normalised Gaussian quantiles in wider balls), with Jacobians
    by central differences.  Forward invariance is checked by verifying
    ``|A u + F(u, v)| <= r_u`` at every sample point.  All samples go
    through ``fg`` together with their central-difference neighbours, in
    one call for the values and the Jacobians.  A non-finite value or
    Jacobian entry anywhere means the maps are not defined on the whole
    domain, and the report then has ``sup_G = L = inf`` and forward
    invariance false.
    """
    return _check_conditions(sys, dom, _unit_samples(dom.sample_count, sys.n_u, sys.n_v))


def _value_conditions(
    sys: TransformedSystem, U: Array, F_val: Array, G_val: Array, radii: Array, defined: Array,
) -> tuple[Array, Array, Array, Array]:
    """Conditions 1 and 3, which need only the values of ``fg``, for a stack of candidate domains.

    ``U`` (``(C, S, n_u)``) holds each candidate's sample points,
    ``F_val`` and ``G_val`` ``F`` and ``G`` there, ``radii`` (``(C, 2)``)
    its ``(r_u, r_v)`` and ``defined`` (``(C,)``) whether the maps are
    defined on its whole sample.  Returns per candidate ``sup_G`` (``inf``
    where undefined), the verdicts ``sup_G < (1 - b)/b * r_v`` and
    ``|A u + F(u, v)| <= r_u`` at every sample (false where undefined),
    and the right-hand side of the first.
    """
    b = sys.split.normBinv
    sup_G = np.full(len(radii), math.inf)
    cond3_ok = np.zeros(len(radii), dtype=bool)
    ok = np.flatnonzero(defined)
    sup_G[ok] = np.max(np.linalg.norm(G_val[ok], axis=2), axis=1)
    image = np.linalg.norm(U[ok] @ sys.split.A.T + F_val[ok], axis=2)
    cond3_ok[ok] = np.all(image <= radii[ok, :1] * (1.0 + 1e-12), axis=1)
    cond1_rhs = (1.0 - b) / b * radii[:, 1]
    return sup_G, sup_G < cond1_rhs, cond3_ok, cond1_rhs


def _check_conditions(sys: TransformedSystem, dom: DomainSpec, unit: tuple) -> ConditionReport:
    """:func:`check_conditions` on the unit sample ``unit`` scaled to ``dom``."""
    U, V = _scale_samples(unit, dom.r_u, dom.r_v)
    n_u = sys.n_u
    b = sys.split.normBinv
    val, jac = value_and_jacobian(lambda p: np.hstack(sys.fg(p[:, :n_u], p[:, n_u:])),
                                  np.hstack([U, V]))
    defined = bool(np.all(np.isfinite(val)) and np.all(np.isfinite(jac)))
    (sup_G,), (cond1_ok,), (cond3_ok,), (cond1_rhs,) = _value_conditions(
        sys, U[None], val[None, :, :n_u], val[None, :, n_u:], np.array([[dom.r_u, dom.r_v]]),
        np.array([defined]))
    lip = math.inf  # the maps are not even defined on all of the candidate domain
    if defined:
        lip = max(_max_spectral_norm(jac[:, :n_u, :]), _max_spectral_norm(jac[:, n_u:, :]))
    cond2_rhs = 0.25 * (1.0 / b - sys.split.normA)
    return ConditionReport(
        sup_G=float(sup_G),
        L=lip,
        cond1_ok=bool(cond1_ok),
        cond2_ok=lip < cond2_rhs,
        cond3_ok=bool(cond3_ok),
        cond1_rhs=float(cond1_rhs),
        cond2_rhs=cond2_rhs,
        rho=b * lip,
        samples_used=U.shape[0],
        r_u=dom.r_u,
        r_v=dom.r_v,
    )


def _value_stage(sys: TransformedSystem, doms: list[DomainSpec], unit: tuple) -> tuple[Array, Array]:
    """The verdicts of conditions 1 and 3 at each of the domains ``doms``, from one ``fg`` call.

    Every domain's sample is the unit sample ``unit`` scaled to its radii,
    the points :func:`_check_conditions` evaluates there, and all of them
    go through ``fg`` together, without their difference neighbours.
    """
    radii = np.array([[dom.r_u, dom.r_v] for dom in doms])
    U, V = _scale_samples(unit, radii[:, :1], radii[:, 1:])
    F_val, G_val = sys.fg(U.reshape(-1, sys.n_u), V.reshape(-1, sys.n_v))
    F_val, G_val = F_val.reshape(U.shape), G_val.reshape(V.shape)
    defined = np.isfinite(F_val).all(axis=(1, 2)) & np.isfinite(G_val).all(axis=(1, 2))
    _, cond1_ok, cond3_ok, _ = _value_conditions(sys, U, F_val, G_val, radii, defined)
    return cond1_ok, cond3_ok


def search_domain(
    sys: TransformedSystem,
    radii=None,
    sample_count: int = 2048,
) -> tuple[DomainSpec, ConditionReport]:
    """Largest ball (on a fixed radius grid) on which all conditions pass.

    Tries ``r_u = r_v = r`` for each candidate radius in descending order
    and returns the first fully verified domain together with its report,
    the same report :func:`check_conditions` gives there.  The unit sample
    is built once and only scaled per radius.

    The search runs in two stages.  Conditions 1 (the bound on ``sup_G``)
    and 3 (forward invariance) need only the values of ``fg`` at the
    samples; condition 2 (the Lipschitz bound) needs their difference
    Jacobians, ``2 (n_u + n_v)`` more points per sample.  So every
    candidate is first judged on its values, all of them in one ``fg``
    call; only a candidate that passes conditions 1 and 3 gets the full
    check of :func:`check_conditions`, in descending order, and the first
    that passes it is returned.  A candidate with a sample where the maps
    have no value (a residual that is not finite, or a next-period solve
    that fails) fails conditions 1 and 3 and is passed over.

    Raises
    ------
    ValueError
        If ``radii`` is empty, or a radius is not positive and finite
        (every candidate is checked before anything is evaluated).
    NonContractionError
        If no candidate radius passes; ``point`` and ``last_residual`` are
        None.
    """
    doms = sorted(
        (DomainSpec(r_u=float(r), r_v=float(r), sample_count=sample_count)
         for r in (DEFAULT_RADIUS_GRID if radii is None else radii)),
        key=lambda dom: dom.r_u, reverse=True,
    )
    if not doms:
        raise ValueError("radii must hold at least one candidate radius")
    unit = _unit_samples(sample_count, sys.n_u, sys.n_v)
    cond1_ok, cond3_ok = _value_stage(sys, doms, unit)
    for dom in itertools.compress(doms, cond1_ok & cond3_ok):
        report = _check_conditions(sys, dom, unit)
        if report.all_ok:
            return dom, report
    raise NonContractionError("contraction conditions fail on every candidate radius")


@dataclass
class PolicyApprox:
    """Evaluator for the order-``i`` approximate policy function.

    Order 0 is the zero map; order ``i >= 1`` solves the ``i`` levels of
    the implicit recursion together, as one stacked Picard solve per
    evaluation (:func:`picard` on rows of ``i`` levels), each sweep one ``fg``
    call over every level.  An evaluation takes one point or a batch
    of points as rows; each row is an independent fixed-point problem,
    solved in lockstep with the other rows.  Every solve starts from zero
    at the linear look-ahead points, so no state outlives the evaluation.

    Attributes
    ----------
    order : int
        Recursion depth ``i``.
    system : TransformedSystem
    inner_tol : float
        Stopping tolerance on the increment ``|T(x) - x|`` of each row of
        the stacked solve (values and points), which returns the image
        ``T(x)``.
    inner_max_iter : int
        Sweep budget of the solve.
    domain : DomainSpec or None
        Verified domain.  Evaluation ignores it; only :func:`simulate`
        reads it, to stop a path whose ``u`` leaves the ball ``r_u``.
    """

    order: int
    system: TransformedSystem
    inner_tol: float = 1e-12
    inner_max_iter: int = 200
    domain: DomainSpec | None = None

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if not self.inner_tol > 0:
            raise ValueError(f"inner_tol must be positive, got {self.inner_tol}")
        if not self.inner_max_iter >= 1:
            raise ValueError(f"inner_max_iter must be at least 1, got {self.inner_max_iter}")

    def __call__(self, u) -> Array:
        return eval_policy(self, u)


def sweep_image(sys: TransformedSystem, U: Array, X: Array, ahead: Array | None) -> tuple[Array, Array]:
    """The image ``T(x)`` of the stacked rows ``X`` at their first points ``U``, and each row's next point.

    Row ``j`` of ``X`` is laid out as :func:`picard` lays out its rows, and
    its pairs ``(u_l, v_l)`` start at ``u_L = U[j]``.  A row of ``L``
    levels is ``L n_v + (L - 1) n_u`` wide, so ``L`` is read off the width
    of ``X``; a row of width 0 is the order-0 row, whose value is zero.  One
    ``fg`` call at every pair of every row gives the image

        ``v_l' = B_inv (v_{l-1}' - G(u_l, v_l))``,  ``u_{l-1}' = A u_l + F(u_l, v_l)``,

    with ``v_0'`` the row of ``ahead`` (``(N, n_v)``; ``None`` is zero): the
    values are solved upwards from ``v_1'``, each from the new value of the
    level below it, as the extended path solves its periods, so a sweep
    carries the look-ahead through every level.  The next point ``A u_L +
    F(u_L, v_L)`` of each row, ``(N, n_u)``, comes from the same ``fg``
    values; at ``L >= 2`` it is the image's first look-ahead point
    ``u_{L-1}'``, a view into the image.
    """
    n_u, n_v = sys.n_u, sys.n_v
    levels = (X.shape[1] + n_u) // (n_u + n_v)
    m = levels * n_v
    P = U if levels <= 1 else np.concatenate((U, X[:, m:]), axis=1).reshape(-1, n_u)
    F_val, G_val = sys.fg(P, X[:, :m].reshape(-1, n_v) if levels else np.zeros((len(U), n_v)))
    points = P @ sys.split.A.T + F_val  # u_{l-1}' at every pair
    if not levels:
        return X, points
    B_inv_T = sys.split.B_inv.T
    G_val = G_val.reshape(-1, m)
    v = -(G_val[:, -n_v:] @ B_inv_T) if ahead is None else (ahead - G_val[:, -n_v:]) @ B_inv_T
    if levels == 1:
        return v, points
    w = (levels - 1) * n_u  # the points u_{L-1}, ..., u_1
    X_new = np.empty((G_val.shape[0], m + w))
    X_new[:, m - n_v : m] = v
    for j in range(m - 2 * n_v, -1, -n_v):
        v = (v - G_val[:, j : j + n_v]) @ B_inv_T
        X_new[:, j : j + n_v] = v
    X_new[:, m:] = points.reshape(-1, levels * n_u)[:, :w]
    return X_new, X_new[:, m : m + n_u]


def picard(
    sys: TransformedSystem, U: Array, X: Array, ahead: Array | None,
    tol: float, max_iter: int, trace: list | None = None,
) -> tuple[Array, Array]:
    """Picard iteration on the stacked rows ``X`` at the states ``U``.

    Row ``j`` of ``X`` holds the unknowns ``v_L, ..., v_1`` of its ``L``
    levels (each of length ``n_v``) followed by the look-ahead points
    ``u_{L-1}, ..., u_1`` (each of length ``n_u``); its point ``u_L`` is
    ``U[j]``.  ``L`` is read off the width ``L n_v + (L - 1) n_u`` of
    ``X``.  One sweep maps the rows still iterating to their image under
    :func:`sweep_image`, one ``fg`` call at all their pairs, with ``v_0'``
    the row of ``ahead`` (``(N, n_v)``; ``None`` is zero); the image is the
    next iterate.  With ``L = 1`` a row is one ``v`` and this is the
    one-period update ``v <- B_inv (ahead - G(u, v))``.  ``U`` is
    ``(N, n_u)`` with ``N >= 1``.

    Each row iterates until its own increment (the norm of the change
    ``T(x) - x`` that the map makes to its row, points included) is at most
    ``tol``, and then returns the image ``T(x)``.  While every row is
    iterating the batch is used as given, without indexing or copying;
    rows that finish before others are then set aside.  ``trace``
    collects every image ``T(x)`` of the rows still iterating.

    Returns ``(X, increments)``: the solved rows and each row's last
    increment.  A row that does not converge within ``max_iter``
    iterations, or whose increment goes non-finite, is a NaN row of ``X``
    and has an increment above ``tol`` or non-finite (``inf`` if no
    iteration ran); the caller raises.
    """
    act: slice | Array = slice(None)  # the rows still iterating, once some finish
    X_out = inc_out = None  # the whole batch, once rows finish apart
    inc = None
    for _ in range(max_iter):
        X_new = sweep_image(sys, U, X, ahead)[0]
        if trace is not None:
            trace.append(X_new.copy())  # rows that finish later are written over below
        inc = _row_norms(X_new - X)
        if tol < inc.min() and math.isfinite(inc.sum()):
            X = X_new  # every row still iterating (a NaN fails both tests)
            continue
        if X_out is None and inc.max() <= tol:
            return X_new, inc  # every row converged on this sweep
        finite = np.isfinite(inc)
        going = (inc > tol) & finite
        X_new[~finite] = np.nan  # the row failed
        if X_out is None:
            if not going.any():
                return X_new, inc
            X_out, inc_out, act = X_new, inc, np.flatnonzero(going)
        else:
            X_out[act], inc_out[act] = X_new, inc
            act = act[going]
            if not act.size:
                return X_out, inc_out
        U, X, inc = U[going], X_new[going], inc[going]
        if ahead is not None:
            ahead = ahead[going]
    failed = np.full(X.shape, np.nan)  # out of iterations
    if X_out is None:
        return failed, np.full(U.shape[0], math.inf) if inc is None else inc
    X_out[act], inc_out[act] = failed, inc
    return X_out, inc_out


def _row_norms(X: Array) -> Array:
    """The Euclidean norm of each row of ``X``."""
    return np.sqrt(np.add.reduce(X * X, axis=1))


def _as_rows(sys: TransformedSystem, u) -> tuple[Array, bool]:
    """``u`` as an ``(N, n_u)`` batch, and whether it was one point."""
    U = np.atleast_1d(np.asarray(u, dtype=float))
    if U.ndim > 2 or U.shape[-1] != sys.n_u:
        raise ValueError(
            f"u must have shape ({sys.n_u},) or (N, {sys.n_u}); got shape {np.shape(u)}"
        )
    return (U[None, :], True) if U.ndim == 1 else (U, False)


def _stacked_rows(p: PolicyApprox, U: Array, trace: list | None = None,
                  start: Array | None = None) -> tuple[Array, Array]:
    """The solved stacked rows of the order-``p.order`` policy at the rows ``U``, and their increments.

    Row ``j`` holds ``v_n, ..., v_1`` and the points ``u_{n-1}, ..., u_1``
    of :func:`picard` with ``n = p.order >= 1`` levels: ``v_l = h_l(u_l)``
    along the look-ahead path ``u_n = U[j]``, ``u_{l-1} = A u_l + F(u_l, v_l)``.
    The rows start at ``start``, else cold, on :func:`_linear_rows`.
    """
    start = _linear_rows(p.system, U, p.order) if start is None else start
    return picard(p.system, U, start, None, p.inner_tol, p.inner_max_iter, trace)


def _linear_rows(sys: TransformedSystem, U: Array, levels: int) -> Array:
    """Stacked rows of ``levels`` levels on the linear solution from ``U``: ``v = 0``, ``u_{l-1} = A u_l``."""
    points = [U]
    for _ in range(levels - 1):
        points.append(points[-1] @ sys.split.A.T)
    return np.concatenate([np.zeros((U.shape[0], levels * sys.n_v))] + points[1:], axis=1)


def _solve(p: PolicyApprox, U: Array, trace: list | None = None) -> Array:
    """The solved rows of :func:`_stacked_rows` at the rows ``U``; raises for the first failed row.

    A row's first ``n_v`` entries are the policy value ``v_n``; at order 0
    a row is that value alone, zero.
    """
    if p.order == 0 or not U.shape[0]:
        return np.zeros((U.shape[0], p.system.n_v))
    X, inc = _stacked_rows(p, U, trace)
    if inc.max() <= p.inner_tol:
        return X
    j = np.flatnonzero(~(inc <= p.inner_tol))[0]
    raise _row_failure(p, U[j], float(inc[j]))


def _row_failure(p: PolicyApprox, u: Array, increment: float) -> NonContractionError:
    """The error for a stacked row at ``u`` that went non-finite or stopped above ``inner_tol``."""
    reason = (
        f"did not reach {p.inner_tol:.1e} within {p.inner_max_iter} iterations "
        f"(last increment {increment:.3e})"
        if math.isfinite(increment)
        else "went non-finite: the recursion left the domain of definition"
    )
    return NonContractionError(
        f"order-{p.order} fixed-point iteration {reason}; contraction "
        "conditions are violated at this point",
        point=u.copy(),
        last_residual=increment,
    )


def eval_policy(p: PolicyApprox, u) -> Array:
    """Evaluate the order-``p.order`` policy approximation at ``u``.

    ``u`` is one point, shape ``(n_u,)``, giving ``(n_v,)``, or ``N``
    points as rows, shape ``(N, n_u)``, giving ``(N, n_v)``.  All levels
    of the recursion are solved together as one stacked row per point,
    ``v_n, ..., v_1`` with the look-ahead points ``u_{n-1}, ..., u_1``
    (:func:`picard`); the returned value ``v = v_n`` is the first value
    of that ``n``-period two-point problem, and the whole row moves by at
    most ``inner_tol`` under the map: the solve returns the image
    ``T(x)`` at which its increment ``|T(x) - x|`` first reaches
    ``inner_tol``.  The rows are independent fixed-point problems solved
    in lockstep, each stopping at its own tolerance.  Every row starts
    from zero at the points ``A^(n-l) u``, so the result is a function of
    ``u`` alone, bitwise the same whatever was evaluated before.  A
    batched row has the bits of the same point evaluated alone where a
    batched ``fg``'s rows have theirs, as on growth, exo_test and
    Brock-Mirman, and agrees with it to rounding elsewhere.

    Raises
    ------
    ValueError
        If ``u`` has neither shape.
    NonContractionError
        If the solve fails at some row; ``point`` is the first such row.
    """
    U, single = _as_rows(p.system, u)
    V = _solve(p, U)[:, : p.system.n_v]
    return V[0] if single else V


def picard_iterates(p: PolicyApprox, u) -> list[Array]:
    """Successive top-level Picard iterates, the ``v_n`` block of each ``T(x_k)``, at the point ``u`` (diagnostic).

    Each iterate is the image of the one before (:func:`picard`), the
    first being the image of the cold start:
    ``-sum_{k<n} B_inv^(k+1) G(A^k u, 0)``, the forward sum of ``G`` along
    the linear path, which is ``-B_inv G(u, 0)`` at order 1.  The last is
    the converged value returned by :func:`eval_policy`, bitwise.
    """
    U, single = _as_rows(p.system, u)
    if not single:
        raise ValueError("picard_iterates takes one point")
    trace: list[Array] = []
    _solve(p, U, trace)
    return [X[0, : p.system.n_v] for X in trace]


def eval_policy_hadamard(sys: TransformedSystem, order: int, u) -> Array:
    """Explicit graph-transform recursion of the same order.

    Substitutes the previous-order map rather than solving implicitly, so
    no inner iteration is needed.  Order 0 is the zero map and order 1 is
    ``-B_inv G(u, 0)``, one ``fg`` call.  ``u`` is one point ``(n_u,)``,
    giving ``(n_v,)``, or ``N`` points as rows ``(N, n_u)``, giving
    ``(N, n_v)``; each ``fg`` call of the recursion takes all of them.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    U, single = _as_rows(sys, u)
    zero = np.zeros((U.shape[0], sys.n_v))
    if order == 0:
        V = zero
    elif order == 1:
        V = -(sys.fg(U, zero)[1] @ sys.split.B_inv.T)
    else:
        F_val, G_val = sys.fg(U, eval_policy_hadamard(sys, order - 1, U))
        ahead = eval_policy_hadamard(sys, order - 1, U @ sys.split.A.T + F_val)
        V = (ahead - G_val) @ sys.split.B_inv.T
    return V[0] if single else V


def eval_lyapunov_perron(
    sys: TransformedSystem,
    horizon: int,
    u0,
    v0,
    radius: float | None = None,
) -> Array:
    """Truncated forward-summation (shooting) value at ``(u0, v0)``.

    Iterates the transformed system forward and accumulates
    ``-sum_k B^{-k-1} G(u_k, v_k)`` for ``k = 0..horizon``.  Off-manifold
    starting points make the forward orbit grow exponentially, which is
    precisely the instability this operator demonstrates.  When ``radius``
    is given, the orbit leaving the u-ball of that radius counts as
    divergence (outside it the theory's domain assumptions no longer
    hold).

    Raises
    ------
    ForwardDivergenceError
        When an iterate goes nonfinite, exceeds 1e8 in norm, or
        leaves the ``radius`` ball; carries the offending step index.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    u = np.atleast_1d(np.asarray(u0, dtype=float)).copy()
    v = np.atleast_1d(np.asarray(v0, dtype=float)).copy()
    A, B, B_inv = sys.split.A, sys.split.B, sys.split.B_inv
    acc = np.zeros(sys.n_v)
    weight = B_inv.copy()
    for k in range(horizon + 1):
        if radius is not None and float(np.linalg.norm(u)) > radius:
            raise ForwardDivergenceError(
                f"forward iterate left the radius-{radius:g} ball at step {k}",
                step=k,
            )
        F_val, G_val = sys.fg(u, v)
        if not (np.all(np.isfinite(F_val)) and np.all(np.isfinite(G_val))):
            raise ForwardDivergenceError(
                f"dynamics became nonfinite at step {k}", step=k
            )
        acc = acc - weight @ G_val
        if k == horizon:
            break
        u = A @ u + F_val
        v = B @ v + G_val
        size = max(float(np.linalg.norm(u)), float(np.linalg.norm(v)))
        if not np.isfinite(size) or size > _DIVERGENCE_CAP:
            raise ForwardDivergenceError(
                f"forward iterate exceeded {_DIVERGENCE_CAP:.1e} at step {k + 1}",
                step=k + 1,
            )
        weight = weight @ B_inv
    return acc


@dataclass(frozen=True)
class LemmaSequence:
    """Majorizing scalar recursion and its fixed points.

    ``values[i]`` majorizes the derivative norm of the order-``(i+1)``
    policy approximation; the sequence increases monotonically from zero
    to the stable fixed point ``s1_star``.
    """

    values: Array
    s1_star: float
    s2_star: float


def lemma_recursion(rho: float, normA: float, normBinv: float, n: int) -> LemmaSequence:
    """Iterate the majorizing difference equation and return its fixed points.

    The recursion is ``s_next = (rho + (c + rho) s) / (1 - rho - rho s)``
    with ``c = normBinv * normA`` and ``s_0 = 0``.  Requires
    ``rho < (1 - c) / 4``; under that bound the two fixed points are real
    and satisfy ``s1_star <= s2_star < (1 - rho) / rho``.

    Raises
    ------
    ValueError
        If the precondition fails or ``rho`` is negative.
    """
    c = normBinv * normA
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if rho >= (1.0 - c) / 4.0:
        raise ValueError(
            f"rho = {rho:.6g} violates the bound (1 - normBinv*normA)/4 = "
            f"{(1.0 - c) / 4.0:.6g}"
        )
    values = np.empty(n + 1)
    values[0] = 0.0
    s = 0.0
    for i in range(n):
        s = (rho + (c + rho) * s) / (1.0 - rho - rho * s)
        values[i + 1] = s
    if rho == 0.0:
        return LemmaSequence(values=values, s1_star=0.0, s2_star=math.inf)
    mid = 1.0 - 2.0 * rho - c
    disc = math.sqrt(mid * mid - 4.0 * rho * rho)
    return LemmaSequence(
        values=values,
        s1_star=(mid - disc) / (2.0 * rho),
        s2_star=(mid + disc) / (2.0 * rho),
    )


@dataclass(frozen=True)
class ErrorBound:
    """A priori accuracy data for an order-``n`` policy approximation.

    Attributes
    ----------
    a : float
        Per-order contraction rate of the accuracy recursion.
    apriori : float
        Value of the a priori bound for the supplied tail magnitude.
    s1_star, s2_star : float
        Fixed points of the majorizing derivative recursion.
    deriv_bound : float
        Uniform bound on the policy derivative norms.
    """

    a: float
    apriori: float
    s1_star: float
    s2_star: float
    deriv_bound: float


def contraction_rate(split: SpectralSplit) -> float:
    """Per-order rate ``a = 2 b / (1 + b |A|)``, ``b = |B_inv|``, of the accuracy recursion."""
    b = split.normBinv
    return 2.0 * b / (1.0 + b * split.normA)


def error_bound(
    split: SpectralSplit,
    report: ConditionReport,
    n: int,
    h_tail: float | None = None,
) -> ErrorBound:
    """A priori bound on the order-``n`` policy error.

    ``h_tail`` is the caller's bound on the true policy magnitude at the
    n-step-ahead point of the on-manifold orbit.  When omitted it
    defaults to the domain radius ``r_v`` recorded in the report, which
    is conservative since the policy maps into the v-ball.

    Raises
    ------
    ValueError
        If the Lipschitz condition failed in ``report`` (the bound's
        hypotheses are then unavailable), or ``n < 1`` or ``h_tail < 0``.
    """
    if not report.cond2_ok:
        raise ValueError("error bound requires the Lipschitz condition to hold")
    if n < 1:
        raise ValueError("n must be at least 1")
    if h_tail is None:
        h_tail = report.r_v
    if h_tail < 0:
        raise ValueError("h_tail must be nonnegative")
    b = split.normBinv
    rho = report.rho
    a = contraction_rate(split)
    apriori = a ** (n - 1) * b / (1.0 - rho) * h_tail
    lemma = lemma_recursion(rho, split.normA, b, 0)
    deriv_bound = (1.0 - rho) / rho if rho > 0 else math.inf
    return ErrorBound(
        a=a,
        apriori=apriori,
        s1_star=lemma.s1_star,
        s2_star=lemma.s2_star,
        deriv_bound=deriv_bound,
    )
