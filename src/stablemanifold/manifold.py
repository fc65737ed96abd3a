"""Approximate policy functions, contraction conditions, and error bounds.

The central object is the family of maps ``h_i`` defined recursively by

    ``h_i(u) = -B_inv G(u, h_i(u)) + B_inv h_{i-1}(A u + F(u, h_i(u)))``

with ``h_0 = 0``.  Each evaluation solves the implicit equation by Picard
iteration with safeguarded Anderson(1) mixing; the plain iteration is a
contraction whenever the sampled conditions reported by
:func:`check_conditions` hold on the working domain.  The
module also provides the explicit graph-transform recursion and the
truncated forward-summation operator for comparison, the majorizing
scalar recursion used by the derivative bound, and the a priori error
bound of the approximation theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._numdiff import jacobian
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
        if self.r_u <= 0 or self.r_v <= 0:
            raise ValueError("radii must be positive")
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


# Cephes ``ndtri`` (S. L. Moshier): sqrt(2 pi), exp(-2), and the rational
# approximations on |y - 1/2| <= 1/2 - exp(-2) (P0/Q0) and, in
# z = 1/sqrt(-2 log y), for y above exp(-32) (P1/Q1) and below (P2/Q2);
# the leading coefficient of every Q is 1.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: Array, coef: tuple, monic: bool = False) -> Array:
    """Horner's rule, highest power first; ``monic`` prepends a leading 1."""
    out = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _libm_log(v: Array) -> Array:
    return np.fromiter(map(math.log, v.tolist()), float, v.size)


def ndtri(p: Array) -> Array:
    """Standard normal quantile of each entry of ``p`` in (0, 1), a port of Cephes ``ndtri``.

    The same branches, coefficients and evaluation order as the C code
    that SciPy's ``special.ndtri`` runs, so the results are bitwise equal to
    it.  The tail branch takes its logarithms from ``math.log`` (the C
    library's), because numpy's vectorized ``log`` may differ in the last
    bit.
    """
    p = np.asarray(p, dtype=float)
    y = p.ravel()
    upper = y > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y, y)
    out = np.empty_like(y)
    central = y > _EXP_M2
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0, monic=True))) * _S2PI
    tail = np.flatnonzero(~central)
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    z = 1.0 / x
    x1 = np.empty_like(x)
    near = x < 8.0  # y above exp(-32)
    for rows, P, Q in ((near, _P1, _Q1), (~near, _P2, _Q2)):
        if rows.any():
            zr = z[rows]
            x1[rows] = zr * _polevl(zr, P) / _polevl(zr, Q, monic=True)
    x0 = x - _libm_log(x) / x
    out[tail] = np.where(upper[tail], x0 - x1, x1 - x0)
    return out.reshape(p.shape)


def _unit_ball(dim: int, rows: Array) -> tuple[Array, Array]:
    """Directions and radial fractions of low-discrepancy rows in [0, 1]^(dim+1).

    The first ``dim`` coordinates, clipped to [1e-12, 1 - 1e-12], give a
    unit direction through the Gaussian quantile map :func:`ndtri`, the
    last one the fraction ``t ** (1/dim)`` of the radius at which an
    interior point of the ball lies.
    """
    m = rows.shape[0]
    if dim == 0:
        return np.zeros((m, 0)), np.ones(m)
    q = np.clip(rows[:, :dim], 1e-12, 1.0 - 1e-12)
    z = ndtri(q)
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


def _scale_samples(unit: tuple[tuple, tuple], r_u: float, r_v: float) -> tuple[Array, Array]:
    """The unit sample of :func:`_unit_samples` scaled to the radii."""
    (dir_u, frac_u), (dir_v, frac_v) = unit
    return dir_u * (r_u * frac_u)[:, None], dir_v * (r_v * frac_v)[:, None]


def domain_samples(dom: DomainSpec, n_u: int, n_v: int) -> tuple[Array, Array]:
    """Deterministic sample of the product domain.

    Combines low-discrepancy interior points, boundary-shell points (where
    the suprema of smooth maps vanishing at the origin are attained), and
    axis-aligned extreme points.  Reproducible across runs by
    construction.
    """
    return _scale_samples(_unit_samples(dom.sample_count, n_u, n_v), dom.r_u, dom.r_v)


def _max_spectral_norm(blocks: Array) -> float:
    """Largest 2-norm among the matrices ``blocks[j]`` (0 for empty matrices)."""
    if blocks.size == 0:
        return 0.0
    return float(np.max(np.linalg.norm(blocks, 2, axis=(1, 2))))


def check_conditions(sys: TransformedSystem, dom: DomainSpec) -> ConditionReport:
    """Estimate the contraction conditions on a domain by sampling.

    ``sup_G`` and the Lipschitz estimate ``L`` are computed over a
    deterministic low-discrepancy sample of the domain, with Jacobians by
    central differences.  Forward invariance is checked by verifying
    ``|A u + F(u, v)| <= r_u`` at every sample point.  All samples go
    through ``fg`` together: one call for the values and two per
    coordinate for the Jacobians.  A non-finite value or Jacobian entry
    anywhere means the maps are not defined on the whole domain, and
    the report then has ``sup_G = L = inf`` and forward invariance false.
    """
    return _check_conditions(sys, dom, _unit_samples(dom.sample_count, sys.n_u, sys.n_v))


def _check_conditions(sys: TransformedSystem, dom: DomainSpec, unit: tuple) -> ConditionReport:
    """:func:`check_conditions` on the unit sample ``unit`` scaled to ``dom``."""
    U, V = _scale_samples(unit, dom.r_u, dom.r_v)
    n_u = sys.n_u
    b = sys.split.normBinv
    F_val, G_val = sys.fg(U, V)
    jac = jacobian(lambda p: np.hstack(sys.fg(p[:, :n_u], p[:, n_u:])), np.hstack([U, V]))
    if np.all(np.isfinite(F_val)) and np.all(np.isfinite(G_val)) and np.all(np.isfinite(jac)):
        sup_G = float(np.max(np.linalg.norm(G_val, axis=1)))
        image = np.linalg.norm(U @ sys.split.A.T + F_val, axis=1)
        cond3_ok = bool(np.all(image <= dom.r_u * (1.0 + 1e-12)))
        lip = max(_max_spectral_norm(jac[:, :n_u, :]), _max_spectral_norm(jac[:, n_u:, :]))
    else:
        # the maps are not even defined on all of the candidate domain
        sup_G, lip, cond3_ok = math.inf, math.inf, False
    cond1_rhs = (1.0 - b) / b * dom.r_v
    cond2_rhs = 0.25 * (1.0 / b - sys.split.normA)
    return ConditionReport(
        sup_G=sup_G,
        L=lip,
        cond1_ok=sup_G < cond1_rhs,
        cond2_ok=lip < cond2_rhs,
        cond3_ok=cond3_ok,
        cond1_rhs=cond1_rhs,
        cond2_rhs=cond2_rhs,
        rho=b * lip,
        samples_used=U.shape[0],
        r_u=dom.r_u,
        r_v=dom.r_v,
    )


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

    Raises
    ------
    ValueError
        If ``radii`` is empty.
    NonContractionError
        If no candidate radius passes; ``point`` and ``last_residual`` are
        None.
    """
    candidates = sorted(DEFAULT_RADIUS_GRID if radii is None else radii, reverse=True)
    if not candidates:
        raise ValueError("radii must hold at least one candidate radius")
    unit = _unit_samples(sample_count, sys.n_u, sys.n_v)
    for r in candidates:
        dom = DomainSpec(r_u=float(r), r_v=float(r), sample_count=sample_count)
        report = _check_conditions(sys, dom, unit)
        if report.all_ok:
            return dom, report
    raise NonContractionError("contraction conditions fail on every candidate radius")


@dataclass
class PolicyApprox:
    """Evaluator for the order-``i`` approximate policy function.

    Order 0 is the zero map; order ``i >= 1`` solves the implicit
    recursion by Picard iteration, recursing down to order 0.  Every
    solve, nested ones included, mixes its last two images by
    safeguarded Anderson(1) steps (:func:`picard` with ``accelerate``),
    which converges to the same fixed point in fewer sweeps.  An
    evaluation takes one point or a batch of points as rows; each row is
    an independent fixed-point problem, solved in lockstep with the other
    rows.  Within one evaluation, each nested solve at level ``L < i``
    starts from that row's last level-``L`` solution of that evaluation
    (the first from zero), so one evaluation costs far fewer ``fg`` calls
    than cold nested solves.  No state outlives the evaluation.

    Attributes
    ----------
    order : int
        Recursion depth ``i``.
    system : TransformedSystem
    inner_tol : float
        Stopping tolerance on the increment ``|T(v) - v|`` of each solve,
        which returns the image ``T(v)``.
    inner_max_iter : int
        Iteration budget per fixed-point solve.
    domain : DomainSpec or None
        Verified domain; metadata for bound computations and for the
        truncation of simulated paths.
    """

    order: int
    system: TransformedSystem
    inner_tol: float = 1e-12
    inner_max_iter: int = 200
    domain: DomainSpec | None = None

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if self.inner_tol <= 0:
            raise ValueError("inner_tol must be positive")

    def __call__(self, u) -> Array:
        return eval_policy(self, u)


#: Rows of a batch: ``slice(None)`` for all of them, else a mask or indices.
Rows = slice | Array


def _subset(rows: Rows, sub: Rows) -> Rows:
    """The rows ``sub`` of the batch rows ``rows``, as rows of the whole batch."""
    if isinstance(sub, slice):
        return rows
    if isinstance(rows, slice):
        return sub
    return rows[sub]


def _fixed_point(
    p: PolicyApprox, level: int, U: Array, warm: Array, rows: Rows, trace: list | None = None
) -> tuple[Array, Array]:
    """Solve the level-``level`` implicit equation at the rows ``U`` by mixed Picard steps.

    ``U`` holds the rows ``rows`` of a batch, and ``warm[level]`` the
    ``(N, n_v)`` starts of the whole batch at this level: the solve starts
    each row there, and a row that converges leaves its solution there for
    the next solve at this level.  Each nested look-ahead
    ``h_{level-1}(A u + F)`` is solved on the rows still iterating only.
    Any start in the ball converges to the same fixed point, so the starts
    change the iteration count, not the limit.  Every solve here, nested
    ones included, takes :func:`picard`'s safeguarded Anderson(1) steps;
    ``trace`` collects the top-level images, of which the first two are
    plain Picard iterates.  Returns ``(V, increments)`` as :func:`picard`
    does.
    """
    sys = p.system
    ahead = None
    if level > 1:
        A_T = sys.split.A.T

        def ahead(U_act: Array, F_val: Array, act: Rows) -> Array:
            return _fixed_point(p, level - 1, U_act @ A_T + F_val, warm, _subset(rows, act))[0]

    V, inc = picard(
        sys, U, warm[level, rows], ahead, p.inner_tol, p.inner_max_iter, trace, accelerate=True
    )
    if inc.max() <= p.inner_tol:  # every row converged (a NaN fails the test)
        warm[level, rows] = V
    else:
        done = inc <= p.inner_tol
        warm[level, _subset(rows, done)] = V[done]
    return V, inc


def _secant(G: Array, R: Array, inc: Array, hist: list) -> Array:
    """The next point of each row under Anderson(1) mixing, and the row's new history.

    ``G``, ``R`` and ``inc`` are this sweep's images ``g_k = T(v_k)``,
    residuals ``r_k = g_k - v_k`` and residual norms, all finite except
    the NaN residual of a row that :func:`picard` sent back to an earlier
    image, which clears that row's history.  ``hist`` holds, per row,
    ``[g_{k-1}, r_{k-1}, inc_{k-1}, mixed]`` (empty before the first
    sweep) and is replaced by this sweep's.  A row whose increment fell
    (``inc_k < inc_{k-1}``) and whose residual moved
    (``|r_k - r_{k-1}| > 0``) goes to ``g_k - gamma (g_k - g_{k-1})`` with
    ``gamma = <r_k - r_{k-1}, r_k> / |r_k - r_{k-1}|^2``, the least-squares
    combination of the last two images (the secant step at ``n_v = 1``);
    every other row goes to ``g_k``.  ``mixed`` records which rows moved to
    a mixed point.
    """
    if not hist:  # the first images: nothing to mix with yet
        hist[:] = G, R, inc, np.zeros(inc.shape, bool)
        return G
    G_old, R_old, inc_old, _ = hist
    dR = R - R_old
    den = np.add.reduce(dR * dR, axis=1)
    mix = (inc < inc_old) & (den > 0.0)  # a NaN residual fails the second test
    hist[:] = G, R, inc, mix
    if mix.all():  # the usual case of one row, without masks
        return G - (np.add.reduce(dR * R, axis=1) / den)[:, None] * (G - G_old)
    if not mix.any():
        return G
    gamma = np.divide(np.add.reduce(dR * R, axis=1), den, out=np.zeros_like(den), where=mix)
    return np.where(mix[:, None], G - gamma[:, None] * (G - G_old), G)


def picard(
    sys: TransformedSystem, U: Array, V: Array,
    ahead: Callable[[Array, Array, Rows], Array] | None,
    tol: float, max_iter: int, trace: list | None = None, *, accelerate: bool = False,
) -> tuple[Array, Array]:
    """Picard iteration ``v <- B_inv (ahead(F(u, v)) - G(u, v))`` on the rows ``U``, from ``V``.

    ``U`` and ``V`` are ``(N, n_u)`` and ``(N, n_v)`` with ``N >= 1``.
    Each row iterates until its own increment (the norm of the change
    ``T(v) - v`` that the map makes to its point) is at most ``tol``, and
    then returns the image ``T(v)``.  ``ahead(U_act, F_act, act)`` maps the rows still
    iterating, given as their states, their ``F`` values and their place
    ``act`` among the rows of ``U`` (:data:`Rows`), to the next period's
    policy values; ``None`` is the zero look-ahead of order one, whose
    update ``-B_inv G(u, v)`` forms no ``A u + F``.  While every row is
    iterating the batch is used as given, without indexing or copying;
    rows that finish before others are then set aside.  ``trace``
    collects every image ``T(v)`` of the rows still iterating.

    With ``accelerate`` each row takes safeguarded Anderson(1) steps
    (type II, Walker & Ni 2011): the next point mixes the last two images
    as :func:`_secant` describes, so the first two images are plain Picard
    iterates.  A row mixes only while its increment falls.  If the image
    at a mixed point is non-finite, the row goes back to the image it was
    mixed from, clears its history and goes on; only a non-finite image at
    a plain point fails the row.  The stop test and the returned image
    are those of plain iteration, so a returned value moves by at most
    ``tol`` under the map either way.

    Returns ``(V, increments)``: the solutions and each row's last
    increment.  A row that does not converge within ``max_iter``
    iterations, or whose increment goes non-finite, is a NaN row of ``V``
    and has an increment above ``tol`` or non-finite (``inf`` if no
    iteration ran); the caller raises.
    """
    B_inv_T = sys.split.B_inv.T
    act: Rows = slice(None)
    V_out = inc_out = None  # the whole batch, once rows finish apart
    inc = None
    hist = [] if accelerate else None  # the mixing history of the rows still iterating
    for _ in range(max_iter):
        F_val, G_val = sys.fg(U, V)
        if ahead is None:
            V_new = -(G_val @ B_inv_T)
        else:
            V_new = (ahead(U, F_val, act) - G_val) @ B_inv_T
        if trace is not None:
            trace.append(V_new.copy())  # rows that finish later are written over below
        step = V_new - V
        inc = np.sqrt(np.add.reduce(step * step, axis=1))  # row norms
        if tol < inc.min() and math.isfinite(inc.sum()):
            # every row still iterating (a NaN fails both tests)
            V = V_new if hist is None else _secant(V_new, step, inc, hist)
            continue
        if V_out is None and inc.max() <= tol:
            return V_new, inc  # every row converged on this sweep
        finite = np.isfinite(inc)
        if hist:
            G_old, _, inc_old, mixed = hist
            retry = ~finite & mixed  # the image at a mixed point left the domain
            if retry.any():
                V_new[retry], step[retry], inc[retry] = G_old[retry], np.nan, inc_old[retry]
                finite |= retry
        going = (inc > tol) & finite
        V_new[~finite] = np.nan  # the row failed
        if V_out is None:
            if not going.any():
                return V_new, inc
            V_out, inc_out, act = V_new, inc, np.flatnonzero(going)
        else:
            V_out[act], inc_out[act] = V_new, inc
            act = act[going]
            if not act.size:
                return V_out, inc_out
        U, V, inc = U[going], V_new[going], inc[going]
        if hist is not None:
            hist[:] = [h[going] for h in hist]
            V = _secant(V, step[going], inc, hist)
    failed = np.full(V.shape, np.nan)  # out of iterations
    if V_out is None:
        return failed, np.full(U.shape[0], math.inf) if inc is None else inc
    V_out[act], inc_out[act] = failed, inc
    return V_out, inc_out


def _as_rows(sys: TransformedSystem, u) -> tuple[Array, bool]:
    """``u`` as an ``(N, n_u)`` batch, and whether it was one point."""
    U = np.atleast_1d(np.asarray(u, dtype=float))
    if U.ndim > 2 or U.shape[-1] != sys.n_u:
        raise ValueError(
            f"u must have shape ({sys.n_u},) or (N, {sys.n_u}); got shape {np.shape(u)}"
        )
    return (U[None, :], True) if U.ndim == 1 else (U, False)


def _solve_rows(p: PolicyApprox, U: Array, trace: list | None = None) -> tuple[Array, Array]:
    """The order-``p.order`` policy at the rows ``U`` and each row's last increment.

    A row whose increment is not at most ``p.inner_tol`` failed and is a
    NaN row; the other rows are unaffected by it.
    """
    sys = p.system
    if p.order == 0 or not U.shape[0]:
        return np.zeros((U.shape[0], sys.n_v)), np.zeros(U.shape[0])
    warm = np.zeros((p.order + 1, U.shape[0], sys.n_v))
    return _fixed_point(p, p.order, U, warm, slice(None), trace)


def _raise_failed(p: PolicyApprox, U: Array, inc: Array) -> None:
    """Raise ``NonContractionError`` for the first row of ``U`` whose increment ``inc`` failed."""
    if not inc.size or inc.max() <= p.inner_tol:
        return
    j = np.flatnonzero(~(inc <= p.inner_tol))[0]
    increment = float(inc[j])
    reason = (
        f"did not reach {p.inner_tol:.1e} within {p.inner_max_iter} iterations "
        f"(last increment {increment:.3e})"
        if math.isfinite(increment)
        else "went non-finite: the recursion left the domain of definition"
    )
    raise NonContractionError(
        f"order-{p.order} fixed-point iteration {reason}; contraction "
        "conditions are violated at this point",
        point=U[j].copy(),
        last_residual=increment,
    )


def _solve(p: PolicyApprox, U: Array, trace: list | None = None) -> Array:
    """The order-``p.order`` policy at the rows ``U``; raises for the first failed row."""
    V, inc = _solve_rows(p, U, trace)
    _raise_failed(p, U, inc)
    return V


def eval_policy(p: PolicyApprox, u) -> Array:
    """Evaluate the order-``p.order`` policy approximation at ``u``.

    ``u`` is one point, shape ``(n_u,)``, giving ``(n_v,)``, or ``N``
    points as rows, shape ``(N, n_u)``, giving ``(N, n_v)``.  Each
    returned value ``v`` satisfies the implicit recursion to within the
    inner tolerance: applying the defining map to ``v`` moves it by at
    most ``inner_tol``.  Each solve takes safeguarded Anderson(1) steps
    and returns the image ``T(v)`` at which its increment ``|T(v) - v|``
    first reaches ``inner_tol``, as plain Picard iteration would.  The
    rows are independent fixed-point problems solved in lockstep, each
    stopping at its own tolerance and keeping its own mixing history.
    The top-level solve starts from zero and each nested solve from the
    row's previous solution at its level in this call, so the result is
    a function of ``u`` alone, bitwise the same whatever was evaluated
    before.  A batched row agrees with the same point evaluated alone to
    rounding (a batched ``fg`` may round differently from a single-point
    one).

    Raises
    ------
    ValueError
        If ``u`` has neither shape.
    NonContractionError
        If the solve fails at some row, nested solves included; ``point``
        is the first such row.
    """
    U, single = _as_rows(p.system, u)
    V = _solve(p, U)
    return V[0] if single else V


def picard_iterates(p: PolicyApprox, u) -> list[Array]:
    """Successive top-level images ``T(v_k)`` at the point ``u`` (diagnostic).

    The first two are plain Picard iterates, the first being the image of
    the zero map; each later one is the image of the point that mixing
    chose (:func:`picard`), and is non-finite where such a point left the
    domain.  The last is the converged value returned by
    :func:`eval_policy`, bitwise.
    """
    U, single = _as_rows(p.system, u)
    if not single:
        raise ValueError("picard_iterates takes one point")
    trace: list[Array] = []
    _solve(p, U, trace)
    return [V[0] for V in trace]


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
