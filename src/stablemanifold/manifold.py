"""Approximate policy functions, contraction conditions, and error bounds.

The central object is the family of maps ``h_i`` defined recursively by

    ``h_i(u) = -B_inv G(u, h_i(u)) + B_inv h_{i-1}(A u + F(u, h_i(u)))``

with ``h_0 = 0``.  Each evaluation solves the implicit equation by Picard
iteration; the iteration is a contraction whenever the sampled conditions
reported by :func:`check_conditions` hold on the working domain.  The
module also provides the explicit graph-transform recursion and the
truncated forward-summation operator for comparison, the majorizing
scalar recursion used by the derivative bound, and the a priori error
bound of the approximation theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import ndtri

from ._numdiff import jacobian
from .exceptions import ForwardDivergenceError, NonContractionError
from .spectral import SpectralSplit, TransformedSystem

Array = np.ndarray

#: Radii tried (largest first) when searching for a verified domain.
DEFAULT_RADIUS_GRID = (
    0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.12, 0.1, 0.08, 0.06,
    0.05, 0.04, 0.03, 0.02, 0.015, 0.01, 0.0075, 0.005, 0.002, 0.001,
)


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


def _ball_points(radius: float, dim: int, rows: Array, shell: bool = False) -> Array:
    """Map low-discrepancy rows in [0, 1]^(dim+1) into the ball of ``radius``.

    The first ``dim`` coordinates give a direction through the Gaussian
    quantile map, the last one the radial position (``shell=True`` pins
    points to the boundary sphere).
    """
    m = rows.shape[0]
    if dim == 0:
        return np.zeros((m, 0))
    q = np.clip(rows[:, :dim], 1e-12, 1.0 - 1e-12)
    z = ndtri(q)
    lengths = np.linalg.norm(z, axis=1)
    degenerate = lengths < 1e-12
    z[degenerate] = 0.0
    z[degenerate, 0] = 1.0
    lengths[degenerate] = 1.0
    dirs = z / lengths[:, None]
    if shell:
        radial = np.full(m, radius)
    else:
        radial = radius * rows[:, dim] ** (1.0 / dim)
    return dirs * radial[:, None]


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


def _axis_points(radius: float, dim: int) -> Array:
    out = [np.zeros(dim)]
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = radius
        out.append(e)
        out.append(-e)
    return np.array(out)


def domain_samples(dom: DomainSpec, n_u: int, n_v: int) -> tuple[Array, Array]:
    """Deterministic sample of the product domain.

    Combines low-discrepancy interior points, boundary-shell points (where
    the suprema of smooth maps vanishing at the origin are attained), and
    axis-aligned extreme points.  Reproducible across runs by
    construction.
    """
    groups = 4
    m = max(1, -(-dom.sample_count // groups))
    rows = _halton(m + 1, (n_u + 1) + (n_v + 1))[1:]  # drop the initial all-zero point
    ru = rows[:, : n_u + 1]
    rv = rows[:, n_u + 1 :]
    us, vs = [], []
    for shell_u in (False, True):
        for shell_v in (False, True):
            us.append(_ball_points(dom.r_u, n_u, ru, shell=shell_u))
            vs.append(_ball_points(dom.r_v, n_v, rv, shell=shell_v))
    ax_u = _axis_points(dom.r_u, n_u)
    ax_v = _axis_points(dom.r_v, n_v)
    grid_u = np.repeat(ax_u, len(ax_v), axis=0)
    grid_v = np.tile(ax_v, (len(ax_u), 1))
    us.append(grid_u)
    vs.append(grid_v)
    return np.vstack(us), np.vstack(vs)


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
    U, V = domain_samples(dom, sys.n_u, sys.n_v)
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
    and returns the first fully verified domain together with its report.

    Raises
    ------
    NonContractionError
        If no candidate radius passes; ``point`` and ``last_residual`` are
        None.
    """
    candidates = sorted(radii or DEFAULT_RADIUS_GRID, reverse=True)
    for r in candidates:
        dom = DomainSpec(r_u=float(r), r_v=float(r), sample_count=sample_count)
        report = check_conditions(sys, dom)
        if report.all_ok:
            return dom, report
    raise NonContractionError("contraction conditions fail on every candidate radius")


@dataclass
class PolicyApprox:
    """Evaluator for the order-``i`` approximate policy function.

    Order 0 is the zero map; order ``i >= 1`` solves the implicit
    recursion by Picard iteration, recursing down to order 0.

    Attributes
    ----------
    order : int
        Recursion depth ``i``.
    system : TransformedSystem
    inner_tol : float
        Stopping tolerance on successive Picard iterates.
    inner_max_iter : int
        Iteration budget per fixed-point solve.
    domain : DomainSpec or None
        Verified domain; metadata for bound computations and required
        when ``memo`` is enabled.
    memo : bool
        Warm-start each fixed-point solve from the last solution found at
        a nearby point (grid pitch ``r_u / 2048``).  Accelerates grid
        sweeps; results agree with cold starts to within the inner
        tolerance.
    """

    order: int
    system: TransformedSystem
    inner_tol: float = 1e-12
    inner_max_iter: int = 200
    domain: DomainSpec | None = None
    memo: bool = False
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if self.inner_tol <= 0:
            raise ValueError("inner_tol must be positive")
        if self.memo and self.domain is None:
            raise ValueError("memoization requires a domain (pitch is r_u / 2048)")

    def __call__(self, u) -> Array:
        return eval_policy(self, u)


def _fixed_point(p: PolicyApprox, level: int, u: Array, trace: list | None) -> Array:
    sys = p.system
    if level == 0:
        return np.zeros(sys.n_v)
    if not np.all(np.isfinite(u)):
        raise NonContractionError(
            "state left the domain of definition during the recursion",
            point=np.asarray(u, dtype=float),
            last_residual=math.inf,
        )
    key = None
    v = np.zeros(sys.n_v)
    if p.memo:
        pitch = p.domain.r_u / 2048.0
        key = (level, tuple(np.round(np.asarray(u) / pitch).astype(np.int64).tolist()))
        v = p._cache.get(key, v)
    A = sys.split.A
    ahead = (lambda F_val: _fixed_point(p, level - 1, A @ u + F_val, None)) if level > 1 else None

    def error(increment: float) -> NonContractionError:
        return NonContractionError(
            f"fixed-point iteration at level {level} did not reach "
            f"{p.inner_tol:.1e} within {p.inner_max_iter} iterations "
            f"(last increment {increment:.3e}); contraction conditions "
            "are violated at this point",
            point=np.asarray(u, dtype=float),
            last_residual=increment,
        )

    v = picard(sys, u, v, ahead, p.inner_tol, p.inner_max_iter, error, trace)
    if key is not None:
        p._cache[key] = v
    return v


def picard(
    sys: TransformedSystem, u: Array, v: Array, ahead: Callable[[Array], Array] | None,
    tol: float, max_iter: int, error: Callable[[float], Exception], trace: list | None = None,
) -> Array:
    """Picard iteration ``v <- B_inv (ahead(F(u, v)) - G(u, v))`` started at ``v``.

    ``ahead`` maps ``F(u, v)`` to the next period's policy value; ``None``
    is the zero look-ahead of order one, whose update ``-B_inv G(u, v)``
    forms no ``A u + F``.  Returns once successive iterates differ by at
    most ``tol``; ``trace`` collects every iterate.  Raises
    ``error(last increment)`` when ``max_iter`` iterations do not converge
    or the increment goes nonfinite.
    """
    B_inv = sys.split.B_inv
    increment = math.inf
    for _ in range(max_iter):
        F_val, G_val = sys.fg(u, v)
        if ahead is None:
            v_new = -(B_inv @ G_val)
        else:
            v_new = B_inv @ (ahead(F_val) - G_val)
        if trace is not None:
            trace.append(v_new)
        increment = float(np.linalg.norm(v_new - v))
        v = v_new
        if not np.isfinite(increment):
            break
        if increment <= tol:
            return v
    raise error(increment)


def eval_policy(p: PolicyApprox, u) -> Array:
    """Evaluate the order-``p.order`` policy approximation at ``u``.

    The returned value ``v`` satisfies the implicit recursion to within
    the inner tolerance: applying the defining map to ``v`` moves it by
    at most ``inner_tol``.

    Raises
    ------
    NonContractionError
        If any fixed-point solve along the recursion fails to converge.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return _fixed_point(p, p.order, u, None)


def picard_iterates(p: PolicyApprox, u) -> list[Array]:
    """Successive top-level Picard iterates at ``u`` (diagnostic).

    The first element is the image of the zero map; the last is the
    converged value returned by :func:`eval_policy`.
    """
    trace: list[Array] = []
    _fixed_point(p, p.order, np.atleast_1d(np.asarray(u, dtype=float)), trace)
    return trace


def eval_policy_hadamard(sys: TransformedSystem, order: int, u) -> Array:
    """Explicit graph-transform recursion of the same order.

    Substitutes the previous-order map rather than solving implicitly, so
    no inner iteration is needed.  Order 0 is the zero map.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order == 0:
        return np.zeros(sys.n_v)
    prev_here = eval_policy_hadamard(sys, order - 1, u)
    F_val, G_val = sys.fg(u, prev_here)
    shifted = sys.split.A @ u + F_val
    prev_ahead = eval_policy_hadamard(sys, order - 1, shifted)
    return sys.split.B_inv @ (prev_ahead - G_val)


def eval_lyapunov_perron(
    sys: TransformedSystem,
    horizon: int,
    u0,
    v0,
    divergence_cap: float = 1e8,
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
        When an iterate goes nonfinite, exceeds ``divergence_cap``, or
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
        if not np.isfinite(size) or size > divergence_cap:
            raise ForwardDivergenceError(
                f"forward iterate exceeded {divergence_cap:.1e} at step {k + 1}",
                step=k + 1,
            )
        weight = weight @ B_inv
    return acc


def forward_orbit(sys: TransformedSystem, u0, v0, steps: int) -> tuple[Array, Array]:
    """Forward orbit of the transformed system from ``(u0, v0)``.

    Returns the visited ``u`` and ``v`` sequences as arrays with at most
    ``steps + 1`` rows; stops early if the dynamics go nonfinite.
    """
    u = np.atleast_1d(np.asarray(u0, dtype=float)).copy()
    v = np.atleast_1d(np.asarray(v0, dtype=float)).copy()
    us, vs = [u.copy()], [v.copy()]
    for _ in range(steps):
        F_val, G_val = sys.fg(u, v)
        if not (np.all(np.isfinite(F_val)) and np.all(np.isfinite(G_val))):
            break
        u = sys.split.A @ u + F_val
        v = sys.split.B @ v + G_val
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            break
        us.append(u.copy())
        vs.append(v.copy())
    return np.array(us), np.array(vs)


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
    a = 2.0 * b / (1.0 + b * split.normA)
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
