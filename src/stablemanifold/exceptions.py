"""Exception hierarchy for the solver pipeline.

Every error raised by this package derives from :class:`SolverError`, so
callers can catch the whole family with one clause.  The command-line
front end maps these onto its exit-code contract.
"""

from __future__ import annotations


class SolverError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(SolverError):
    """An input vector or matrix does not have its declared dimension."""


class SteadyStateError(SolverError):
    """Newton iteration for the steady state failed to converge.

    Attributes
    ----------
    last_residual_norm : float
        Residual norm at the final (failed) iterate.
    """

    def __init__(self, message: str, last_residual_norm: float | None = None):
        super().__init__(message)
        self.last_residual_norm = last_residual_norm


class SingularJacobianError(SolverError):
    """A Newton Jacobian was numerically singular."""


class SingularSystemError(SolverError):
    """The lead matrix of the first-order system is not invertible.

    Models whose lead matrix is singular would require a generalized
    (pencil) eigenvalue decomposition, which this package does not
    implement.
    """


class UnitRootError(SolverError):
    """An eigenvalue of the transition matrix lies on or near the unit circle."""


class BlanchardKahnError(SolverError):
    """Stable-eigenvalue count does not match the number of predetermined variables.

    Attributes
    ----------
    found : int
        Number of eigenvalues inside the unit circle.
    required : int
        Number of predetermined (state plus exogenous) variables.
    """

    def __init__(self, found: int, required: int):
        super().__init__(
            f"saddle-path count condition violated: {found} stable eigenvalue(s) "
            f"found, {required} required"
        )
        self.found = found
        self.required = required


class BalancingError(SolverError):
    """The balanced stable/unstable split of the transition matrix failed.

    Raised when a Stein, Cholesky or inverse step of the balancing fails,
    when rounding leaves ``norm(A)`` or ``norm(inv(B))`` at one or above,
    or when ``Z @ diag(A, B) @ Z_inv`` misses the transition matrix.
    """


class TransformBuildError(SolverError):
    """The transformed nonlinearity fails its origin checks.

    Usually signals an inaccurate steady state or a derivative bug in the
    upstream model.
    """


class NonContractionError(SolverError):
    """The contraction conditions fail.

    Raised when an inner fixed-point iteration exceeds its iteration
    budget at a point, and when no candidate radius of the domain search
    passes the sampled conditions.

    Attributes
    ----------
    point : numpy.ndarray or None
        State vector at which the iteration was running (None for the
        domain search).
    last_residual : float or None
        Norm of the final iterate increment (None for the domain search).
    """

    def __init__(self, message: str, point=None, last_residual: float | None = None):
        super().__init__(message)
        self.point = point
        self.last_residual = last_residual


class ForwardDivergenceError(SolverError):
    """Forward iteration of the transformed system blew up.

    Attributes
    ----------
    step : int
        Time index at which divergence was detected.
    """

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class InfeasibleInitialError(SolverError):
    """No transformed initial condition matches the requested starting point."""


class ConfigError(SolverError):
    """A run configuration file or option is invalid."""
