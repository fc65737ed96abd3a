"""Input and consistency checks of the library, each with its exception type and message."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

import mixed_bm
from stablemanifold import (
    DimensionMismatchError,
    DomainSpec,
    ForwardDivergenceError,
    GrowthParams,
    InfeasibleInitialError,
    ModelSpec,
    NonContractionError,
    PolicyApprox,
    SteadyStateError,
    build_first_order,
    build_growth,
    build_system,
    build_transformed,
    error_bound,
    eval_lyapunov_perron,
    eval_policy_hadamard,
    find_steady_state,
    picard_iterates,
    policy_at_levels,
    rescale_columns,
    schur_split,
    simulate,
    simulate_stochastic,
    solve_ep,
    solve_initial,
    taylor_policy,
    transformed_from_maps,
)
from stablemanifold import manifold, solver
from stablemanifold.model import residual_columns


def _raises(exc_type, message: str):
    """``pytest.raises`` for exactly the message ``message``."""
    return pytest.raises(exc_type, match=f"^{re.escape(message)}$")


class TestGrowth:
    def test_taylor_order_below_one(self):
        with _raises(ValueError, "order must be at least 1"):
            taylor_policy(GrowthParams(), 0, 0.2)


class TestManifold:
    def test_domain_needs_a_sample(self):
        with _raises(ValueError, "sample_count must be positive"):
            DomainSpec(0.1, 0.1, 0)

    def test_norm_of_empty_blocks_is_zero(self):
        assert manifold._max_spectral_norm(np.zeros((4, 0, 2))) == 0.0

    def test_picard_iterates_take_one_point(self, growth):
        with _raises(ValueError, "picard_iterates takes one point"):
            picard_iterates(PolicyApprox(order=2, system=growth.system), np.zeros((2, 1)))

    def test_hadamard_order_below_zero(self, growth):
        with _raises(ValueError, "order must be nonnegative"):
            eval_policy_hadamard(growth.system, -1, [0.0])

    def test_shooting_horizon_below_zero(self, exo_system):
        with _raises(ValueError, "horizon must be nonnegative"):
            eval_lyapunov_perron(exo_system, -1, [0.0], [0.0])

    def test_shooting_orbit_past_the_cap(self, exo_system):
        # u = 0 leaves v = 2^k: it passes 1e8 at step 27
        with _raises(ForwardDivergenceError, "forward iterate exceeded 1.0e+08 at step 27") as err:
            eval_lyapunov_perron(exo_system, 40, [0.0], [1.0])
        assert err.value.step == 27

    @pytest.mark.parametrize("kwargs, message", [
        ({"n": 0}, "n must be at least 1"),
        ({"n": 2, "h_tail": -1.0}, "h_tail must be nonnegative"),
    ])
    def test_error_bound_arguments(self, growth, growth_domain, kwargs, message):
        report = growth_domain[1]
        assert report.cond2_ok
        with _raises(ValueError, message):
            error_bound(growth.split, report, **kwargs)


class TestModel:
    def test_steady_guess_of_the_wrong_length(self):
        with _raises(DimensionMismatchError, "steady_guess must have length n_y + n_x = 2, got 3"):
            ModelSpec(n_x=1, n_y=1, n_z=0, residual=lambda *a: np.zeros(2),
                      lambda_mat=np.zeros((0, 0)), steady_guess=np.zeros(3))

    def test_exogenous_transition_with_a_unit_root(self, linear_model):
        message = "exogenous transition matrix must have spectral radius < 1, got 1"
        with _raises(ValueError, message):
            ModelSpec(n_x=1, n_y=1, n_z=1, residual=linear_model.residual,
                      lambda_mat=[[1.0]], steady_guess=np.zeros(2))

    def test_batched_residual_of_the_wrong_shape(self):
        # the batch probe sees two columns; beyond two this residual drops columns
        def residual(y_next, y, x_next, x, z):
            out = np.array([y_next[0] - 2.0 * y[0], x_next[0] - 0.4 * x[0]])
            return out[:, :2] if out.ndim == 2 else out

        model = ModelSpec(n_x=1, n_y=1, n_z=0, residual=residual, lambda_mat=np.zeros((0, 0)),
                          steady_guess=np.zeros(2), linear_in_next=True)
        cols = np.zeros((1, 3))
        with _raises(DimensionMismatchError,
                     "residual returned shape (2, 2) for 3 points, expected (2, 3)"):
            residual_columns(model, cols, cols, cols, cols, np.zeros((0, 3)))

    def test_steady_state_tolerance_must_be_positive(self, linear_model):
        with _raises(ValueError, "tol must be positive"):
            find_steady_state(linear_model, tol=0.0)

    def test_guess_outside_the_residual_domain(self):
        # nonpositive capital: the growth residual is NaN at the guess
        with _raises(SteadyStateError, "Newton stalled at residual norm nan") as err:
            find_steady_state(build_growth(GrowthParams(), steady_guess=-0.1))
        assert math.isnan(err.value.last_residual_norm)


class TestSolver:
    def test_level_grid_order_below_one(self, growth):
        with _raises(ValueError, "order must be at least 1"):
            policy_at_levels(growth.system, 0, [0.2])

    @pytest.mark.parametrize("points, sweeps, message", [
        (1, 1, "u_path must hold at least 2 points, got 1"),
        (3, 0, "sweeps must be at least 1, got 0"),
    ])
    def test_extended_path_sizes(self, exo_system, points, sweeps, message):
        with _raises(ValueError, message):
            solve_ep(exo_system, np.zeros((points, 1)), sweeps)

    def test_extended_path_of_the_wrong_width(self, exo_system):
        with _raises(ValueError, "u_path must be rows of length 1, got shape (3, 2)"):
            solve_ep(exo_system, np.zeros((3, 2)), 1)

    def test_failed_stochastic_period_is_named(self, exo_system):
        # period 2's shock puts period 3's start outside the evaluable region
        pol = PolicyApprox(order=2, system=exo_system)
        with pytest.raises(InfeasibleInitialError) as err:
            simulate_stochastic(pol, [], [0.5], [[0.0], [0.0], [50.0]], 3)
        assert str(err.value) == ("period 3: policy evaluation failed while matching the initial "
                                  "condition (starting point outside the evaluable region)")
        assert isinstance(err.value.__cause__, NonContractionError)

    def test_failed_stochastic_step_keeps_its_error(self, growth, monkeypatch):
        # period 0's next-state evaluation, the second policy evaluation, fails
        real, calls = solver.eval_policy, []

        def second_fails(p, u):
            calls.append(u)
            if len(calls) == 2:
                raise NonContractionError("went non-finite", point=u, last_residual=3.0)
            return real(p, u)

        monkeypatch.setattr(solver, "eval_policy", second_fails)
        pol = PolicyApprox(order=1, system=growth.system)
        with _raises(NonContractionError, "period 0: went non-finite") as err:
            simulate_stochastic(pol, [0.5 * growth.params.k_bar], [], np.zeros((2, 0)), 2)
        assert err.value.point is calls[1] and err.value.last_residual == 3.0

    def test_check_evaluation_that_fails(self, growth):
        # the pinned Newton solve converges; one Picard sweep cannot
        pol = PolicyApprox(order=3, system=growth.system, inner_max_iter=1)
        with pytest.raises(InfeasibleInitialError) as err:
            solve_initial(pol, [0.5 * growth.params.k_bar], [])
        cause = err.value.__cause__
        assert isinstance(cause, NonContractionError)
        assert str(err.value) == (
            "policy evaluation failed while matching the initial condition (the Picard solve "
            "did not reach inner_tol 1.0e-12 within inner_max_iter = 1 sweeps; last increment "
            f"{cause.last_residual:.3e})"
        )
        assert 0.0 < cause.last_residual < 1.0

    def test_check_evaluation_that_goes_non_finite(self, growth, monkeypatch):
        # the check evaluation leaves the domain of definition: its increment is not finite
        def non_finite(p, u):
            raise NonContractionError("went non-finite", point=u, last_residual=float("nan"))

        monkeypatch.setattr(solver, "eval_policy", non_finite)
        pol = PolicyApprox(order=3, system=growth.system)
        with _raises(InfeasibleInitialError,
                     "policy evaluation failed while matching the initial condition "
                     "(starting point outside the evaluable region)"):
            solve_initial(pol, [0.5 * growth.params.k_bar], [])

    def test_too_few_shocks(self, exo_system):
        with _raises(ValueError, "need at least 5 shock rows, got 2"):
            simulate_stochastic(PolicyApprox(order=1, system=exo_system), [], [0.1],
                                np.zeros(2), 5)

    @pytest.mark.parametrize("T", [-1, -3])
    def test_negative_horizon_of_the_path(self, exo_system, counting_fg, T):
        # -1 returned an empty path and -3 failed in numpy on "negative dimensions"
        sysm, calls = counting_fg(exo_system)
        with _raises(ValueError, f"T must be nonnegative, got {T}"):
            simulate(PolicyApprox(order=2, system=sysm), [0.1], T)
        assert calls[0] == 0

    def test_path_takes_one_starting_point(self, growth, counting_fg):
        sysm, calls = counting_fg(growth.system)
        with _raises(ValueError, "simulate takes one starting point"):
            simulate(PolicyApprox(order=2, system=sysm), np.zeros((2, 1)), 5)
        assert calls[0] == 0

    @pytest.mark.parametrize("T", [-1, -3])
    def test_negative_horizon_of_the_stochastic_path(self, growth, exo_system, counting_fg, T):
        # with n_z = 0 the shock rows were made with T rows, which numpy refused
        for sysm, x0, z0 in ((exo_system, [], [0.1]), (growth.system, [0.1], [])):
            counted, calls = counting_fg(sysm)
            with _raises(ValueError, f"T must be nonnegative, got {T}"):
                simulate_stochastic(PolicyApprox(order=2, system=counted), x0, z0,
                                    np.zeros((2, counted.dims[0])), T)
            assert calls[0] == 0

    @pytest.mark.parametrize("which", ["x0", "z0"])
    def test_start_of_the_wrong_length(self, which):
        # two states and two shocks; a one-value x0 was broadcast to both states, and a
        # one-value z0 failed in numpy
        model = mixed_bm.build_model(N=2, seed=0)
        sysm = build_system(model, 1e-13)
        pol = PolicyApprox(order=1, system=sysm)
        start = {"x0": 0.95 * sysm.ss.x_bar, "z0": np.zeros(2)}
        start[which] = start[which][:1]
        with _raises(DimensionMismatchError, f"{which} must have length 2, got 1"):
            solve_initial(pol, start["x0"], start["z0"])
        with _raises(DimensionMismatchError, f"{which} must have length 2, got 1"):
            simulate_stochastic(pol, start["x0"], start["z0"], np.zeros((3, 2)), 3)


class TestSpectral:
    def test_one_scale_per_column(self, growth):
        with _raises(ValueError, "one scale per column required"):
            rescale_columns(growth.split, [1.0])

    def test_scales_within_a_pair(self):
        angle = 0.7
        rot = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        K = np.zeros((3, 3))
        K[:2, :2], K[2, 2] = 0.5 * np.array(rot), 2.0
        split = schur_split(K, n_u=2)
        assert split.A[1, 0] != 0.0  # one 2x2 block
        with _raises(ValueError, "scales must be equal on coordinates that A or B couples"):
            rescale_columns(split, [1.0, 2.0, 1.0])

    def test_scales_across_coupled_scalar_blocks(self):
        # A is triangular with scalar blocks, but its coupling ties the two scales
        K = np.array([[0.5, 1.0, 0.3], [0.0, 0.2, 0.2], [0.1, 0.0, 2.0]])
        split = schur_split(K, n_u=2)
        assert split.A[0, 1] != 0.0
        with _raises(ValueError, "scales must be equal on coordinates that A or B couples"):
            rescale_columns(split, [1.0, 2.0, 1.0])

    def test_split_of_another_size(self, growth, linear_model):
        fos = build_first_order(linear_model, find_steady_state(linear_model))
        with _raises(ValueError, "split dimension does not match the first-order system"):
            build_transformed(fos, growth.split)

    def test_dims_of_another_size(self):
        with _raises(ValueError, "n_z must be between 0 and n_u = 1, got 2"):
            transformed_from_maps(A=[[0.5]], B=[[2.0]], F=lambda U, V: np.zeros_like(U),
                                  G=lambda U, V: np.zeros_like(V), n_z=2)
