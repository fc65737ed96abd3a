from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import quadratic_stress_systems, schur_split_scipy, stress_matrices, transformed_feed
from stablemanifold import (
    BalancingError,
    BlanchardKahnError,
    DomainSpec,
    UnitRootError,
    build_first_order,
    build_system,
    build_growth,
    build_transformed,
    make_exogenous_test_system,
    rescale_columns,
    schur_split,
    transformed_from_maps,
)
from stablemanifold import spectral
from stablemanifold.exceptions import NonContractionError, SolverError
from stablemanifold.manifold import domain_samples, search_domain


def test_growth_split_matches_hand_values(growth):
    a, b = growth.params.alpha, growth.params.beta
    split = growth.split
    assert_allclose(split.A, [[a]], atol=1e-12)
    assert_allclose(split.B, [[1.0 / (a * b)]], atol=1e-12)
    assert_allclose(split.Z, [[1.0, 1.0], [a, 1.0 / (a * b)]], atol=1e-12)
    assert split.normA < 1.0 and split.normBinv < 1.0
    assert split.gamma_slack <= 1e-12


def test_growth_split_up_to_column_scaling(growth):
    # the raw similarity from the solver agrees with the hand-derived basis
    # after normalizing each column by its leading entry
    raw = schur_split(growth.first_order.K, n_u=1)
    a, b = growth.params.alpha, growth.params.beta
    normalized = raw.Z / raw.Z[0, :]
    assert_allclose(normalized, [[1.0, 1.0], [a, 1.0 / (a * b)]], atol=1e-10)


def test_similarity_reconstruction(growth):
    split = growth.split
    K = growth.first_order.K
    assert np.max(np.abs(split.Z @ split.P @ split.Z_inv - K)) <= 1e-9
    assert np.max(np.abs(split.Z @ split.Z_inv - np.eye(2))) <= 1e-10


def test_block_diagonal_input_needs_no_work():
    K = np.diag([0.36, 2.0])
    split = schur_split(K, n_u=1)
    assert_allclose(np.abs(split.Z), np.eye(2), atol=1e-12)
    assert_allclose(split.A, [[0.36]], atol=1e-14)
    assert_allclose(split.B, [[2.0]], atol=1e-14)


def test_constructed_spectrum_is_recovered():
    rng = np.random.default_rng(42)
    target = np.array([0.3, 0.7, 1.5, 2.0])
    while True:
        S = rng.normal(size=(4, 4))
        if np.linalg.cond(S) < 50:
            break
    K = S @ np.diag(target) @ np.linalg.inv(S)
    split = schur_split(K, n_u=2)
    stable = np.sort(np.abs(np.linalg.eigvals(split.A)))
    unstable = np.sort(np.abs(np.linalg.eigvals(split.B)))
    assert_allclose(stable, [0.3, 0.7], atol=1e-8)
    assert_allclose(unstable, [1.5, 2.0], atol=1e-8)
    assert np.max(np.abs(split.Z @ split.P @ split.Z_inv - K)) <= 1e-8


def test_spectrum_preserved_and_norms_balanced():
    rng = np.random.default_rng(5)
    # complex stable pair plus real unstable eigenvalues
    rot = 0.6 * np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
    base = np.zeros((4, 4))
    base[:2, :2] = rot
    base[2:, 2:] = np.diag([1.8, 2.5])
    S = rng.normal(size=(4, 4))
    S += 4 * np.eye(4)
    K = S @ base @ np.linalg.inv(S)
    split = schur_split(K, n_u=2)
    eig_in = np.sort_complex(np.linalg.eigvals(K))
    eig_out = np.sort_complex(np.linalg.eigvals(split.P))
    assert_allclose(eig_in, eig_out, atol=1e-8)
    assert split.normA < 1.0
    assert split.normBinv < 1.0


def test_unit_root_is_rejected():
    with pytest.raises(UnitRootError):
        schur_split(np.diag([1.0, 2.0]), n_u=1)
    with pytest.raises(UnitRootError):
        schur_split(np.diag([1.0 + 5e-9, 2.0]), n_u=1)


def test_wrong_stable_count_is_rejected():
    with pytest.raises(BlanchardKahnError) as err:
        schur_split(np.diag([0.4, 0.6, 2.0]), n_u=1)
    assert err.value.found == 2
    assert err.value.required == 1


def test_rescale_columns_roundtrip(growth):
    raw = schur_split(growth.first_order.K, n_u=1)
    scaled = rescale_columns(raw, 1.0 / raw.Z[0, :])
    assert_allclose(scaled.Z[0, :], [1.0, 1.0], atol=1e-14)
    assert np.max(np.abs(scaled.Z @ scaled.Z_inv - np.eye(2))) <= 1e-12
    assert_allclose(scaled.A, raw.A, atol=1e-14)
    with pytest.raises(ValueError):
        rescale_columns(raw, np.array([1.0, 0.0]))


def test_rescale_columns_keeps_the_coupled_scales_equal():
    K = np.array([[0.5, 1.0, 0.3], [0.0, 0.2, 0.2], [0.1, 0.0, 2.0]])
    scaled = rescale_columns(schur_split(K, n_u=2), [2.0, 2.0, 0.5])
    assert np.max(np.abs(scaled.Z @ scaled.P @ scaled.Z_inv - K)) <= 1e-12


def test_transformed_maps_vanish_at_origin(growth):
    F0, G0 = growth.system.fg(np.zeros(1), np.zeros(1))
    assert np.linalg.norm(F0) <= 1e-12
    assert np.linalg.norm(G0) <= 1e-12


def test_transformed_feed_matches_displayed_formula(growth):
    for u, v in ((0.01, 0.005), (0.04, -0.01), (-0.03, 0.02)):
        _, G_val = growth.system.fg(np.array([u]), np.array([v]))
        assert_allclose(G_val[0], transformed_feed(growth.params, u, v), rtol=1e-12)


def test_linear_model_transforms_to_zero_maps(linear_model):
    tsys = build_system(linear_model, 1e-13)
    rng = np.random.default_rng(1)
    for _ in range(5):
        u = rng.normal(scale=0.3, size=2)
        v = rng.normal(scale=0.3, size=1)
        F_val, G_val = tsys.fg(u, v)
        assert np.linalg.norm(F_val) <= 1e-12
        assert np.linalg.norm(G_val) <= 1e-12


def test_transform_rejects_nonvanishing_remainder(growth):
    # a remainder that fails its origin identities signals an upstream bug
    from stablemanifold import TransformBuildError
    import dataclasses

    broken = dataclasses.replace(
        growth.first_order, nonlinear=lambda w: np.array([0.0, 0.1])
    )
    with pytest.raises(TransformBuildError):
        build_transformed(broken, growth.split)
    tilted = dataclasses.replace(
        growth.first_order, nonlinear=lambda w: np.stack([0.0 * w[..., 0], 0.5 * w[..., 0]], -1)
    )
    with pytest.raises(TransformBuildError):
        build_transformed(tilted, growth.split)


def test_assigned_split_or_remainder_rederives_fg(growth):
    # fg reads the system's split and remainder at each call, so it follows an
    # assignment as it follows dataclasses.replace; a wrapper set on fg itself stays
    split = rescale_columns(growth.system.split, [2, 1])
    U, V = np.linspace(-0.1, 0.1, 7)[:, None], np.linspace(0.05, -0.05, 7)[:, None]
    sysm = copy.copy(growth.system)
    sysm.split = split
    for got, ref in zip(sysm.fg(U, V), build_transformed(growth.first_order, split).fg(U, V)):
        assert np.array_equal(got, ref)
    doubled = lambda w: 2.0 * growth.first_order.nonlinear(w)  # noqa: E731
    sysm.nonlinear = doubled
    for got, ref in zip(sysm.fg(U, V), dataclasses.replace(sysm, nonlinear=doubled).fg(U, V)):
        assert np.array_equal(got, ref)
    wrapper = lambda u, v: (u, v)  # noqa: E731
    sysm.fg = wrapper
    assert sysm.fg is wrapper


def test_synthetic_system_constructor():
    sysm = transformed_from_maps(
        A=[[0.5]],
        B=[[2.0]],
        F=lambda U, V: np.zeros_like(U),
        G=lambda U, V: U**2,
        n_z=1,
    )
    assert sysm.n_u == 1 and sysm.n_v == 1
    assert_allclose(sysm.fg(np.array([0.3]), np.zeros(1))[1], [0.09])
    assert sysm.split.normBinv == 0.5


def test_synthetic_fg_takes_rows_in_one_call_of_each_map():
    calls = {"F": [], "G": []}

    def F(U, V):
        calls["F"].append(U.shape)
        return 0.1 * U * V

    def G(U, V):
        calls["G"].append(V.shape)
        return U**2

    sysm = transformed_from_maps(A=[[0.5]], B=[[2.0]], F=F, G=G, n_z=1)
    U, V = domain_samples(DomainSpec(1.0, 1.0, 64), 1, 1)
    F_val, G_val = sysm.fg(U, V)
    assert calls == {"F": [U.shape], "G": [V.shape]} and U.shape[0] > 1
    assert np.array_equal(F_val, 0.1 * U * V) and np.array_equal(G_val, U**2)


def _fg_rows(sysm, U, V):
    rows = [sysm.fg(u, v) for u, v in zip(U, V)]
    return np.array([F for F, _ in rows]), np.array([G for _, G in rows])


@pytest.mark.parametrize("radius, has_nan", [(0.0075, False), (0.5, True)])
def test_batched_fg_matches_rows_on_growth(growth, radius, has_nan):
    U, V = domain_samples(DomainSpec(radius, radius, 512), 1, 1)
    batch = growth.system.fg(U, V)
    rows = _fg_rows(growth.system, U, V)
    for b, r in zip(batch, rows):
        assert b.shape == r.shape == (U.shape[0], 1)
        assert np.isnan(r).any() == has_nan
        assert np.array_equal(b, r, equal_nan=True)


def test_batched_fg_matches_rows_with_inner_newton(growth):
    model = dataclasses.replace(build_growth(growth.params), linear_in_next=False)
    sysm = build_transformed(build_first_order(model, growth.ss), growth.split)
    U, V = domain_samples(DomainSpec(0.02, 0.02, 32), 1, 1)
    for b, r in zip(sysm.fg(U, V), _fg_rows(sysm, U, V)):
        assert np.array_equal(b, r)


def test_batched_fg_matches_rows_on_synthetic_system():
    sysm = make_exogenous_test_system()
    U, V = domain_samples(DomainSpec(1.0, 1.0, 64), 1, 1)
    for b, r in zip(sysm.fg(U, V), _fg_rows(sysm, U, V)):
        assert b.shape == (U.shape[0], 1)
        assert np.array_equal(b, r)


def test_levels_of_rows_match_single_points(growth):
    # one matrix-matrix product over all rows rounds some of them differently
    rng = np.random.default_rng(0)
    U, V = rng.uniform(-0.2, 0.6, (201, 1)), rng.uniform(-0.03, 0.03, (201, 1))
    rows = growth.system.to_levels(U, V)
    for j in range(U.shape[0]):
        for got, ref in zip(rows, growth.system.to_levels(U[j], V[j])):
            assert np.array_equal(got[j], ref)


@pytest.fixture(scope="module")
def stress_splits():
    """``(kind, K, n_u, ours, reference)`` over the seeded stress set; a failed split is None."""

    def attempt(split, K, n_u):
        try:
            return split(K, n_u)
        except SolverError:
            return None

    return [
        (kind, K, n_u, attempt(schur_split, K, n_u), attempt(schur_split_scipy, K, n_u))
        for kind, K, n_u in stress_matrices(seed=0)
    ]


@pytest.mark.parametrize("group", ["stable", "unstable"])
def test_ordered_schur_leading_block_is_an_orthogonal_restriction(group, stress_splits):
    for kind, K, n_u, _, _ in stress_splits:
        eigvals = np.linalg.eigvals(K)
        inside = np.abs(eigvals) < 1.0
        chosen = eigvals[inside] if group == "stable" else eigvals[~inside]
        T, Q = spectral._ordered_schur(K, chosen)
        k = len(chosen)
        assert T.shape == (k, k) and Q.shape == (K.shape[0], k), kind
        scale = max(1.0, np.max(np.abs(K)))
        # the near-real pair left of a size-3 Jordan block has a nearly
        # rank-one complex basis, which costs its deflation a few hundred
        # ulps (at most 4.1e-13 relative on seeds 0-5)
        tol = 1e-12 if kind == "jordan3" else 1e-13
        assert np.max(np.abs(Q.T @ Q - np.eye(k)), initial=0.0) <= 1e-13, kind
        assert np.max(np.abs(K @ Q - Q @ T), initial=0.0) <= tol * scale, kind
        assert not np.tril(T, -2).any(), kind
        sub = np.diag(T, -1)
        assert not (sub[:-1] != 0.0)[sub[1:] != 0.0].any(), kind  # blocks of at most 2x2
        for i in np.flatnonzero(sub):  # each 2x2 block is a complex pair
            assert (0.5 * (T[i, i] - T[i + 1, i + 1])) ** 2 + T[i, i + 1] * T[i + 1, i] < 0.0, kind
        moduli = np.abs(np.linalg.eigvals(T))
        assert np.all(moduli < 1.0) if group == "stable" else np.all(moduli > 1.0), kind


def test_split_succeeds_wherever_scipy_split_does(stress_splits):
    for kind, K, n_u, ours, reference in stress_splits:
        if reference is not None:
            assert ours is not None, (kind, K.shape[0], n_u)


@pytest.mark.parametrize("seed", range(4))
def test_every_stress_matrix_splits_into_contracting_blocks(seed, stress_splits):
    cases = (
        [(kind, K, n_u, ours) for kind, K, n_u, ours, _ in stress_splits]
        if seed == 0
        else [(kind, K, n_u, schur_split(K, n_u)) for kind, K, n_u in stress_matrices(seed=seed)]
    )
    assert len(cases) == 750
    for kind, K, n_u, split in cases:
        assert split is not None, (kind, K.shape[0], n_u)
        assert split.normA < 1.0 and (split.n_v == 0 or split.normBinv < 1.0), kind
        gap = np.max(np.abs(split.Z @ split.P @ split.Z_inv - K))
        assert gap <= 1e-12 * max(1.0, np.max(np.abs(K))), kind
        assert np.linalg.cond(split.Z) <= 1e4, kind


@pytest.mark.parametrize("seed, floor", [(0, 72), (1, 71)])
def test_quadratic_remainder_verifies_a_domain_on_most_stress_matrices(seed, floor):
    # sizes 2-6, both blocks non-empty: the balanced basis decides how large
    # a ball the sampled conditions accept
    verified = total = 0
    for sysm in quadratic_stress_systems(seed=seed):
        total += 1
        try:
            search_domain(sysm, sample_count=256)
        except NonContractionError:
            continue
        verified += 1
    assert total == 75
    assert verified >= floor


@pytest.mark.parametrize("M", [
    0.9 * np.eye(3) + np.diag([1.0, 1.0], 1),  # a size-3 Jordan block at 0.9
    0.95 * np.array([[np.cos(0.4), -3.0 * np.sin(0.4)], [np.sin(0.4) / 3.0, np.cos(0.4)]]),
    np.array([[0.3, 2.0, -1.0], [0.0, 0.5, 0.7], [0.0, -0.6, 0.5]]),  # a real root, then a pair
], ids=["jordan3", "pair", "real-then-pair"])
def test_contracting_similarity_contracts(M):
    R = spectral._contracting_similarity(M)
    assert R[0, 0] == 1.0 and not np.tril(R, -1).any()
    assert np.linalg.norm(M, 2) >= 1.0  # the block alone does not contract
    balanced = R @ M @ np.linalg.inv(R)
    assert np.linalg.norm(balanced, 2) < 1.0
    assert not np.tril(balanced, -2).any()  # quasi-triangular stays quasi-triangular


@pytest.mark.parametrize("m", [0.36, -0.9, 1e-3])
def test_contracting_similarity_of_a_scalar_is_the_identity(m):
    assert spectral._contracting_similarity(np.array([[m]])).tobytes() == np.array([[1.0]]).tobytes()


def test_split_spectra_match_scipy_split(stress_splits):
    for kind, K, n_u, ours, reference in stress_splits:
        if ours is None or reference is None:
            continue
        for mine, ref in ((ours.A, reference.A), (ours.B, reference.B)):
            if not mine.size:
                continue
            # characteristic polynomials: well conditioned even for defective blocks
            assert_allclose(np.poly(mine), np.poly(ref), rtol=0, atol=1e-8 * np.max(np.abs(np.poly(ref))))
            if not kind.startswith("jordan"):
                assert_allclose(
                    np.sort_complex(np.linalg.eigvals(mine)),
                    np.sort_complex(np.linalg.eigvals(ref)),
                    atol=1e-8,
                )
        assert np.max(np.abs(ours.Z @ ours.P @ ours.Z_inv - K)) <= 1e-12 * max(1.0, np.max(np.abs(K)))


def _unit_columns(Z):
    """Each column divided by its entry of largest magnitude."""
    return Z / Z[np.argmax(np.abs(Z), axis=0), np.arange(Z.shape[1])]


def test_scalar_blocks_match_scipy_basis(growth, stress_splits):
    cases = [(growth.first_order.K, 1)]
    cases += [(K, n_u) for _, K, n_u, _, _ in stress_splits if K.shape == (2, 2) and n_u == 1]
    assert len(cases) >= 5
    for K, n_u in cases:
        ours = schur_split(K, n_u)
        reference = schur_split_scipy(K, n_u)
        assert_allclose(_unit_columns(ours.Z), _unit_columns(reference.Z), rtol=0, atol=1e-12)
        assert_allclose(ours.A, reference.A, rtol=1e-12)
        assert_allclose(ours.B, reference.B, rtol=1e-12)


@pytest.mark.parametrize("n_u", [0, 3])
def test_split_with_one_empty_block(n_u):
    rng = np.random.default_rng(7)
    V = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    D = np.diag([0.5, -0.3, 0.8]) if n_u else np.diag([1.5, -2.0, 3.0])
    K = V @ D @ np.linalg.inv(V)
    split = schur_split(K, n_u)
    assert split.A.shape == (n_u, n_u) and split.B.shape == (3 - n_u, 3 - n_u)
    assert np.max(np.abs(split.Z @ split.P @ split.Z_inv - K)) <= 1e-12


# a stable block that is not normal and has norm 3: only a non-orthogonal basis contracts it
_NON_NORMAL = np.array([[0.5, 3.0, 0.0], [0.0, 0.6, 0.0], [0.0, 0.0, 2.0]])


def test_failed_stein_balancing_raises_balancing_error(monkeypatch):
    def fail(M):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(spectral, "_contracting_similarity", fail)
    with pytest.raises(BalancingError, match="the Stein balancing of a block failed"):
        schur_split(_NON_NORMAL, n_u=2)


def test_unbalanced_norm_raises_balancing_error(monkeypatch):
    assert schur_split(_NON_NORMAL, n_u=2).normA < 1.0
    monkeypatch.setattr(spectral, "_contracting_similarity", lambda M: np.eye(M.shape[0]))
    with pytest.raises(BalancingError, match=r"balancing left norm\(A\) = 3\.0"):
        schur_split(_NON_NORMAL, n_u=2)


def test_basis_off_the_invariant_subspaces_raises_balancing_error(monkeypatch):
    deflate = spectral._ordered_schur

    def perturbed(K, eigvals):
        T, Q = deflate(K, eigvals)
        return T, Q + 1e-3

    monkeypatch.setattr(spectral, "_ordered_schur", perturbed)
    with pytest.raises(BalancingError, match="similarity reconstruction residual"):
        schur_split(_NON_NORMAL, n_u=2)
