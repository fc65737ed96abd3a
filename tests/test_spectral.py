from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import transformed_feed
from stablemanifold import (
    BlanchardKahnError,
    DomainSpec,
    UnitRootError,
    build_first_order,
    build_growth,
    build_transformed,
    find_steady_state,
    make_exogenous_test_system,
    rescale_columns,
    schur_split,
    transformed_from_maps,
)
from stablemanifold.manifold import domain_samples


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


def test_transformed_maps_vanish_at_origin(growth):
    F0, G0 = growth.system.fg(np.zeros(1), np.zeros(1))
    assert np.linalg.norm(F0) <= 1e-12
    assert np.linalg.norm(G0) <= 1e-12


def test_transformed_feed_matches_displayed_formula(growth):
    for u, v in ((0.01, 0.005), (0.04, -0.01), (-0.03, 0.02)):
        _, G_val = growth.system.fg(np.array([u]), np.array([v]))
        assert_allclose(G_val[0], transformed_feed(growth.params, u, v), rtol=1e-12)


def test_linear_model_transforms_to_zero_maps(linear_model):
    ss = find_steady_state(linear_model, tol=1e-13)
    fos = build_first_order(linear_model, ss)
    split = schur_split(fos.K, n_u=2)
    tsys = build_transformed(fos, split)
    rng = np.random.default_rng(1)
    for _ in range(5):
        u = rng.normal(scale=0.3, size=2)
        v = rng.normal(scale=0.3, size=1)
        F_val, G_val = tsys.fg(u, v)
        assert np.linalg.norm(F_val) <= 1e-12
        assert np.linalg.norm(G_val) <= 1e-12


def test_transform_rejects_nonvanishing_remainder(growth):
    # a remainder that fails its origin identities signals an upstream bug
    from stablemanifold import FirstOrderSystem, TransformBuildError
    import dataclasses

    broken = dataclasses.replace(
        growth.first_order, nonlinear=lambda w: np.array([0.0, 0.1])
    )
    with pytest.raises(TransformBuildError):
        build_transformed(broken, growth.split)
    tilted = dataclasses.replace(
        growth.first_order, nonlinear=lambda w: np.array([0.0, 0.5 * w[0]])
    )
    with pytest.raises(TransformBuildError):
        build_transformed(tilted, growth.split)


def test_synthetic_system_constructor():
    sysm = transformed_from_maps(
        A=[[0.5]],
        B=[[2.0]],
        F=lambda u, v: np.zeros(1),
        G=lambda u, v: np.array([u[0] ** 2]),
        dims=(1, 0, 1),
    )
    assert sysm.n_u == 1 and sysm.n_v == 1
    assert_allclose(sysm.fg(np.array([0.3]), np.zeros(1))[1], [0.09])
    assert sysm.split.normBinv == 0.5


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
        assert np.array_equal(np.isnan(b), np.isnan(r))
        assert np.isnan(r).any() == has_nan
        # batched powers may round differently in the last bit
        assert_allclose(b, r, rtol=1e-13, atol=1e-16)


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
