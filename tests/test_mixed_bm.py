"""N mixed Brock-Mirman economies against each economy's closed form ``k_i' = alpha_i beta e^{s_i} k_i^{alpha_i}``.

The first oracle with ``n_v >= 2``: its unstable block ``B`` is 2x2 at
N = 2 and 3x3 at N = 3, and the linearization couples every coordinate.
Bounds are about twice the errors measured when they were set.  A batched
``fg`` row is not bitwise the point alone here, since the unmixing products
round differently in a batch, so no bitwise row property is claimed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from mixed_bm import build_model, draws
from stablemanifold import (
    PolicyApprox,
    build_first_order,
    build_transformed,
    find_steady_state,
    schur_split,
    search_domain,
    simulate,
    solve_initial,
)
from stablemanifold.cli import main

#: (N, seed) of each case
CASES = ((2, 0), (3, 2))
#: (f, s0) of the deterministic paths: capital f k_bar_i and shock s0 in every economy, mixed
STARTS = ((0.9, -0.05), (1.0, 0.0), (1.1, 0.05))
T = 40
#: (N, seed) -> order -> bound on max_t |x_{t+1} - M_x closed form|; measured 4.31e-6 /
#: 2.85e-7 / 2.10e-8 at N = 2 and 1.07e-5 / 2.69e-6 / 6.86e-7 at N = 3
PATH_BOUNDS = {(2, 0): {1: 9e-6, 2: 6e-7, 3: 4.5e-8}, (3, 2): {1: 2.2e-5, 2: 5.5e-6, 3: 1.4e-6}}
#: (N, seed) -> the radius the domain search verifies at 2048 samples
SEARCH_RADIUS = {(2, 0): 0.01, (3, 2): 0.0075}
#: bound on the gap between the paths of the two remainders at N = 2; measured 2.47e-13
REMAINDER_GAP = 5e-13


@pytest.fixture(scope="module")
def systems():
    """``(N, seed, linear_in_next) -> (FirstOrderSystem, TransformedSystem)``, split as the CLI splits."""
    out = {}
    for N, seed, linear in ((2, 0, True), (2, 0, False), (3, 2, True)):
        model = build_model(N, seed, linear)
        fos = build_first_order(model, find_steady_state(model, tol=1e-13))
        out[N, seed, linear] = fos, build_transformed(fos, schur_split(fos.K, n_u=2 * N, eps_unit=1e-6))
    return out


def _paths(sysm, d, order):
    pol = PolicyApprox(order=order, system=sysm)
    ones = np.ones(d.alpha.size)
    return [simulate(pol, solve_initial(pol, d.M_x @ (f * d.k_bar), d.M_z @ (s0 * ones), tol=1e-10), T)
            for f, s0 in STARTS]


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"N{c[0]}")
def test_stable_eigenvalues_are_alpha_and_rho(systems, case):
    d = draws(*case)
    eig = np.linalg.eigvals(systems[(*case, True)][0].K)
    stable = np.sort(eig[np.abs(eig) < 1.0])
    assert stable.size == 2 * case[0]
    assert np.allclose(stable, np.sort(np.concatenate([d.alpha, d.rho])), rtol=0, atol=1e-8)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"N{c[0]}")
def test_search_verifies_the_radius(systems, case):
    dom, report = search_domain(systems[(*case, True)][1], sample_count=2048)
    assert dom.r_u == dom.r_v == SEARCH_RADIUS[case]
    assert report.cond1_ok and report.cond2_ok and report.cond3_ok


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"N{c[0]}")
def test_paths_meet_the_closed_form(systems, case, order):
    d = draws(*case)
    for path in _paths(systems[(*case, True)][1], d, order):
        assert len(path) == T + 1 and path.truncated_at is None
        x, z = path.x_path, path.z_path
        assert np.max(np.abs(x[1:] - d.closed_form(x[:-1], z[:-1]))) <= PATH_BOUNDS[case][order]


def test_inner_newton_gives_the_linear_remainders_paths(systems):
    d = draws(2, 0)
    for order in (1, 2, 3):
        for direct, solved in zip(_paths(systems[2, 0, True][1], d, order),
                                  _paths(systems[2, 0, False][1], d, order)):
            for field in ("z_path", "x_path", "y_path", "u_path", "v_path"):
                gap = np.max(np.abs(getattr(direct, field) - getattr(solved, field)))
                assert gap <= REMAINDER_GAP, (order, field, gap)


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_cli_runs_the_module(tmp_path, capsys, command):
    module = Path(__file__).with_name("mixed_bm.py")
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(f"[model]\nname = {module}\n", encoding="utf-8")
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
