from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import stablemanifold
from oracles import closed_form_path
import stablemanifold.cli as cli
from stablemanifold.cli import RunConfig, load_config, main
from stablemanifold import GrowthParams, SolverError

GROWTH_CHECK_CONFIG = """
[model]
name = growth
[params]
alpha = 0.36
beta = 0.99
[domain]
r_u = 0.02
r_v = 0.02
sample_count = 256
"""

LINEAR_MODULE = '''
import numpy as np
from stablemanifold import ModelSpec


def build_model():
    def residual(y_next, y, x_next, x, z):
        return np.array([
            y_next[0] - 2.0 * y[0] - 0.3 * x[0] - 0.2 * z[0],
            x_next[0] - 0.4 * x[0] - 0.1 * z[0],
        ])

    return ModelSpec(
        n_x=1, n_y=1, n_z=1,
        residual=residual,
        lambda_mat=np.array([[0.5]]),
        steady_guess=np.zeros(2),
        linear_in_next=True,
    )
'''


GROWTH_INNER_NEWTON_MODULE = '''
import dataclasses

from stablemanifold import GrowthParams, build_growth


def build_model():
    return dataclasses.replace(build_growth(GrowthParams()), linear_in_next=False)
'''


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _read_report(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key.strip()] = value.strip()
    return out


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.model == "growth"
        assert cfg.order == 2

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["check", "--config", str(tmp_path / "nope.ini")]) == 1

    def test_invalid_value_is_config_error(self, tmp_path):
        path = _write(tmp_path, "bad.ini", "[solve]\norder = banana\n")
        assert main(["check", "--config", str(path)]) == 1

    @pytest.mark.parametrize(
        "ini, args, key",
        [
            ("[simulate]\nT = -1\n", ["simulate"], "T"),
            ("[model]\nname = exo_test\n[simulate]\nshock_std = -1\n", ["simulate"], "shock_std"),
            ("[simulate]\nshock_std = 0.1\n", ["simulate"], "shock_std"),
            ("[model]\nname = exo_test\n[simulate]\nshock_std = 0.1\n", ["simulate", "--seed", "-3"], "seed"),
            ("", ["policy", "--grid", "0"], "grid"),
            ("", ["policy", "--grid", "-3"], "grid"),
            ("", ["check", "--order", "-1"], "order"),
            ("[solve]\norder = -2\n", ["check"], "order"),
            ("[solve]\ninit_tol = 0\n", ["simulate"], "init_tol"),
            ("[simulate]\nx0 = 0.1, 0.2\n", ["simulate"], "x0"),
            ("[simulate]\nz0 = 0\n", ["simulate"], "z0"),
            ("[model]\nname = exo_test\n[simulate]\nz0 = 0.1, 0.2\n", ["simulate"], "z0"),
            ("[domain]\nr_u = 0.01\nr_v = auto\n", ["check"], "r_v"),
            ("[domain]\nr_v = 0.01\n", ["policy"], "r_u"),
            ("[domain]\nr_u = -1\n", ["policy"], "r_u"),
            ("[domain]\nr_u = 0.01\nr_v = 0\n", ["ep"], "r_v"),
            ("[domain]\nr_u = nan\nr_v = 0.01\n", ["check"], "r_u"),
            ("[domain]\nsample_count = 0\n", ["check"], "sample_count"),
            ("[policy]\nk_min_frac = 0\n", ["policy"], "k_min_frac"),
            ("[policy]\nk_min_frac = -0.5\n", ["policy"], "k_min_frac"),
            ("[policy]\nk_min_frac = nan\n", ["policy"], "k_min_frac"),
            ("[policy]\nk_max_frac = 0\n", ["policy"], "k_max_frac"),
            ("[policy]\nk_max_frac = nan\n", ["policy"], "k_max_frac"),
            ("[params]\nbeta = nan\n", ["check"], "beta"),
            ("[params]\nbeta = inf\n", ["check"], "beta"),
            ("[params]\nbeta = 10\n", ["check"], "beta"),
            ("[model]\nname = exo_test\n[policy]\nu_min = nan\n", ["policy"], "u_min"),
            ("[model]\nname = exo_test\n[policy]\nu_max = inf\n", ["policy"], "u_max"),
            ("[model]\nname = exo_test\n[ep]\nu0 = nan\n", ["ep"], "u0"),
            ("[model]\nname = exo_test\n[ep]\nhorizon = 0\n", ["ep"], "horizon"),
            ("[model]\nname = exo_test\n[ep]\ntype2_iters = 0\n", ["ep"], "type2_iters"),
            ("[solve]\nsteady_tol = inf\n", ["check"], "steady_tol"),
            ("[solve]\ninner_tol = inf\n", ["policy"], "inner_tol"),
            ("[solve]\ninit_tol = inf\n", ["simulate"], "init_tol"),
            ("[solve]\nsteady_tol = 1e-5\n", ["check"], "steady_tol"),
            ("[solve]\ninner_tol = 0.5\n", ["policy", "--grid", "3"], "inner_tol"),
            ("[solve]\ninit_tol = 2e-6\n", ["simulate"], "init_tol"),
            ("[simulate]\nx0 = nan\n", ["simulate"], "x0"),
            ("[model]\nname = exo_test\n[simulate]\nz0 = inf\n", ["simulate"], "z0"),
            ("[model]\nname = exo_test\n[simulate]\nshock_std = inf\n", ["simulate"], "shock_std"),
            ("[policy]\nk_min_frac = inf\n", ["policy"], "k_min_frac"),
            ("[policy]\nk_max_frac = inf\n", ["policy"], "k_max_frac"),
            ("[domain]\nr_u = inf\nr_v = 0.01\n", ["policy"], "r_u"),
        ],
    )
    def test_out_of_range_setting_is_config_error_naming_it(self, tmp_path, capsys, ini, args, key):
        path = _write(tmp_path, "bad.ini", ini)
        code = main(args + ["--config", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert f"error: {key} must" in capsys.readouterr().err
        assert not any(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "name",
        ["", "notes.md", "subdir", "missing.py", "syntax.py", "raises.py", "build_raises.py",
         "returns_int.py"],
    )
    def test_bad_model_path_is_config_error_naming_it(self, tmp_path, capsys, name):
        # empty (the working directory), not Python, a directory, absent, a
        # syntax error, an exception raised while the module executes, one
        # raised by build_model(), a build_model() that returns no ModelSpec
        (tmp_path / "notes.md").write_text("# not a model\n", encoding="utf-8")
        (tmp_path / "subdir").mkdir()
        (tmp_path / "syntax.py").write_text("def build_model(:\n", encoding="utf-8")
        (tmp_path / "raises.py").write_text("raise RuntimeError('no model here')\n",
                                            encoding="utf-8")
        (tmp_path / "build_raises.py").write_text(
            "def build_model():\n    raise RuntimeError('no model here')\n", encoding="utf-8")
        (tmp_path / "returns_int.py").write_text("def build_model():\n    return 42\n",
                                                 encoding="utf-8")
        path = _write(tmp_path, "bad.ini", f"[model]\nname = {name and tmp_path / name}\n")
        code = main(["check", "--config", str(path), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [model] name") and err.count("\n") == 1
        assert not (tmp_path / "check_report.txt").exists()
        cause = {"syntax.py": SyntaxError, "raises.py": RuntimeError,
                 "build_raises.py": RuntimeError}.get(name)
        if cause is not None:  # the loader's own error stays reachable
            with pytest.raises(stablemanifold.ConfigError) as err:
                cli._load_external(str(tmp_path / name))
            assert isinstance(err.value.__cause__, cause)

    def test_out_naming_a_file_is_one_error_line(self, tmp_path, capsys):
        out = _write(tmp_path, "taken", "")
        assert main(["check", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1

    def test_readme_example_config_is_the_defaults(self, tmp_path, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = _write(tmp_path, "readme.ini", block)
        cfg = load_config(str(path))
        defaults = RunConfig()
        for name in RunConfig.__dataclass_fields__:
            if name not in ("x0", "z0"):
                assert getattr(cfg, name) == getattr(defaults, name), name
        assert cfg.x0 == [0.1] and cfg.z0 == []
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_retired_memo_key_is_ignored(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[solve]\norder = 3\nmemo = true\n", encoding="utf-8")
        cfg = load_config(str(path))
        assert cfg.order == 3 and not hasattr(cfg, "memo")


class TestCheck:
    def test_report_contents(self, tmp_path, capsys):
        # the same economy as an external module without linear_in_next, so its
        # remainder comes from the inner Newton solve; its basis is not rescaled
        # to k - k_bar = u + v, and on that basis the 0.02 ball passes condition 2
        module = _write(tmp_path, "growth_inner_newton.py", GROWTH_INNER_NEWTON_MODULE)
        for name, cond2_ok in (("growth", "false"), (module, "true")):
            config = GROWTH_CHECK_CONFIG.replace("name = growth", f"name = {name}")
            cfg_path = _write(tmp_path, "run.ini", config)
            code = main(["check", "--config", str(cfg_path), "--out", str(tmp_path)])
            assert code == 0
            report = _read_report(tmp_path / "check_report.txt")
            assert report["model"] == str(name)
            assert_allclose(float(report["cond2_rhs"]), 0.611459, atol=1e-5)
            assert report["cond2_ok"] == cond2_ok  # 0.02 ball is beyond growth's verified one
            assert float(report["normBinv"]) == pytest.approx(0.3564, abs=1e-4)
        capsys.readouterr()

    def test_linear_model_reports_zero_lipschitz(self, tmp_path, capsys):
        module = _write(tmp_path, "linear_model.py", LINEAR_MODULE)
        cfg_path = _write(
            tmp_path,
            "run.ini",
            f"[model]\nname = {module}\n[domain]\nr_u = 0.5\nr_v = 0.5\nsample_count = 128\n",
        )
        assert main(["check", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        report = _read_report(tmp_path / "check_report.txt")
        assert float(report["L"]) == 0.0
        assert report["cond1_ok"] == "true"
        capsys.readouterr()

    def test_steady_state_failure_exit_code(self, tmp_path, capsys):
        rootless = LINEAR_MODULE.replace(
            "x_next[0] - 0.4 * x[0] - 0.1 * z[0]",
            "x_next[0] * x[0] + 1.0",  # static part has no real root
        ).replace("steady_guess=np.zeros(2)", "steady_guess=np.array([0.0, 1.0])")
        module = _write(tmp_path, "rootless_model.py", rootless)
        cfg_path = _write(tmp_path, "run.ini", f"[model]\nname = {module}\n")
        assert main(["check", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_unit_root_exit_code(self, tmp_path, capsys):
        cfg_path = _write(
            tmp_path,
            "run.ini",
            f"[model]\nname = growth\n[params]\nalpha = 0.36\nbeta = {1.0 / 0.36}\n",
        )
        assert main(["check", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
        capsys.readouterr()

    def test_balancing_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def fail(M):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(stablemanifold.spectral, "_contracting_similarity", fail)
        cfg_path = _write(tmp_path, "run.ini", "[model]\nname = growth\n")
        assert main(["check", "--config", str(cfg_path), "--out", str(tmp_path)]) == 4
        assert "the Stein balancing of a block failed" in capsys.readouterr().err

    def test_no_verified_radius_exit_code(self, tmp_path, capsys):
        # at alpha = 0.05 the conditions fail on every radius of the search grid
        cfg_path = _write(
            tmp_path,
            "run.ini",
            "[model]\nname = growth\n[params]\nalpha = 0.05\nbeta = 0.99\n"
            "[domain]\nsample_count = 64\n",
        )
        assert main(["check", "--config", str(cfg_path), "--out", str(tmp_path)]) == 4
        assert "every candidate radius" in capsys.readouterr().err


def test_csv_writer_matches_per_value_format(tmp_path):
    # the reference is the 17-digit format check_report.txt still uses, value by value
    rng = np.random.default_rng(0)
    table = rng.normal(size=(201, 7)) * 10.0 ** rng.integers(-320, 308, size=(201, 7))
    table[0, 1:6] = [np.nan, -0.0, np.inf, -np.inf, 5e-324]
    table[:, 0] = np.arange(201)
    header = [f"c{j}" for j in range(7)]
    cli._write_csv(tmp_path / "t.csv", header, list(table.T))
    rows = "".join(",".join(cli._fmt(float(val)) for val in row) + "\n" for row in table)
    assert (tmp_path / "t.csv").read_bytes() == (",".join(header) + "\n" + rows).encode()


@pytest.mark.parametrize("rows", [0, 1, 201])
def test_csv_writer_writes_the_savetxt_bytes(tmp_path, rows):
    # an integer column, a nan and a signed zero against the np.savetxt call it replaced
    table = np.random.default_rng(1).normal(size=(rows, 4))
    table[-1:, 1:3] = [np.nan, -0.0]
    columns, header = [np.arange(rows), *table.T], ["t", "a", "b", "c", "d"]
    cli._write_csv(tmp_path / "t.csv", header, columns)
    np.savetxt(tmp_path / "ref.csv", np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


#: the exit-code contract: class name -> code; the README's exit-code table lists the same
EXIT_CODES = {
    "SolverError": 1, "ConfigError": 1, "DimensionMismatchError": 1,
    "SteadyStateError": 2, "SingularJacobianError": 2, "TransformBuildError": 2,
    "UnitRootError": 3, "BlanchardKahnError": 3, "SingularSystemError": 3,
    "NonContractionError": 4, "BalancingError": 4, "ForwardDivergenceError": 4,
    "InfeasibleInitialError": 5,
}
ERROR_TYPES = [SolverError, *_subclasses(SolverError)]


def _exit_code_rows():
    """The README's exit-code table: code -> its row."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Exit codes\n", 1)[1].strip().split("\n\n", 1)[0]
    return {int(row.split("|")[1]): row for row in table.splitlines()[2:]}


def test_every_solver_error_has_an_exit_code():
    # declared in each class's own body, so a new class cannot inherit exit 1 unnoticed
    assert [cls.__name__ for cls in ERROR_TYPES if "exit_code" not in vars(cls)] == []
    assert {cls.__name__: cls.exit_code for cls in ERROR_TYPES} == EXIT_CODES
    rows = _exit_code_rows()
    for name, code in EXIT_CODES.items():
        assert [c for c, row in rows.items() if f"`{name}`" in row] == [code], name


@pytest.mark.parametrize("err_type", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_every_solver_error_exits_with_its_code(monkeypatch, capsys, err_type):
    args = {"BlanchardKahnError": (1, 2), "ForwardDivergenceError": ("diverged", 3)}
    exc = err_type(*args.get(err_type.__name__, ("stubbed failure",)))

    def fail(cfg):
        raise exc

    monkeypatch.setattr(cli, "cmd_check", fail)
    assert main(["check"]) == err_type.exit_code
    assert capsys.readouterr().err == f"error: {exc}\n"


class TestEvaluationWithoutDomain:
    """``policy`` and ``ep`` evaluate the recursion; verifying a domain is ``check``'s job."""

    @pytest.fixture
    def no_domain_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("domain verification outside check")

        monkeypatch.setattr(cli, "search_domain", refuse)
        monkeypatch.setattr(cli, "check_conditions", refuse)

    @pytest.mark.parametrize(
        "ini, command",
        [
            ("[model]\nname = growth\n", "policy"),
            ("[model]\nname = exo_test\n", "policy"),
            ("[model]\nname = exo_test\n", "ep"),
        ],
    )
    def test_policy_and_ep_skip_domain_verification(
        self, tmp_path, capsys, no_domain_work, ini, command
    ):
        cfg_path = _write(tmp_path, "run.ini", ini)
        args = [command, "--config", str(cfg_path), "--out", str(tmp_path), "--grid", "11"]
        assert main(args) == 0
        assert (tmp_path / f"{command}.csv").exists()
        capsys.readouterr()

    def test_policy_csv_does_not_depend_on_domain(self, tmp_path, capsys):
        outputs = []
        for radius in ("auto", "0.0075"):
            cfg_path = _write(tmp_path, "run.ini", f"[domain]\nr_u = {radius}\nr_v = {radius}\n")
            out = tmp_path / radius
            args = ["policy", "--config", str(cfg_path), "--out", str(out), "--grid", "11"]
            assert main(args) == 0
            outputs.append((out / "policy.csv").read_bytes())
        assert outputs[0] == outputs[1]
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command, message",
        [
            ("ep", "requires u-dynamics independent of v (exogenous-state form)"),
            ("policy", "could not solve the policy graph at x0 = 1.99482e-09"),
        ],
    )
    def test_growth_failure_is_the_commands_own(self, tmp_path, capsys, command, message):
        inputs = {
            # at alpha = 0.05 no radius verifies, which only check reports (exit 4)
            "ep": "[params]\nalpha = 0.05\n[domain]\nsample_count = 64\n",
            # the lowest level's stencil reaches nonpositive capital, in h11 as in h1
            "policy": "[policy]\nk_min_frac = 1e-8\n",
        }
        cfg_path = _write(tmp_path, "run.ini", inputs[command])
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err

    def test_growth_policy_solves_where_no_radius_verifies(self, tmp_path, capsys):
        # at alpha = 0.05 every level solves and the error falls with the order
        cfg_path = _write(
            tmp_path, "run.ini", "[params]\nalpha = 0.05\n[domain]\nsample_count = 64\n"
        )
        assert main(["policy", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        table = np.genfromtxt(tmp_path / "policy.csv", delimiter=",", names=True)
        sup = [np.max(np.abs(table[h] - table["closed_form"])) for h in ("h1", "h2", "h3")]
        assert sup[0] > sup[1] > sup[2]
        assert sup[2] <= 1e-12
        capsys.readouterr()


@pytest.fixture(scope="module")
def policy_csv(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("policy")
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(
        GROWTH_CHECK_CONFIG.replace("0.02", "0.0075") + "[policy]\ngrid = 41\n",
        encoding="utf-8",
    )
    code = main(["policy", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 0
    return tmp_path / "policy.csv"


class TestPolicyCsv:
    def test_schema_and_row_count(self, policy_csv):
        lines = policy_csv.read_text().splitlines()
        assert lines[0] == "k,closed_form,h11,h1,h2,h3,taylor1,taylor2,taylor5,taylor16"
        assert len(lines) == 42

    def test_steady_state_row_is_fixed_point(self, tmp_path, capsys):
        # grid chosen symmetric around the steady state so it lands on a node
        cfg_path = _write(
            tmp_path,
            "run.ini",
            GROWTH_CHECK_CONFIG.replace("0.02", "0.0075")
            + "[policy]\ngrid = 41\nk_min_frac = 0.5\nk_max_frac = 1.5\n",
        )
        assert main(["policy", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        params = GrowthParams()
        rows = np.loadtxt(tmp_path / "policy.csv", delimiter=",", skiprows=1)
        idx = np.argmin(np.abs(rows[:, 0] - params.k_bar))
        assert abs(rows[idx, 0] - params.k_bar) < 1e-12
        assert np.max(np.abs(rows[idx, 1:] - params.k_bar)) <= 1e-9
        capsys.readouterr()

    def test_global_accuracy_ordering(self, policy_csv):
        rows = np.loadtxt(policy_csv, delimiter=",", skiprows=1)
        k, cf = rows[:, 0], rows[:, 1]
        h2, t16 = rows[:, 4], rows[:, 9]
        params = GrowthParams()
        inside = k <= 2 * params.k_bar
        assert np.all(np.isfinite(h2))
        assert np.max(np.abs(h2 - cf)) <= np.max(np.abs(t16 - cf)[inside])
        assert np.max(np.abs(t16)) > 10 * params.k_bar


class TestSimulateCsv:
    def test_growth_path_matches_exact_iteration(self, tmp_path, capsys):
        params = GrowthParams()
        cfg_path = _write(
            tmp_path,
            "run.ini",
            "[model]\nname = growth\n[solve]\norder = 2\n"
            f"[simulate]\nT = 50\nx0 = {0.5 * params.k_bar}\n",
        )
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        rows = np.loadtxt(tmp_path / "simulate.csv", delimiter=",", skiprows=1)
        header = (tmp_path / "simulate.csv").read_text().splitlines()[0]
        assert header == "t,x0,y0,u0,v0,residual_norm"
        exact = closed_form_path(params, 0.5 * params.k_bar, 50)
        assert np.max(np.abs(rows[:, 1] - exact)) <= 1e-4
        assert np.isnan(rows[-1, -1])  # final period has no one-step residual
        assert np.nanmax(rows[:, -1]) <= 1e-4
        capsys.readouterr()

    def test_steady_start_stays_constant(self, tmp_path, capsys):
        params = GrowthParams()
        cfg_path = _write(
            tmp_path,
            "run.ini",
            f"[model]\nname = growth\n[simulate]\nT = 10\nx0 = {params.k_bar!r}\n",
        )
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        rows = np.loadtxt(tmp_path / "simulate.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(rows[:, 1] - params.k_bar)) <= 1e-9
        assert np.max(np.abs(rows[:, 2] - params.k_bar)) <= 1e-9
        capsys.readouterr()

    def test_start_below_the_old_fold_is_solved(self, tmp_path, capsys):
        # capital 0.02 (about 0.1 k_bar): Newton over policy evaluations left the
        # evaluable region here and exited 5; the pinned row agrees with the policy
        cfg_path = _write(tmp_path, "run.ini", "[model]\nname = growth\n[simulate]\nx0 = 0.02\n")
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        rows = np.loadtxt(tmp_path / "simulate.csv", delimiter=",", skiprows=1)
        assert abs(rows[0, 1] - 0.02) <= 1e-10
        capsys.readouterr()

    def test_seeded_stochastic_run_is_bitwise_reproducible(self, tmp_path, capsys):
        cfg = (
            "[model]\nname = exo_test\n[solve]\norder = 2\n"
            "[simulate]\nT = 20\nz0 = 0.3\nseed = 7\nshock_std = 0.01\n"
        )
        cfg_path = _write(tmp_path, "run.ini", cfg)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        bytes_a = (out_a / "simulate.csv").read_bytes()
        assert bytes_a == (out_b / "simulate.csv").read_bytes()
        assert len(bytes_a.splitlines()) == 22
        capsys.readouterr()

    def test_seed_option_overrides_the_config_seed(self, tmp_path, capsys):
        run = "[model]\nname = exo_test\n[simulate]\nT = 5\nz0 = 0.3\nshock_std = 0.01\n"
        seeded = _write(tmp_path, "seeded.ini", run + "seed = 7\n")
        other = _write(tmp_path, "other.ini", run + "seed = 3\n")
        assert main(["simulate", "--config", str(seeded), "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--config", str(other), "--seed", "7",
                     "--out", str(tmp_path / "b")]) == 0
        assert main(["simulate", "--config", str(other), "--out", str(tmp_path / "c")]) == 0
        got = [(tmp_path / d / "simulate.csv").read_bytes() for d in "abc"]
        assert got[0] == got[1] != got[2]
        capsys.readouterr()

    def test_growth_starts_at_half_the_steady_state_by_default(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "run.ini", "[model]\nname = growth\n[simulate]\nT = 3\n")
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        rows = np.loadtxt(tmp_path / "simulate.csv", delimiter=",", skiprows=1)
        assert abs(rows[0, 1] - 0.5 * GrowthParams().k_bar) <= 1e-10
        capsys.readouterr()


class TestExternalModelChecks:
    def test_module_without_build_model(self, tmp_path, capsys):
        module = _write(tmp_path, "empty.py", "MODEL = None\n")
        cfg_path = _write(tmp_path, "run.ini", f"[model]\nname = {module}\n")
        assert main(["check", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {module} must define build_model() -> ModelSpec\n"

    def test_model_spec_error_keeps_its_type(self, tmp_path, capsys):
        # ModelSpec's own check raises from inside build_model(); it is not wrapped
        bad = LINEAR_MODULE.replace("np.zeros(2)", "np.zeros(3)")
        module = _write(tmp_path, "bad_guess.py", bad)
        with pytest.raises(stablemanifold.DimensionMismatchError, match="steady_guess"):
            cli._load_external(str(module))
        cfg_path = _write(tmp_path, "run.ini", f"[model]\nname = {module}\n")
        assert main(["check", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: steady_guess must have length")

    def test_policy_grid_needs_a_positive_steady_state_level(self, tmp_path, capsys):
        # the grid runs over multiples of the first endogenous state's steady state, which
        # is 0 in the linear model
        module = _write(tmp_path, "linear.py", LINEAR_MODULE)
        cfg_path = _write(tmp_path, "run.ini", f"[model]\nname = {module}\n")
        assert main(["policy", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: policy grids run over multiples of the first endogenous state's "
                       "steady-state level, which must be positive, got 0\n")
        assert not (tmp_path / "policy.csv").exists()

    def test_policy_grid_needs_an_endogenous_state(self, tmp_path, capsys):
        # the linear model without its endogenous state: one exogenous state, one control
        stateless = LINEAR_MODULE.replace("x_next[0] - 0.4 * x[0] - 0.1 * z[0],", "").replace(
            " - 0.3 * x[0]", "").replace("n_x=1, n_y=1", "n_x=0, n_y=1").replace(
            "np.zeros(2)", "np.zeros(1)")
        module = _write(tmp_path, "stateless.py", stateless)
        cfg_path = _write(tmp_path, "run.ini", f"[model]\nname = {module}\n")
        assert main(["policy", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: policy grids run over the first endogenous state, and this model "
                       "has none (n_x = 0)\n")
        assert not (tmp_path / "policy.csv").exists()


class TestSyntheticPolicyCsv:
    def test_columns_without_oracle(self, tmp_path, capsys):
        cfg_path = _write(
            tmp_path,
            "run.ini",
            "[model]\nname = exo_test\n[domain]\nr_u = 1.0\nr_v = 1.0\nsample_count = 64\n"
            "[policy]\ngrid = 11\nu_min = -0.8\nu_max = 0.8\n",
        )
        assert main(["policy", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "policy.csv").read_text().splitlines()
        assert lines[0] == "u,h11,h1,h2,h3"
        assert len(lines) == 12
        capsys.readouterr()


class TestEpCsv:
    def test_first_sweep_gap_is_tiny(self, tmp_path, capsys):
        cfg_path = _write(
            tmp_path,
            "run.ini",
            "[model]\nname = exo_test\n[domain]\nr_u = 1.0\nr_v = 1.0\nsample_count = 64\n"
            "[ep]\nhorizon = 20\ntype2_iters = 4\nu0 = 0.8\n",
        )
        assert main(["ep", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        rows = np.loadtxt(tmp_path / "ep.csv", delimiter=",", skiprows=1)
        header = (tmp_path / "ep.csv").read_text().splitlines()[0]
        assert header == "j,i,V_j_i,h_j_u_i,gap"
        first_sweep = rows[rows[:, 0] == 1]
        assert first_sweep.shape[0] == 21
        assert np.max(first_sweep[:, 4]) <= 1e-10
        capsys.readouterr()


IMPORT_SCRIPT = """
import sys

before = set(sys.modules)
import stablemanifold

added = {name.split(".")[0] for name in set(sys.modules) - before}
print(",".join(sorted(added - set(sys.stdlib_module_names) - {"numpy", "stablemanifold"})))
"""


def _run_with_src(args, **kwargs):
    """``args`` run by this interpreter with the package's source tree on ``PYTHONPATH``."""
    src = str(Path(stablemanifold.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=300, **kwargs)


def test_import_loads_no_third_party_module_but_numpy():
    """``import stablemanifold`` in a fresh interpreter loads no third-party
    module besides numpy: when the package imported SciPy, ``scipy.linalg``
    and ``scipy.special`` alone took about 0.39 s of a 0.55 s import."""
    run = _run_with_src(["-c", IMPORT_SCRIPT])
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "", run.stdout


COLD_START_SCRIPT = """
import sys

import stablemanifold.cli as cli
from stablemanifold import GrowthParams, build_growth_pipeline

build_growth_pipeline(GrowthParams())
code = cli.main(["check", "--config", sys.argv[1], "--out", sys.argv[2]])
loaded = sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("scipy", "statistics", "fractions", "decimal")
    or name == "numpy.ma" or name.startswith("numpy.ma.")
)
print("exit", code, "loaded", ",".join(loaded))
"""


def test_cold_start_imports_neither_scipy_nor_numpy_ma(tmp_path):
    """A cold growth ``check`` loads neither SciPy nor ``numpy.ma``, nor the
    ``statistics`` module and the ``fractions`` and ``decimal`` it pulls in:
    both balls of the growth model are lines, whose directions need no
    normal quantile."""
    config = _write(tmp_path, "check.ini", "[domain]\nsample_count = 128\n")
    run = _run_with_src(["-c", COLD_START_SCRIPT, str(config), str(tmp_path / "out")])
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "exit 0 loaded ", run.stdout
    assert (tmp_path / "out" / "check_report.txt").exists()


def _perfbench_module(name: str):
    """Load ``perfbench/<name>.py`` as it stands, under a name of its own."""
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _is_beneath(parent, j: int, i: int) -> bool:
    """Whether span ``j`` is nested, at any depth, in span ``i``."""
    while j >= 0:
        j = parent[j]
        if j == i:
            return True
    return False


@pytest.mark.parametrize("workload", ["verify", "policy-grid", "transition"])
def test_benchmark_workload_runs_under_the_tracer(workload, tmp_path, capsys):
    # the tracer's size recorders read arguments by position or keyword, so a
    # call that moves an argument they read fails the traced benchmark run
    tracing, workloads = _perfbench_module("tracing"), _perfbench_module("workloads")
    tracer = tracing.Tracer()
    tracer.install(stablemanifold)
    try:
        traced_main = tracer.wrap(cli.main, "cli.main")
        outputs = {}
        for cmd in workloads.WORKLOADS[workload].commands(0, tmp_path):
            assert traced_main(list(cmd.argv)) == 0, (cmd.label, capsys.readouterr().err)
            outputs[cmd.label] = cmd.output.read_bytes()
    finally:
        tracer.uninstall()
    errors, _ = workloads.WORKLOADS[workload].check(outputs)
    assert errors == []
    # a renamed hook target reads as absent or as a zero count, so both fail here
    # the level grids are one solver function now, which the tracer does not hook by name
    assert tracer.absent == ["cli.implicit_policy_in_levels", "cli.policy_in_levels",
                             "growth.eval_policy"]
    spans = tracer.arrays()
    for name in ("spectral.fg", "first_order.nonlinear", "model.residual"):
        assert name in tracer.names and np.any(spans["name_id"] == tracer.names.index(name)), name
    # solve_initial's one cold check evaluation is seen beneath it
    names = np.array(tracer.names)[spans["name_id"]]
    starts = np.flatnonzero(names == "solver.solve_initial")
    assert starts.size == (3 if workload == "transition" else 0)
    for i in starts:
        beneath = [j for j in np.flatnonzero(names == "manifold.eval_policy")
                   if _is_beneath(spans["parent"], j, i)]
        assert len(beneath) == 1
