"""Batch command-line front end.

Subcommands: ``check`` (condition report), ``policy`` (policy-function
CSV), ``simulate`` (trajectory CSV), ``ep`` (extended-path CSV).  Runs
are configured by a flat INI file plus a few overriding flags; outputs
are deterministic given the configuration, seeded shocks included.

Exit codes: 1 config error, 2 steady-state failure, 3 unit root or
saddle-count failure, 4 non-contraction, 5 infeasible initial condition.
"""

from __future__ import annotations

import argparse
import configparser
import importlib.util
import sys as _sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import (
    BalancingError,
    BlanchardKahnError,
    ConfigError,
    DimensionMismatchError,
    ForwardDivergenceError,
    InfeasibleInitialError,
    NonContractionError,
    SingularJacobianError,
    SingularSystemError,
    SolverError,
    SteadyStateError,
    TransformBuildError,
    UnitRootError,
)
from .first_order import build_first_order
from .growth import (
    GrowthParams,
    build_growth_pipeline,
    closed_form,
    closed_form_start,
    taylor_policy,
)
from .manifold import (
    DomainSpec,
    PolicyApprox,
    check_conditions,
    contraction_rate,
    error_bound,
    eval_policy,
    eval_policy_hadamard,
    search_domain,
)
from .model import find_steady_state, residual_columns
from .solver import (
    make_exogenous_test_system, policy_at_levels, simulate, simulate_stochastic, solve_ep,
    solve_initial,
)
from .spectral import build_transformed, schur_split

FLOAT_FMT = "{:.17g}"


@dataclass
class RunConfig:
    """Flat run configuration; see the README for the file schema."""

    model: str = "growth"
    alpha: float = 0.36
    beta: float = 0.99
    r_u: float | None = None  # None means auto-search
    r_v: float | None = None
    sample_count: int = 2048
    order: int = 2
    steady_tol: float = 1e-12
    inner_tol: float = 1e-12
    init_tol: float = 1e-10
    T: int = 50
    x0: list = field(default_factory=list)
    z0: list = field(default_factory=list)
    seed: int = 0
    shock_std: float = 0.0
    horizon: int = 20
    type2_iters: int = 4
    u0: float = 0.8
    grid: int = 501
    k_min_frac: float = 0.01
    k_max_frac: float = 5.0
    u_min: float = -0.9
    u_max: float = 0.9
    output_dir: Path = Path(".")


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return FLOAT_FMT.format(float(value))


def _parse_radius(text: str) -> float | None:
    text = text.strip().lower()
    if text in ("auto", "auto-search", ""):
        return None
    return float(text)


def _parse_floats(text: str) -> list:
    text = text.strip()
    return [float(tok) for tok in text.split(",")] if text else []


#: INI section -> the keys read from it; each key sets the ``RunConfig`` field
#: of its name, parsed by the type of that field's default
_SECTIONS = {
    "model": ("name",),
    "params": ("alpha", "beta"),
    "domain": ("r_u", "r_v", "sample_count"),
    "solve": ("order", "steady_tol", "inner_tol", "init_tol"),
    "simulate": ("T", "x0", "z0", "seed", "shock_std"),
    "ep": ("horizon", "type2_iters", "u0"),
    "policy": ("grid", "k_min_frac", "k_max_frac", "u_min", "u_max"),
}
#: keys with a field or parser of their own: key -> (field, parser)
_OWN_PARSERS = {
    "name": ("model", str.strip),
    "r_u": ("r_u", _parse_radius),
    "r_v": ("r_v", _parse_radius),
    "x0": ("x0", _parse_floats),
    "z0": ("z0", _parse_floats),
}


def load_config(path: str | None) -> RunConfig:
    """Parse the INI run configuration; missing keys keep defaults, unknown ones are ignored."""
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        for section, keys in _SECTIONS.items():
            for key in keys:
                if parser.has_option(section, key):
                    name, parse = _OWN_PARSERS.get(key) or (key, type(getattr(cfg, key)))
                    setattr(cfg, name, parse(parser.get(section, key)))
    except ValueError as exc:
        raise ConfigError(f"invalid value in config {path}: {exc}") from exc
    return cfg


def _validate(cfg: RunConfig) -> None:
    """Raise :class:`ConfigError` naming the first setting outside its range (NaN included)."""
    rules = (
        ("order", cfg.order >= 0, "nonnegative"),
        ("steady_tol", cfg.steady_tol > 0, "positive"),
        ("inner_tol", cfg.inner_tol > 0, "positive"),
        ("init_tol", cfg.init_tol > 0, "positive"),
        ("T", cfg.T >= 0, "nonnegative"),
        ("shock_std", cfg.shock_std >= 0, "nonnegative"),
        ("seed", cfg.seed >= 0, "nonnegative"),
        ("grid", cfg.grid >= 1, "at least 1"),
        ("k_min_frac", cfg.k_min_frac > 0, "positive"),
        ("k_max_frac", cfg.k_max_frac > 0, "positive"),
        ("r_u", cfg.r_u is None or cfg.r_u > 0, "positive"),
        ("r_v", cfg.r_v is None or cfg.r_v > 0, "positive"),
        ("sample_count", cfg.sample_count >= 1, "at least 1"),
        ("horizon", cfg.horizon >= 1, "at least 1"),
        ("type2_iters", cfg.type2_iters >= 1, "at least 1"),
        ("u0", np.isfinite(cfg.u0), "finite"),
        ("u_min", np.isfinite(cfg.u_min), "finite"),
        ("u_max", np.isfinite(cfg.u_max), "finite"),
    )
    for name, ok, requirement in rules:
        if not ok:
            raise ConfigError(f"{name} must be {requirement}, got {getattr(cfg, name)}")
    if (cfg.r_u is None) != (cfg.r_v is None):
        auto, given = ("r_u", "r_v") if cfg.r_u is None else ("r_v", "r_u")
        raise ConfigError(f"{auto} must be a radius when {given} is (or both auto), got auto")


@dataclass
class _Built:
    """Assembled pipeline pieces for one configured model."""

    system: object
    model: object = None
    params: GrowthParams | None = None


def _load_external(path: str):
    module_path = Path(path)
    if not module_path.is_file():
        raise ConfigError(f"[model] name: no such module file: {path!r}")
    spec = importlib.util.spec_from_file_location("external_model", module_path)
    if spec is None:
        raise ConfigError(f"[model] name: {path!r} is not a Python module (.py)")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except Exception as exc:  # the module's own code failed: a syntax error or a raise at import
        raise ConfigError(
            f"[model] name: {path!r} failed to load: {type(exc).__name__}: {exc}"
        ) from exc
    if not hasattr(module, "build_model"):
        raise ConfigError(f"{path} must define build_model() -> ModelSpec")
    return module.build_model()


def _build(cfg: RunConfig) -> _Built:
    if cfg.model == "growth":
        params = GrowthParams(alpha=cfg.alpha, beta=cfg.beta)
        pipe = build_growth_pipeline(params, steady_tol=min(cfg.steady_tol, 1e-13))
        return _Built(system=pipe.system, model=pipe.model, params=params)
    if cfg.model == "exo_test":
        return _Built(system=make_exogenous_test_system())
    model = _load_external(cfg.model)
    ss = find_steady_state(model, tol=cfg.steady_tol)
    fos = build_first_order(model, ss)
    split = schur_split(fos.K, n_u=model.n_z + model.n_x, eps_unit=1e-6)
    return _Built(system=build_transformed(fos, split), model=model)


def _out_path(cfg: RunConfig, name: str) -> Path:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    return cfg.output_dir / name


def cmd_check(cfg: RunConfig) -> Path:
    """Run the pipeline, verify the domain and write the condition/bound report.

    Fixed radii are checked as given; ``auto`` searches the radius grid,
    which raises :class:`NonContractionError` (exit 4) when no radius passes.
    """
    system = _build(cfg).system
    if cfg.r_u is None:
        dom, report = search_domain(system, sample_count=cfg.sample_count)
    else:
        dom = DomainSpec(r_u=cfg.r_u, r_v=cfg.r_v, sample_count=cfg.sample_count)
        report = check_conditions(system, dom)
    split = system.split
    lines = [
        ("model", cfg.model),
        ("r_u", dom.r_u),
        ("r_v", dom.r_v),
        ("samples_used", report.samples_used),
        ("normA", split.normA),
        ("normBinv", split.normBinv),
        ("gamma_slack", split.gamma_slack),
        ("sup_G", report.sup_G),
        ("L", report.L),
        ("rho", report.rho),
        ("cond1_rhs", report.cond1_rhs),
        ("cond2_rhs", report.cond2_rhs),
        ("cond1_ok", report.cond1_ok),
        ("cond2_ok", report.cond2_ok),
        ("cond3_ok", report.cond3_ok),
    ]
    if report.cond2_ok:
        bound = error_bound(split, report, n=max(cfg.order, 1), h_tail=dom.r_v)
        lines += [
            ("a", bound.a),
            ("s1_star", bound.s1_star),
            ("s2_star", bound.s2_star),
            ("deriv_bound", bound.deriv_bound),
            ("apriori_order_n", bound.apriori),
        ]
    else:
        lines += [("a", contraction_rate(split))]
    path = _out_path(cfg, "check_report.txt")
    text = "".join(f"{key} = {_fmt(val)}\n" for key, val in lines)
    path.write_text(text, encoding="utf-8")
    _sys.stdout.write(text)
    return path


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write the equal-length ``columns`` side by side under ``header``, floats round-trip exact.

    Every row goes through one ``"%.17g"`` format string, the bytes
    ``np.savetxt(fmt="%.17g", delimiter=",")`` writes, and the file is
    written at once.
    """
    X = np.column_stack(columns)
    rows = (",".join(["%.17g"] * X.shape[1]) + "\n") * X.shape[0]
    path.write_text(",".join(header) + "\n" + rows % tuple(X.ravel().tolist()))


def cmd_policy(cfg: RunConfig) -> Path:
    """Write the policy-function comparison CSV: the first control over a grid of states.

    The grid runs over the first endogenous state of a ``ModelSpec`` model
    (growth: ``k`` about ``k_bar``), the other states at the steady state,
    and over ``u`` for exo_test, which has no levels to pin.
    """
    built = _build(cfg)
    system, params = built.system, built.params
    if built.model is None:
        U = np.linspace(cfg.u_min, cfg.u_max, cfg.grid)[:, None]
        columns = {"u": U[:, 0], "h11": eval_policy_hadamard(system, 1, U)[:, 0]}
        for order in (1, 2, 3):
            columns[f"h{order}"] = eval_policy(PolicyApprox(order, system, cfg.inner_tol), U)[:, 0]
    else:
        x_bar = system.ss.x_bar
        if not x_bar.size:
            raise ConfigError("policy grids run over the first endogenous state, and this model "
                              "has none (n_x = 0)")
        if not x_bar[0] > 0:
            raise ConfigError("policy grids run over multiples of the first endogenous state's "
                              f"steady-state level, which must be positive, got {x_bar[0]:.6g}")
        growth = params is not None
        anchor = params.k_bar if growth else x_bar[0]
        grid = np.linspace(cfg.k_min_frac * anchor, cfg.k_max_frac * anchor, cfg.grid)
        X = np.column_stack([grid, np.tile(x_bar[1:], (cfg.grid, 1))])
        columns = {"k": grid, "closed_form": closed_form(params, grid)} if growth else {"x0": grid}
        h11 = lambda u: eval_policy_hadamard(system, 1, u)
        columns["h11"] = policy_at_levels(system, h11, X, tol=cfg.inner_tol)[:, 0]
        for order in (1, 2, 3):  # growth starts on its closed form's path, others linear
            start = closed_form_start(system, params, order, grid) if growth else None
            columns[f"h{order}"] = policy_at_levels(system, order, X, tol=cfg.inner_tol,
                                                    start=start)[:, 0]
        if growth:
            columns.update({f"taylor{n}": taylor_policy(params, n, grid) for n in (1, 2, 5, 16)})
    path = _out_path(cfg, "policy.csv")
    _write_csv(path, list(columns), list(columns.values()))
    return path


def _trajectory_columns(built: _Built, traj) -> tuple[list[str], list]:
    paths = {
        "z": traj.z_path, "x": traj.x_path, "y": traj.y_path, "u": traj.u_path, "v": traj.v_path,
    }
    header = ["t"] + [f"{name}{i}" for name, path in paths.items() for i in range(path.shape[1])]
    # each period's residual against the next, all periods in one call; none for the last
    T = len(traj) - 1
    res_norm = np.full(T + 1, np.nan)
    if T:
        if built.model is not None:
            res = residual_columns(
                built.model, traj.y_path[1:].T, traj.y_path[:-1].T, traj.x_path[1:].T,
                traj.x_path[:-1].T, traj.z_path[:-1].T,
            )
            res_norm[:T] = np.linalg.norm(res, axis=0)
        else:
            sysm = built.system
            _, g_val = sysm.fg(traj.u_path[:-1], traj.v_path[:-1])
            defect = traj.v_path[1:] - traj.v_path[:-1] @ sysm.split.B.T - g_val
            res_norm[:T] = np.linalg.norm(defect, axis=1)
    return header + ["residual_norm"], [np.arange(T + 1), *paths.values(), res_norm]


def cmd_simulate(cfg: RunConfig) -> Path:
    """Simulate an equilibrium path and write the per-period CSV."""
    built = _build(cfg)
    # starting points of interest routinely lie outside the verified ball,
    # so simulation runs untruncated; bound certification is `check`'s job
    pol = PolicyApprox(order=cfg.order, system=built.system, inner_tol=cfg.inner_tol)
    sysm = built.system
    n_z = sysm.dims[0]
    if cfg.shock_std > 0.0 and n_z == 0:
        raise ConfigError(f"shock_std must be 0 on a model with no exogenous state, got {cfg.shock_std}")
    if cfg.x0:
        x0 = np.asarray(cfg.x0, dtype=float)
    elif built.params is not None:
        x0 = np.array([0.5 * built.params.k_bar])
    else:
        x0 = sysm.ss.x_bar.copy()
    z0 = np.asarray(cfg.z0, dtype=float) if cfg.z0 else np.zeros(n_z)
    if cfg.shock_std > 0.0:
        rng = np.random.default_rng(cfg.seed)
        shocks = rng.normal(0.0, cfg.shock_std, size=(cfg.T, n_z))
        traj = simulate_stochastic(pol, x0, z0, shocks, cfg.T)
    else:
        u0 = solve_initial(pol, x0, z0, tol=cfg.init_tol)
        traj = simulate(pol, u0, cfg.T)
    path = _out_path(cfg, "simulate.csv")
    _write_csv(path, *_trajectory_columns(built, traj))
    return path


def cmd_ep(cfg: RunConfig) -> Path:
    """Run extended-path sweeps on the exogenous-state path and write the CSV."""
    sysm = _build(cfg).system
    n = cfg.horizon
    u_path = np.empty((n + 1, sysm.n_u))
    u = np.full(sysm.n_u, cfg.u0, dtype=float)
    for i in range(n + 1):
        u_path[i] = u
        f_val, _ = sysm.fg(u, np.zeros(sysm.n_v))
        u = sysm.split.A @ u + f_val
    sweeps = np.arange(1, cfg.type2_iters + 1)
    V = solve_ep(sysm, u_path, cfg.type2_iters, cfg.inner_tol)[sweeps]
    H = np.stack([eval_policy(PolicyApprox(j, sysm, cfg.inner_tol), u_path) for j in sweeps])
    # one value per (sweep, period): the value itself for one v-coordinate, else its norm
    v_ep, h_val = (X[..., 0] if sysm.n_v == 1 else np.linalg.norm(X, axis=-1) for X in (V, H))
    columns = [np.repeat(sweeps, n + 1), np.tile(np.arange(n + 1), len(sweeps)),
               v_ep.ravel(), h_val.ravel(), np.abs(v_ep - h_val).ravel()]
    path = _out_path(cfg, "ep.csv")
    _write_csv(path, ["j", "i", "V_j_i", "h_j_u_i", "gap"], columns)
    return path


_EXIT_CODES = (
    (ConfigError, 1),
    (DimensionMismatchError, 1),
    (SteadyStateError, 2),
    (SingularJacobianError, 2),
    (TransformBuildError, 2),
    (UnitRootError, 3),
    (BlanchardKahnError, 3),
    (SingularSystemError, 3),
    (NonContractionError, 4),
    (BalancingError, 4),
    (ForwardDivergenceError, 4),
    (InfeasibleInitialError, 5),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stablemanifold",
        description="Global policy-function solver for perfect-foresight models",
    )
    parser.add_argument("command", choices=["check", "policy", "simulate", "ep"])
    parser.add_argument("--config", default=None, help="INI run configuration")
    parser.add_argument("--order", type=int, default=None, help="policy order override")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--grid", type=int, default=None, help="policy grid size override")
    parser.add_argument("--seed", type=int, default=None, help="shock seed override")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.order is not None:
            cfg.order = args.order
        if args.out is not None:
            cfg.output_dir = Path(args.out)
        if args.grid is not None:
            cfg.grid = args.grid
        if args.seed is not None:
            cfg.seed = args.seed
        _validate(cfg)
        command = {
            "check": cmd_check,
            "policy": cmd_policy,
            "simulate": cmd_simulate,
            "ep": cmd_ep,
        }[args.command]
        path = command(cfg)
        print(f"wrote {path}")
        return 0
    except SolverError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        for err_type, code in _EXIT_CODES:
            if isinstance(exc, err_type):
                return code
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
