"""The benchmark's workloads: inputs made from a seed, CLI commands, correctness gates.

Every workload runs the growth model (alpha = 0.36, beta = 0.99) through
``stablemanifold.cli.main`` and is checked against the closed-form policy
``k' = alpha * beta * k**alpha``.  Seed 0 gives the paper calibration and
the inputs stated in each docstring; another seed moves the capital-grid
offset or the starting capitals a little without changing how much work a
workload is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALPHA, BETA = 0.36, 0.99
K_BAR = (ALPHA * BETA) ** (1.0 / (1.0 - ALPHA))

# Correctness gates, fixed before anything is timed.
VERIFY_RADIUS = 0.0075
POLICY_SUP_ERR = {"h1": 5.60e-3, "h2": 2.367e-4, "h3": 1.062e-5}
POLICY_SUP_ERR_RTOL = 1e-3
TRANSITION_KNEXT_ATOL = 1e-5
TRANSITION_END_ATOL = 1e-9

POLICY_GRID = 11

MODEL_INI = f"[model]\nname = growth\n[params]\nalpha = {ALPHA!r}\nbeta = {BETA!r}\n"


@dataclass(frozen=True)
class Command:
    """One CLI call: its arguments and the file it must write."""

    label: str
    argv: tuple[str, ...]
    output: Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str

    def commands(self, seed: int, work: Path) -> list[Command]:
        raise NotImplementedError

    def check(self, outputs: dict[str, bytes]) -> tuple[list[str], dict[str, float]]:
        """Return the gate failures and the results (``err_max``, ``r_verified``)."""
        raise NotImplementedError


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _csv(data: bytes) -> dict[str, np.ndarray]:
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    return {name: rows[:, j] for j, name in enumerate(header)}


def _report(data: bytes) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in data.decode("utf-8").splitlines())
    return {key: value for key, value in pairs}


def closed_form(k: np.ndarray) -> np.ndarray:
    return ALPHA * BETA * k**ALPHA


class Verify(Workload):
    """``check`` with automatic radius search: 20-radius grid, 128 samples.

    Passes at r = 0.0075 after trying 17 radii, with the same ``sup_G``,
    ``L`` and bound as at 2048 samples.  It has no seed-dependent input: the
    model and the radius grid fix which radius passes.
    """

    def commands(self, seed, work):
        ini = _write(work / "verify.ini",
                     MODEL_INI + "[domain]\nr_u = auto\nr_v = auto\nsample_count = 128\n")
        out = work / "verify"
        return [Command("check", ("check", "--config", str(ini), "--out", str(out)),
                        out / "check_report.txt")]

    def check(self, outputs):
        report = _report(outputs["check"])
        errors = []
        for key in ("r_u", "r_v"):
            if float(report.get(key, "nan")) != VERIFY_RADIUS:
                errors.append(f"verify: {key} = {report.get(key)}, expected {VERIFY_RADIUS}")
        for key in ("cond1_ok", "cond2_ok", "cond3_ok"):
            if report.get(key) != "true":
                errors.append(f"verify: {key} = {report.get(key)}, expected true")
        # check has no closed-form output: its error figure is the a priori
        # bound it reports for the order-n policy
        bound = float(report.get("apriori_order_n", "nan"))
        if not (math.isfinite(bound) and bound > 0.0):
            errors.append(f"verify: apriori_order_n = {bound}")
        return errors, {"err_max": bound, "r_verified": float(report.get("r_u", "nan"))}


class PolicyGrid(Workload):
    """``policy --grid 11`` with r_u = r_v = 0.0075 fixed, 128 samples, memo on.

    Capital levels run from ``k_min_frac * k_bar`` to ``5 * k_bar``;
    ``k_min_frac`` is 0.01 at seed 0 and moves within [0.01, 0.05) with
    the seed.  The sup errors are attained at the fixed top of the grid.
    """

    def commands(self, seed, work):
        k_min_frac = 0.01 if seed == 0 else 0.01 + 0.04 * np.random.default_rng(seed).random()
        ini = _write(work / "policy.ini", MODEL_INI + (
            "[domain]\nr_u = 0.0075\nr_v = 0.0075\nsample_count = 128\n"
            "[solve]\nmemo = true\n"
            f"[policy]\nk_min_frac = {float(k_min_frac)!r}\nk_max_frac = 5.0\n"))
        out = work / "policy"
        return [Command("policy", ("policy", "--config", str(ini), "--out", str(out),
                                   "--grid", str(POLICY_GRID)), out / "policy.csv")]

    def check(self, outputs):
        table = _csv(outputs["policy"])
        errors = []
        if not all(np.all(np.isfinite(col)) for col in table.values()):
            errors.append("policy-grid: non-finite value in policy.csv")
        if table["k"].size != POLICY_GRID:
            errors.append(f"policy-grid: {table['k'].size} rows, expected {POLICY_GRID}")
        sup = {h: float(np.max(np.abs(table[h] - table["closed_form"]))) for h in POLICY_SUP_ERR}
        for h, expected in POLICY_SUP_ERR.items():
            if not abs(sup[h] - expected) <= POLICY_SUP_ERR_RTOL * expected:
                errors.append(f"policy-grid: sup|{h} - closed form| = {sup[h]:.4e}, "
                              f"expected {expected:.4e}")
        if not sup["h3"] < sup["h2"] < sup["h1"]:
            errors.append(f"policy-grid: sup errors not decreasing in order: {sup}")
        return errors, {"err_max": sup["h3"]}


class Transition(Workload):
    """``simulate --order 3``, T = 200, from about {0.25, 0.5, 2.0} * k_bar.

    Seed 0 starts at exactly those capitals; another seed scales each by a
    factor drawn from [1, 1.01].  Over that range the Newton solve makes the
    same number of policy evaluations as at seed 0; just below 0.999 the
    0.5 * k_bar start needs one more iteration, which would change the work.
    """

    STARTS = (0.25, 0.5, 2.0)

    def commands(self, seed, work):
        factors = np.ones(3) if seed == 0 else np.random.default_rng(seed).uniform(1.0, 1.01, 3)
        commands = []
        for start, factor in zip(self.STARTS, factors):
            label = f"simulate-{start}"
            ini = _write(work / f"{label}.ini", MODEL_INI + (
                f"[simulate]\nT = 200\nx0 = {float(start * factor * K_BAR)!r}\n"))
            out = work / label
            commands.append(Command(label, ("simulate", "--config", str(ini), "--out", str(out),
                                            "--order", "3"), out / "simulate.csv"))
        return commands

    def check(self, outputs):
        errors, err_max = [], 0.0
        for label, data in outputs.items():
            table = _csv(data)
            k, k_next = table["x0"], table["y0"]
            if table["t"].size != 201:
                errors.append(f"{label}: {table['t'].size} rows, expected 201")
            finite = [col[:-1] if name == "residual_norm" else col for name, col in table.items()]
            if not all(np.all(np.isfinite(col)) for col in finite):
                errors.append(f"{label}: non-finite value in simulate.csv")
            err = float(np.max(np.abs(k_next - closed_form(k))))
            if not err <= TRANSITION_KNEXT_ATOL:
                errors.append(f"{label}: sup|k' - closed form| = {err:.3e} > {TRANSITION_KNEXT_ATOL}")
            if not abs(k[-1] - K_BAR) <= TRANSITION_END_ATOL:
                errors.append(f"{label}: k_T = {k[-1]!r} did not reach k_bar = {K_BAR!r}")
            err_max = max(err_max, err)
        return errors, {"err_max": err_max}


WORKLOADS = {
    w.name: w
    for w in (
        Verify("verify", "costliest CLI command: per-point fg and difference Jacobians in "
                         "condition checks over 17 radii; no Picard iteration, no memo"),
        PolicyGrid("policy-grid", "implicit h1..h3 recursion at 11 neighbouring capital levels, "
                                  "warm-started by the memo; exercises Picard iteration, "
                                  "bypasses the domain search"),
        Transition("transition", "sequential cold order-3 policy evaluations in the Newton "
                                 "initial-condition solve and the path; no memo, no batch width"),
    )
}
