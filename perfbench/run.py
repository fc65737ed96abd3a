"""Benchmark of the stablemanifold CLI on the growth model.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 5      # every workload, both modes

The load is a closed loop: one client in one process calls
``stablemanifold.cli.main`` and starts the next command only after the
previous one returned.  A pass is one run of a workload's commands; passes
repeat until ``--seconds`` is spent and timings are medians over passes.
Set-up is timed in fresh interpreters.  ``--trace 0`` reports the
end-to-end metrics with no hooks installed; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the exit code is 0
only when every correctness gate held.
"""

from __future__ import annotations

import os

PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED_THREADS:  # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import LAYERS, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5
MIN_PASSES = 2  # byte-identical outputs are checked between passes

COUNT_UNITS = ("count", "ratio", "1")  # must repeat exactly between traced passes


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def cpu_probe_ms() -> float:
    """Fastest of 20 runs of a fixed Python and numpy loop: how fast the machine runs now."""
    best = float("inf")
    for _ in range(20):
        a = np.linspace(0.0, 1.0, 8)
        t0 = time.perf_counter()
        for _ in range(1000):
            a = np.sqrt(a * a + 1.0) - 0.5
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def environment(seed: int) -> dict:
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "cpu_probe_ms_start": cpu_probe_ms(),
        "seed": seed,
        "threads": {var: os.environ[var] for var in PINNED_THREADS},
    }


def measure_setup() -> dict[str, float]:
    """Median set-up time over fresh interpreters; the first one only warms caches."""
    samples = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        if i:
            samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median(s["import_s"] + s["pipeline_s"] for s in samples),
        "setup.import_s": statistics.median(s["import_s"] for s in samples),
        "setup.pipeline_s": statistics.median(s["pipeline_s"] for s in samples),
    }


class Client:
    """Closed-loop caller of ``cli.main``; keeps each command's output for the gates."""

    def __init__(self, main, workload, commands: list[Command]) -> None:
        self.main = main
        self.workload = workload
        self.commands = commands
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_outputs: dict[str, bytes] | None = None
        self.results: dict = {}
        self.pass_walls: list[list[float]] = []

    def call(self, argv) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.main(list(argv))
            except Exception:  # a crash is a failed command, as for a CLI user
                traceback.print_exc()
                code = 1
        return code, err.getvalue()

    def run_pass(self) -> list[float]:
        """Run every command once; return the wall time of each call."""
        walls, outputs = [], {}
        for cmd in self.commands:
            self.attempted += 1
            t0 = time.perf_counter()
            code, err = self.call(cmd.argv)
            walls.append(time.perf_counter() - t0)
            if code != 0:
                self.failed += 1
                self.errors.append(f"{cmd.label}: exit {code}: {err.strip()}")
                continue
            outputs[cmd.label] = cmd.output.read_bytes()
        if len(outputs) == len(self.commands):
            self.gate(outputs)
        return walls

    def gate(self, outputs: dict[str, bytes]) -> None:
        if self.first_outputs is None:
            self.first_outputs = outputs
            try:
                errors, self.results = self.workload.check(outputs)
            except (KeyError, ValueError, IndexError) as exc:
                errors = [f"unreadable output: {exc!r}"]
            if errors:
                self.failed += len(self.commands)
            self.errors += errors
            return
        for label, data in outputs.items():
            if data != self.first_outputs[label]:
                self.failed += 1
                self.errors.append(f"{label}: output differs from the first pass")

    def digests(self) -> dict[str, str]:
        return {k: hashlib.sha256(v).hexdigest() for k, v in (self.first_outputs or {}).items()}


def warm_up(main, work: Path) -> None:
    """Cheap commands through the same code paths, so lazy set-up is not timed."""
    ini = work / "warmup.ini"
    ini.write_text("[domain]\nr_u = 0.0075\nr_v = 0.0075\nsample_count = 16\n"
                   "[simulate]\nT = 5\n", encoding="utf-8")
    for argv in (["check", "--config", str(ini), "--out", str(work / "warmup")],
                 ["simulate", "--config", str(ini), "--out", str(work / "warmup"), "--order", "1"]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if main(argv) != 0:
                raise RuntimeError(f"warm-up command failed: {argv}")


def fastest(walls: list[list[float]]) -> float:
    """Sum over commands of each command's fastest call (see README.md)."""
    return sum(min(column) for column in zip(*walls))


def end_to_end(client: Client, seconds: float) -> dict[str, float]:
    walls = client.pass_walls
    t_begin = time.perf_counter()
    while True:
        walls.append(client.run_pass())
        elapsed = time.perf_counter() - t_begin
        if client.failed or (len(walls) >= MIN_PASSES
                             and elapsed + statistics.median(map(sum, walls)) > seconds):
            break
    return {
        "wall_s": fastest(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_max": client.results.get("err_max", float("nan")),
    }


def layer_metrics(summary: dict) -> dict[str, float]:
    spans = summary["spans"]

    def get(name, key="calls"):
        return spans.get(name, {}).get(key, 0)

    def below(name, counted):
        return spans.get(name, {}).get("below", {}).get(counted, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    fg_calls = get("spectral.fg")
    out = {
        "spectral.fg.calls": fg_calls,
        "spectral.fg.points": get("spectral.fg", "size"),
        "spectral.fg.points_per_call": ratio(get("spectral.fg", "size"), fg_calls),
        "spectral.fg.self_s": get("spectral.fg", "self_s"),
        "first_order.nonlinear.calls": get("first_order.nonlinear"),
        "first_order.nonlinear.self_s": get("first_order.nonlinear", "self_s"),
        "model.residual.calls": get("model.residual"),
        "model.residual.busy_s": get("model.residual", "wall_s"),
        "manifold.search_domain.wall_s": get("manifold.search_domain", "wall_s"),
        "manifold.search_domain.useful_ratio": ratio(
            get("manifold.search_domain", "size"),
            below("manifold.search_domain", "manifold.check_conditions")),
        "manifold.check_conditions.calls": get("manifold.check_conditions"),
        "manifold.check_conditions.samples": get("manifold.check_conditions", "size"),
        "manifold.check_conditions.self_s": get("manifold.check_conditions", "self_s"),
        "manifold.eval_policy.calls": get("manifold.eval_policy"),
        "manifold.eval_policy.self_s": get("manifold.eval_policy", "self_s"),
        "manifold.eval_policy.fg_per_call": ratio(
            below("manifold.eval_policy", "spectral.fg"), get("manifold.eval_policy")),
        "manifold.eval_policy_hadamard.calls": get("manifold.eval_policy_hadamard"),
        "growth.implicit_policy_in_levels.wall_s": get("growth.implicit_policy_in_levels", "wall_s"),
        "growth.implicit_policy_in_levels.self_s": get("growth.implicit_policy_in_levels", "self_s"),
        "growth.policy_in_levels.wall_s": get("growth.policy_in_levels", "wall_s"),
        "growth.fg_per_point": ratio(
            below("growth.implicit_policy_in_levels", "spectral.fg"),
            get("growth.implicit_policy_in_levels", "size")),
        "solver.solve_initial.wall_s": get("solver.solve_initial", "wall_s"),
        "solver.solve_initial.eval_policy_calls": below("solver.solve_initial",
                                                        "manifold.eval_policy"),
        "solver.simulate.wall_s": get("solver.simulate", "wall_s"),
        "cli.cmd.self_s": get("cli.main", "self_s"),
        "model.find_steady_state.wall_s": get("model.find_steady_state", "wall_s"),
        "spectral.schur_split.wall_s": get("spectral.schur_split", "wall_s"),
        "spectral.build_transformed.wall_s": get("spectral.build_transformed", "wall_s"),
        "trace.wall_s": summary["root_wall_s"],
    }
    out.update({f"layer.{layer}.self_s": summary["layer_self_s"][layer] for layer in LAYERS})
    return out


def traced(client: Client, tracer: Tracer, seconds: float, package,
           units: dict[str, str]) -> dict[str, float]:
    """Alternate untraced and traced passes; per-layer metrics come from the traced ones."""
    t_begin = time.perf_counter()
    untraced_walls, per_pass = [], []
    while True:
        untraced_walls.append(client.run_pass())
        tracer.current_run = len(per_pass)
        tracer.install(package)
        client.main = tracer.wrap(package.cli.main, "cli.main")
        try:
            client.run_pass()
        finally:
            tracer.uninstall()
            client.main = package.cli.main
        summary = summarize(tracer, tracer.current_run)
        per_pass.append(layer_metrics(summary))
        self_sum = sum(summary["layer_self_s"].values())
        if abs(self_sum - summary["root_wall_s"]) > 1e-9 * max(1.0, summary["root_wall_s"]):
            client.errors.append(f"layer self times sum to {self_sum!r}, "
                                 f"traced wall is {summary['root_wall_s']!r}")
        round_s = sum(untraced_walls[-1]) + per_pass[-1]["trace.wall_s"]
        if client.failed or (len(per_pass) >= MIN_PASSES
                             and time.perf_counter() - t_begin + round_s > seconds):
            break
    for name, unit in units.items():
        values = [m[name] for m in per_pass if name in m]
        if unit in COUNT_UNITS and any(v != values[0] for v in values):
            client.errors.append(f"counter {name} differs between traced passes: {values}")
    # every per-layer figure comes from the fastest traced pass, so that
    # the layer self times add up to its wall time
    metrics = dict(min(per_pass, key=lambda m: m["trace.wall_s"]))
    metrics["trace.untraced_wall_s"] = min(map(sum, untraced_walls))
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["manifold.search_domain.r_verified"] = client.results.get("r_verified", 0.0)
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        units: dict[str, str]) -> tuple[dict, dict]:
    import stablemanifold
    import stablemanifold.cli

    env = environment(seed)
    workload = WORKLOADS[workload_name]
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = measure_setup()
        client = Client(stablemanifold.cli.main, workload, workload.commands(seed, work))
        warm_up(client.main, work)
        if trace:
            tracer = Tracer()
            metrics = traced(client, tracer, seconds, stablemanifold, units)
            metrics["setup.import_s"] = setup["setup.import_s"]
            metrics["setup.pipeline_s"] = setup["setup.pipeline_s"]
            tracer.write(WORK / f"spans-{workload_name}.npz")
            extra = {"absent_hooks": tracer.absent, "span_count": len(tracer.start)}
        else:
            metrics = end_to_end(client, seconds)
            metrics["setup_s"] = setup["setup_s"]
            extra = {"pass_walls_s": client.pass_walls}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    env["cpu_probe_ms_end"] = cpu_probe_ms()
    result = {
        "correct": not client.errors and client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    details = {"workload": workload_name, "trace": int(trace), "seconds": seconds,
               "environment": env, "errors": client.errors, "output_sha256": client.digests(),
               **extra}
    return result, details


def print_report(result: dict, details: dict) -> None:
    print(f"# {details['workload']} trace={details['trace']} seed={details['environment']['seed']}")
    print("environment: " + json.dumps(details["environment"]))
    for key in ("absent_hooks", "pass_walls_s", "output_sha256"):
        if key in details:
            print(f"{key}: {json.dumps(details[key])}")
    for err in details["errors"]:
        print(f"FAILED CHECK: {err}")
    width = max(len(name) for name in result["metrics"])
    for name, m in result["metrics"].items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':<{width}}  {result['failed']}/{result['attempted']} commands")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stablemanifold" / "__init__.py").is_file():
        print(f"error: no stablemanifold sources under {SRC}", file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = metric_units()
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    runs = ([(w, t) for w in WORKLOADS for t in (False, True)] if args.workload == "all"
            else [(args.workload, bool(args.trace))])
    results = []
    for workload_name, trace in runs:
        units = per_layer_units if trace else end_to_end_units
        result, details = run(workload_name, args.seed, args.seconds, trace, units)
        print_report(result, details)
        tag = f"{workload_name}-trace{int(trace)}"
        (WORK / f"result-{tag}.json").write_text(
            json.dumps({"result": result, **details}, indent=1), encoding="utf-8")
        results.append((tag, result))
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{tag}.{k}": v for tag, r in results for k, v in r["metrics"].items()},
        }
    else:
        final = results[0][1]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
