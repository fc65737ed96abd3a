"""The CLI command set whose outputs are kept as goldens, and the writer of those goldens.

Each case is one ``stablemanifold`` command with its INI text.  Its golden
directory ``tests/goldens/<case>/`` holds every file the command writes and
``run.txt``: the exit code and what the command wrote to stderr.
``tests/test_goldens.py`` runs each case in-process and compares bytes.

Run ``PYTHONPATH=src python tests/make_goldens.py`` to write every golden
from the current tree (existing files are overwritten).  A golden that a
change moves on purpose is not rewritten: the change gets an entry in
``test_goldens.MOVED`` instead.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

from stablemanifold import GrowthParams
from stablemanifold.cli import main

GOLDENS = Path(__file__).resolve().parent / "goldens"
GROWTH = "[model]\nname = growth\n[params]\nalpha = 0.36\nbeta = 0.99\n"
EXO = "[model]\nname = exo_test\n"
K_BAR = GrowthParams().k_bar
STARTS = (0.25, 0.5, 2.0)
GROWTH_ORDERS = (0, 1, 2, 3, 8)
EXO_ORDERS = (1, 2, 3)


def _cases() -> dict[str, tuple[str, tuple[str, ...]]]:
    """Case name -> (INI text, command and flags)."""
    cases = {
        "growth-check-128": (GROWTH + "[domain]\nr_u = auto\nr_v = auto\nsample_count = 128\n",
                             ("check",)),
        "growth-check-2048": (GROWTH, ("check",)),
        "growth-policy-11": (GROWTH, ("policy", "--grid", "11")),
        "growth-policy-501": (GROWTH, ("policy", "--grid", "501")),
        "growth-ep": (GROWTH, ("ep",)),
        "growth-simulate-x0-100": (GROWTH + "[simulate]\nx0 = 100\n", ("simulate",)),
        "exo-check": (EXO, ("check",)),
        "exo-policy": (EXO, ("policy",)),
        "exo-ep": (EXO, ("ep",)),
    }
    for order in GROWTH_ORDERS:
        for start in STARTS:
            cases[f"growth-simulate-o{order}-{start}"] = (
                GROWTH + f"[simulate]\nT = 200\nx0 = {start * K_BAR!r}\n",
                ("simulate", "--order", str(order)),
            )
    for order in EXO_ORDERS:
        cases[f"exo-simulate-o{order}"] = (
            EXO + "[simulate]\nT = 60\nz0 = 0.3\n", ("simulate", "--order", str(order)))
        cases[f"exo-simulate-stochastic-o{order}"] = (
            EXO + "[simulate]\nT = 20\nz0 = 0.3\nseed = 7\nshock_std = 0.01\n",
            ("simulate", "--order", str(order)),
        )
    return cases


CASES = _cases()


def run_case(name: str, out: Path) -> None:
    """Run case ``name`` in-process, writing its outputs and ``run.txt`` into ``out``."""
    ini, argv = CASES[name]
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        config = Path(work) / "run.ini"
        config.write_text(ini, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--config", str(config), "--out", str(out)])
    (out / "run.txt").write_text(f"exit = {code}\n{err.getvalue()}", encoding="utf-8")


def write_goldens(names=None) -> None:
    for name in names or CASES:
        shutil.rmtree(GOLDENS / name, ignore_errors=True)
        run_case(name, GOLDENS / name)


if __name__ == "__main__":
    write_goldens(sys.argv[1:])
