"""Every CLI output of ``make_goldens.CASES`` against its committed golden, byte for byte.

A file that a change moved on purpose has an entry in :data:`MOVED`, which
names the change and bounds the move per column; every other file, exit
code and stderr must keep its bytes.  Changing a golden or an entry is a
test change, logged in CHANGES.md with what moved and by how much.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from make_goldens import CASES, GOLDENS, run_case


@dataclass(frozen=True)
class Moved:
    """A CSV golden that ``change`` moved: each column within its bound of the golden.

    ``bounds`` maps a column to the largest allowed ``|new - golden|``, with
    ``"*"`` for every column not named.  The first ``exact_rows`` rows must
    keep their bytes.  Rows, header and ``nan`` cells must stay where they are.
    """

    change: str
    bounds: dict
    exact_rows: int = 0


#: (case, file) -> its entry; the files a change moved on purpose
MOVED: dict[tuple[str, str], Moved] = {}

_FLOOR = ("simulate warm-starts each row at order 2 and above from the last one shifted "
          "one level, and stops at the rounding floor of fg")
# simulate then solved a path's periods together over a sliding window of rows, each
# retiring once converged at its point, so a period's row stops at inner_tol from another
# start than the row before it shifted: within 2e-13 per column, the bound the path keeps
# to cold rows; measured at most 5.4e-14 in a path column and 1.3e-13 in residual_norm
# (growth, order 2, from 0.25 k_bar).  Row 0's path columns keep their bytes, but its
# residual_norm reads period 1.  An order-0 value is zero, so only the floor test moves an
# order-0 path, after its first 30 rows
_WINDOW = "simulate solves a path's periods together over a sliding window of rows"
for _order in (1, 2, 3):
    MOVED[f"exo-simulate-o{_order}", "simulate.csv"] = Moved(f"{_FLOOR}; {_WINDOW}", {"*": 2e-13})
for _order in (0, 1, 2, 3, 8):
    for _start in ("0.25", "0.5", "2.0"):
        MOVED[f"growth-simulate-o{_order}-{_start}", "simulate.csv"] = Moved(
            _WINDOW, {"*": 2e-13}, 0 if _order else 30)
for _case in ("bm-simulate-o2", "bmc-simulate-o2"):
    MOVED[_case, "simulate.csv"] = Moved(_WINDOW, {"*": 2e-13})

# h11 is solved to inner_tol (1e-12) as every other column is, not to 4 eps max(1, |k|), which
# remainders through the inner Newton solve cannot reach; measured 3.8e-14 (11 levels) and
# 4.9e-13 (501 levels).  h1-h3 then took the pinned Newton's Jacobian from the difference
# stencil over the row, in place of a chain rule through the sweep, which moved them within
# inner_tol: 3.2e-14 (11 levels) and 9.2e-14 (501 levels), and h11 by 1.1e-16 more
for _grid in (11, 501):
    MOVED[f"growth-policy-{_grid}", "policy.csv"] = Moved(
        "one level-grid solve to inner_tol for every column, by the row's difference Jacobian",
        {"h11": 1e-12, "h1": 1e-12, "h2": 1e-12, "h3": 1e-12})


def _table(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.splitlines()
    return lines[0].split(","), np.array([[float(c) for c in r.split(",")] for r in lines[1:]])


def _deviations(got: str, want: str) -> tuple[list[str], np.ndarray]:
    """The header and the largest ``|got - want|`` per column of two CSV texts of one shape."""
    header, X = _table(got)
    header_want, Y = _table(want)
    if header != header_want or X.shape != Y.shape:
        raise ValueError("header or row count changed")
    if not np.array_equal(np.isnan(X), np.isnan(Y)):
        raise ValueError("a nan cell moved")
    diff = np.where(np.isnan(Y), 0.0, np.abs(X - Y))
    return header, diff.max(axis=0, initial=0.0)


def _key_values(text: str) -> dict[str, str]:
    """The ``key = value`` lines of a report; ``ValueError`` if some line is not one."""
    pairs = [line.split(" = ", 1) for line in text.splitlines()]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("not a key = value file")
    return dict(pairs)


def _key_deviations(got: str, want: str) -> str:
    """Each changed key of two reports with the same keys, and its relative deviation."""
    values, wanted = _key_values(got), _key_values(want)
    if list(values) != list(wanted):
        raise ValueError("keys changed")
    changed = []
    for key, old in wanted.items():
        if values[key] != old:
            try:
                changed.append(f"{key} {abs(float(values[key]) - float(old)) / abs(float(old)):.3g}")
            except (ValueError, ZeroDivisionError):  # a verdict, or a zero that moved
                changed.append(f"{key} {old} -> {values[key]}")
    return ", ".join(changed)


def compare(case: str, name: str, got: bytes, want: bytes) -> list[str]:
    """The reasons ``got`` fails golden ``want`` of file ``name`` in ``case``; empty if it passes.

    A CSV file reports its largest deviation per column, a ``key = value``
    report its relative deviation per changed key; any other file only that
    its bytes differ.  Every byte change fails unless :data:`MOVED` bounds it.
    """
    if got == want:
        return []
    entry = MOVED.get((case, name))
    if not name.endswith(".csv"):
        try:
            changed = _key_deviations(got.decode(), want.decode())
        except ValueError:
            changed = ""
        if not changed:
            return [f"{case}/{name}: bytes differ"]
        return [f"{case}/{name}: bytes differ; relative deviation per changed key: {changed}"]
    try:
        header, dev = _deviations(got.decode(), want.decode())
    except ValueError as exc:
        return [f"{case}/{name}: {exc}"]
    report = ", ".join(f"{col} {d:.3g}" for col, d in zip(header, dev))
    if entry is None:
        return [f"{case}/{name}: bytes differ; largest deviation per column: {report}"]
    errors = []
    bound = [entry.bounds.get(col, entry.bounds.get("*", 0.0)) for col in header]
    over = [col for col, d, b in zip(header, dev, bound) if not d <= b]
    if over:
        errors.append(f"{case}/{name}: {', '.join(over)} over the bound of '{entry.change}'; "
                      f"largest deviation per column: {report}")
    exact = got.decode().splitlines()[1 : 1 + entry.exact_rows]
    if exact != want.decode().splitlines()[1 : 1 + entry.exact_rows]:
        errors.append(f"{case}/{name}: the first {entry.exact_rows} rows changed")
    return errors


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_its_golden(case, tmp_path):
    run_case(case, tmp_path)
    golden = GOLDENS / case
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    errors = [e for n in names for e in compare(case, n, (tmp_path / n).read_bytes(),
                                                  (golden / n).read_bytes())]
    assert not errors, "\n".join(errors)


def test_moved_entries_name_existing_files():
    for case, name in MOVED:
        assert (GOLDENS / case / name).is_file(), (case, name)


@pytest.mark.parametrize("case, name, report", [
    ("exo-simulate-stochastic-o2", "simulate.csv",
     "bytes differ; largest deviation per column: t 0, z0 1.73e-18,"),
    ("growth-policy-501", "policy.csv", "closed_form over the bound of 'one level-grid solve"),
    ("growth-simulate-o0-0.5", "simulate.csv", "the first 30 rows changed"),
])
def test_last_bit_change_in_a_golden_fails(case, name, report):
    # the second column of row 4 moved by one ulp, in a file kept whole, in a column that a
    # moved file keeps and in the rows that a moved file keeps
    want = (GOLDENS / case / name).read_text()
    lines = want.splitlines()
    cells = lines[5].split(",")
    cells[1] = "%.17g" % np.nextafter(float(cells[1]), np.inf)
    got = "\n".join(lines[:5] + [",".join(cells)] + lines[6:]) + "\n"
    errors = compare(case, name, got.encode(), want.encode())
    assert len(errors) == 1 and f"{case}/{name}: {report}" in errors[0], errors


def test_last_bit_change_in_a_report_names_its_key():
    # sup_G moved by one ulp; every other key keeps its bytes
    want = (GOLDENS / "growth-check-128" / "check_report.txt").read_text()
    lines = want.splitlines()
    key, value = lines[7].split(" = ")
    moved = np.nextafter(float(value), np.inf)
    lines[7] = f"{key} = {moved:.17g}"
    errors = compare("growth-check-128", "check_report.txt", ("\n".join(lines) + "\n").encode(),
                     want.encode())
    rel = (moved - float(value)) / float(value)
    assert errors == ["growth-check-128/check_report.txt: bytes differ; relative deviation per "
                      f"changed key: sup_G {rel:.3g}"], errors
