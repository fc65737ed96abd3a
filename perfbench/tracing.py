"""Spans recorded around the public functions each stablemanifold module binds.

The hooks are looked up by name when the tracer is installed: a function
that a later refactor removes is reported as absent instead of aborting
the run.  Spans live in flat in-memory arrays (name, start, end, parent,
size, run id) and are written once, when the run ends.  Nothing here
changes what the library computes, and uninstalling restores every
patched name.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np


def _fg_points(args, kwargs, out) -> int:
    # a batched fg takes (N, n_u); today it takes one point per call
    u = np.asarray(args[0] if args else kwargs["u"])
    return int(u.shape[0]) if u.ndim == 2 else 1


def _samples_used(args, kwargs, out) -> int:
    return int(out.samples_used)


def _returned(args, kwargs, out) -> int:
    return 1


def _levels(position: int, keyword: str):
    def size(args, kwargs, out) -> int:
        return len(args[position] if len(args) > position else kwargs[keyword])

    return size


# (module, attribute, span name, size recorder).  The span name's first
# component is the layer the span's self time is charged to.
MODULE_HOOKS = (
    ("cli", "build_growth_pipeline", "growth.build_growth_pipeline", None),
    ("cli", "search_domain", "manifold.search_domain", _returned),
    ("cli", "check_conditions", "manifold.check_conditions", _samples_used),
    ("manifold", "check_conditions", "manifold.check_conditions", _samples_used),
    ("cli", "implicit_policy_in_levels", "growth.implicit_policy_in_levels",
     _levels(4, "k_values")),
    ("cli", "policy_in_levels", "growth.policy_in_levels", _levels(3, "k_values")),
    ("cli", "eval_policy_hadamard", "manifold.eval_policy_hadamard", None),
    ("cli", "eval_policy", "manifold.eval_policy", None),
    ("cli", "solve_initial", "solver.solve_initial", None),
    ("cli", "simulate", "solver.simulate", None),
    ("growth", "eval_policy", "manifold.eval_policy", None),
    ("solver", "eval_policy", "manifold.eval_policy", None),
    ("growth", "build_growth", "growth.build_growth", None),
    ("growth", "find_steady_state", "model.find_steady_state", None),
    ("growth", "build_first_order", "first_order.build_first_order", None),
    ("growth", "schur_split", "spectral.schur_split", None),
    ("growth", "build_transformed", "spectral.build_transformed", None),
)

LAYERS = ("cli", "model", "first_order", "spectral", "manifold", "growth", "solver")

# span names whose calls are counted beneath every other span
COUNTED_BELOW = ("spectral.fg", "manifold.eval_policy", "manifold.check_conditions")


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.size = array("q")
        self.run_id = array("i")
        self.current_run = 0
        self.absent: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, size=None):
        """Return ``fn`` wrapped so that each call records one span."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        starts, ends, parents, sizes = self.start, self.end, self.parent, self.size
        name_ids, run_ids, stack, clock = self.name_id, self.run_id, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            sizes.append(0)
            run_ids.append(self.current_run)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if size is not None:
                sizes[i] = size(args, kwargs, out)
            return out

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _note_absent(self, *labels: str) -> None:
        self.absent += [label for label in labels if label not in self.absent]

    def _hook_object(self, obj, attr: str, name: str, size=None) -> None:
        if callable(getattr(obj, attr, None)):
            setattr(obj, attr, self.wrap(getattr(obj, attr), name, size))
        else:
            self._note_absent(f"{type(obj).__name__}.{attr}")

    def install(self, package) -> None:
        """Patch every hook found on the modules of ``package``; note the absent ones."""
        for mod_name, attr, name, size in MODULE_HOOKS:
            module = getattr(package, mod_name, None)
            if not callable(getattr(module, attr, None)):
                self._note_absent(f"{mod_name}.{attr}")
                continue
            self._set(module, attr, self.wrap(getattr(module, attr), name, size))
        growth = getattr(package, "growth", None)
        # ModelSpec.residual, FirstOrderSystem.nonlinear and TransformedSystem.fg
        # are bound on the objects the growth pipeline builds, so they are
        # hooked as the builders hand them on
        if callable(getattr(growth, "build_growth", None)):
            build_growth = growth.build_growth

            def traced_build_growth(*args, **kwargs):
                model = build_growth(*args, **kwargs)
                self._hook_object(model, "residual", "model.residual")
                return model

            self._set(growth, "build_growth", traced_build_growth)
        else:
            self._note_absent("ModelSpec.residual")
        if callable(getattr(growth, "build_transformed", None)):
            build_transformed = growth.build_transformed

            def traced_build_transformed(fos, *args, **kwargs):
                self._hook_object(fos, "nonlinear", "first_order.nonlinear")
                system = build_transformed(fos, *args, **kwargs)
                self._hook_object(system, "fg", "spectral.fg", _fg_points)
                return system

            self._set(growth, "build_transformed", traced_build_transformed)
        else:
            self._note_absent("FirstOrderSystem.nonlinear", "TransformedSystem.fg")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
            "run_id": np.frombuffer(self.run_id, dtype=np.int32).copy(),
        }

    def write(self, path: Path) -> None:
        """Write every span (indexes into ``names``; parent -1 is a root)."""
        np.savez(path, names=np.array(self.names), absent=np.array(self.absent, dtype=str),
                 **self.arrays())


def summarize(tracer: Tracer, run_id: int) -> dict:
    """Per-name calls, sizes, inclusive and self time for the spans of one run.

    Self time is a span's duration minus the durations of its direct
    children.  Children nest inside their parent, so the self times of all
    spans add up to the duration of the root spans.  ``below`` counts,
    for each span name, the calls named in ``COUNTED_BELOW`` made anywhere
    beneath it.
    """
    a = tracer.arrays()
    sel = np.flatnonzero(a["run_id"] == run_id)
    lo = int(sel[0]) if sel.size else 0
    name_id = a["name_id"][sel]
    size = a["size"][sel]
    dur = a["end"][sel] - a["start"][sel]
    parent = np.where(a["parent"][sel] >= 0, a["parent"][sel] - lo, -1)
    has_parent = parent >= 0
    child = np.zeros(sel.size)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    counted = {tracer.names.index(n): n for n in COUNTED_BELOW if n in tracer.names}
    below = {n: np.zeros(sel.size, dtype=np.int64) for n in counted.values()}
    for i in range(sel.size - 1, -1, -1):  # a child's index is above its parent's
        p = parent[i]
        if p < 0:
            continue
        for acc in below.values():
            acc[p] += acc[i]
        own = counted.get(int(name_id[i]))
        if own is not None:
            below[own][p] += 1

    spans = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for nid, name in enumerate(tracer.names):
        mask = name_id == nid
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + float(self_time[mask].sum())
        spans[name] = {
            "calls": int(mask.sum()),
            "size": int(size[mask].sum()),
            "wall_s": float(dur[mask].sum()),
            "self_s": float(self_time[mask].sum()),
            "below": {n: int(acc[mask].sum()) for n, acc in below.items()},
        }
    return {
        "spans": spans,
        "layer_self_s": layer_self,
        "root_wall_s": float(dur[~has_parent].sum()),
    }
