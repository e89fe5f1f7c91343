"""Spans around flowmaplab's public functions and methods, installed from the
benchmark's own files for the traced run.

``Tracer.install`` wraps every public module-level function of every loaded
``flowmaplab.*`` module, and rebinds each module-global name that refers to
the same function object, so internal calls (``suite`` calling
``catalog_flow``, ``flows`` calling ``lagrangian_eom_residual``) are traced
too. Public methods and ``__init__`` are wrapped on their class. A span is
named ``<module>.<qualname>``; a constructor span drops ``.__init__``.

Spans are kept in memory as (name, start, end, parent, work) and written out
at the end. ``work`` is a count derived from the call's arguments, because
the catalog's field closures cannot be reached: RK4 point-steps, Newton
target points, differentiated values, Biot-Savart kernel pairs.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
import types

import numpy as np


def _rk4_point_steps(a):
    # step count as rk4_advect computes it
    span = float(a["t1"]) - float(a["t0"])
    steps = 0 if span == 0.0 else max(1, int(math.ceil(abs(span) / a["dt"] - 1e-12)))
    return steps * (np.size(a["labels"]) // 3)


def _kernel_pairs(a):
    from flowmaplab.biotsavart import COMPACT_TOL

    w = np.asarray(a["src"].values).reshape(-1, 3)
    carrying = int(np.count_nonzero(np.abs(w).max(axis=1) > COMPACT_TOL))
    return carrying * (np.size(a["targets"]) // 3)


WORK = {
    "flows.rk4_advect": _rk4_point_steps,
    "flowmap.invert_map": lambda a: np.size(a["points"]) // 3,
    "grids.differentiate": lambda a: np.size(a["f"]),
    "biotsavart.velocity_from_vorticity": _kernel_pairs,
}


def _short(module_name):
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, work]
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)
        sig = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count = work(sig.bind(*args, **kwargs).arguments) if work else 0
            i = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, count]
            spans.append(span)
            stack.append(i)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "flowmaplab" or n.startswith("flowmaplab."))]
        wrapped = {}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType) and obj.__module__.startswith("flowmaplab.")
                        and obj.__qualname__ == obj.__name__ and not obj.__name__.startswith("_")):
                    if id(obj) not in wrapped:
                        wrapped[id(obj)] = self._wrap(f"{_short(obj.__module__)}.{obj.__name__}", obj)
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        for mod in mods:
            for cls in list(vars(mod).values()):
                if not (isinstance(cls, type) and cls.__module__ == mod.__name__):
                    continue
                for attr, fn in list(vars(cls).items()):
                    if isinstance(fn, types.FunctionType) and (
                            attr == "__init__" or not attr.startswith("_")):
                        name = f"{_short(mod.__name__)}.{cls.__qualname__}"
                        if attr != "__init__":
                            name += f".{attr}"
                        self._restore.append((cls, attr, fn))
                        setattr(cls, attr, self._wrap(name, fn))
        return self

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "columns": ["name", "start_s", "end_s", "parent", "work"],
                       "spans": [[index[n], s - t0, e - t0, p, w]
                                 for n, s, e, p, w in self.spans]}, fh)

    def summary(self):
        """Per-name totals: calls, s (outermost spans only, so recursion is
        not counted twice), self_s and work; plus the derived counters."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, s, e, p, _ in spans:
            if p >= 0:
                child_time[p] += e - s
        stats = {}
        hits_rk4 = set()
        in_invert = 0
        for i, (name, s, e, p, w) in enumerate(spans):
            st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
            st["calls"] += 1
            st["self_s"] += (e - s) - child_time[i]
            st["work"] += w
            ancestors = self._ancestors(i)
            if name not in {spans[a][0] for a in ancestors}:
                st["s"] += e - s
            if name == "flows.rk4_advect":
                hits_rk4.update(ancestors)
            if name == "flowmap.deformation_at" and any(
                    spans[a][0] == "flowmap.invert_map" for a in ancestors):
                in_invert += 1
        positions = [i for i, sp in enumerate(spans) if sp[0] == "flowmap.SampledFlowMap.positions"]
        return stats, {
            "table_hits": sum(1 for i in positions if i not in hits_rk4),
            "newton_iters": in_invert,
        }

    def _ancestors(self, i):
        out = []
        p = self.spans[i][3]
        while p >= 0:
            out.append(p)
            p = self.spans[p][3]
        return out
