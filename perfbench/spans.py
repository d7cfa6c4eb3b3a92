"""Span recorder for the benchmark's traced run.

The library has no tracing of its own, so the recorder wraps functions from
the outside.  ``Tracer.install`` replaces every public module-level function
of each layer module (plus the named private kernels) with a wrapper that
records one span per call: name, parent span, analysis-call id, start, end.
The replacement is made on the defining module and on every other
``willmore`` module that holds a ``from willmore.x import f`` copy, so calls
through either name are seen.  ``Tracer.remove`` restores the originals.

Spans stay in memory until the run ends.  A span's self time is its duration
minus the time its child spans cover; a layer's self time is the sum over
its spans.  Methods of classes and the charts' jet arithmetic are not
wrapped: their time counts as self time of the wrapped function calling
them, so ``surface`` includes ``jets``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import statistics
import sys
import time
import types
from collections import defaultdict

import numpy as np

# layers are the library modules; jets is folded into surface (see above)
LAYERS = ("surface", "grid", "multivec", "curvature", "multiplier",
          "residual", "residues", "potentials", "expansion", "classify",
          "pipeline")
# private functions wrapped as kernels in addition to the public ones
KERNELS = {"multivec": ("_apply_bilinear",), "potentials": ("_solve_modes",),
           "expansion": ("_weighted_lstsq",)}
HASHED = "grid.grad"        # span whose input arrays are hashed
HASH_SPAN = "trace.hash"    # hashing time, kept out of every layer


class Tracer:
    def __init__(self):
        # span i: [name, parent index or None, call id, start, end]
        self.spans: list = []
        self.grad_inputs: list = []     # (call id, digest) per grad call
        self.call_id = None
        self._stack: list = []
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, self.call_id, time.perf_counter(),
                           None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == HASHED:
                self._hash_input(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _hash_input(self, grid, f):
        idx = self._open(HASH_SPAN)
        arr = np.ascontiguousarray(f)
        digest = hashlib.blake2b(arr.tobytes(), digest_size=16)
        digest.update(repr((grid.r_min, grid.r_max, grid.n_r, grid.n_theta,
                            arr.shape, arr.dtype.str)).encode())
        self.grad_inputs.append((self.call_id, digest.hexdigest()))
        self._close(idx)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"willmore.{layer}")
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__
                        and (not attr.startswith("_")
                             or attr in KERNELS.get(layer, ()))):
                    wrappers[obj] = self._wrap(f"{layer}.{attr.lstrip('_')}",
                                               obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "willmore" and not modname.startswith("willmore."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def remove(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> list:
        """(name, call id, self seconds) per span."""
        child = [0.0] * len(self.spans)
        for _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [(name, cid, (t1 - t0) - child[i])
                for i, (name, _, cid, t0, t1) in enumerate(self.spans)]

    def summary(self, levels: int) -> dict:
        """Per-layer metrics, per analysis call, over every traced call.

        Self times are medians over the calls; counts are totals divided by
        the number of calls (and by ``levels`` for the per-level counts).
        """
        calls = sorted({cid for _, _, cid, _, _ in self.spans})
        layer = defaultdict(lambda: defaultdict(float))
        func = defaultdict(lambda: defaultdict(float))
        count = defaultdict(int)
        for name, cid, self_s in self.self_times():
            layer[name.split(".")[0]][cid] += self_s
            func[name][cid] += self_s
            count[name] += 1
        n = len(calls)

        def med(table, key):
            return statistics.median(table[key].get(c, 0.0) for c in calls)

        out = {f"{lay}.self_s": med(layer, lay) for lay in LAYERS}
        for name in ("grid.dtheta", "grid.grad", "multivec.apply_bilinear"):
            out[f"{name}.self_s"] = med(func, name)
            out[f"{name}.calls"] = count[name] / n
        for name in ("potentials.solve_modes", "expansion.weighted_lstsq",
                     "surface.from_chart"):
            out[f"{name}.self_s"] = med(func, name)
        distinct = defaultdict(set)
        for cid, digest in self.grad_inputs:
            distinct[cid].add(digest)
        out["grid.grad.distinct_frac"] = (
            sum(len(d) for d in distinct.values()) / len(self.grad_inputs))
        for name in ("residual.flux", "residual.strong_residual",
                     "multiplier.pmc_multiplier",
                     "surface.gauss_map_gradient_norm"):
            out[f"{name}.calls"] = count[name] / (n * levels)
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, parent, call, start, end."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
