"""Outside-in tracer for the weightcalc layers.

Every public function of each layer module is wrapped, and the wrapper
is patched into every weightcalc module that holds the original, since
`from x import y` copies the binding (`resolution.nullspace_mod`,
`taylor.rank_mod`, the names `cli` imports from `homology.resolution`).
Calls a module makes to its own public functions go through the patched
module global and are traced too.  Methods of classes are not wrapped:
their time lands in the span of whoever called them.

Each call becomes a span (function, start, end, parent span) kept in
typed arrays in memory; `summary()` reduces them when the run ends.
Nothing inside `src/` is changed.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = (
    "weights",
    "characters",
    "monomial",
    "cycles",
    "homology.linalg",
    "homology.pbw",
    "homology.resolution",
    "homology.taylor",
    "repmodel",
    "cli",
)
LINALG = "homology.linalg"
# Functions whose distinct inputs are counted, to show repeated work, with
# the parameters left out of an input.  A resolution probed for completion
# also answers the same call unprobed, so the probe flag is left out.
DISTINCT = {
    "homology.pbw.multiply_keys": (),
    "homology.resolution.minimal_resolution": ("probe_completion",),
    "homology.taylor.taylor_ext_ranks": (),
}
# Functions whose inclusive time is reported on its own, as `<name>.s`.
INCLUSIVE = ("homology.resolution.verify_resolution", "characters.collision_scan")


def _freeze(x):
    """A hashable, content-based key for an argument."""
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((_freeze(k), _freeze(v)) for k, v in x.items()))
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__,) + tuple(
            _freeze(getattr(x, f.name)) for f in dataclasses.fields(x)
        )
    return x


def _input_key(fn, ignored: tuple[str, ...]):
    """Key function for the input of a call to `fn`: arguments bound to
    the signature with defaults filled in, so that spelling an argument
    by keyword or leaving a default out does not make an input new."""
    sig = inspect.signature(fn)
    nparams = len(sig.parameters)

    def key_of(args, kwargs):
        if ignored or kwargs or len(args) != nparams:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            args = tuple(v for k, v in bound.arguments.items() if k not in ignored)
        try:
            hash(args)
        except TypeError:
            return _freeze(args)
        return args

    return key_of


def _shape(a) -> tuple[int, int]:
    shape = getattr(a, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[0]), int(shape[1])
    rows = len(a)
    return rows, (len(a[0]) if rows else 0)


def _rank(out, cols: int, rows: int) -> int:
    """Rank of an elimination input read off the result: an int is the
    rank, a (matrix, pivots) pair has one pivot per rank, and a kernel
    basis of k vectors leaves cols - k.  Anything else is bounded by
    min(rows, cols)."""
    if isinstance(out, int):
        return out
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], list):
        return len(out[1])
    if hasattr(out, "shape") and len(out.shape) == 2:
        return cols - int(out.shape[0])
    return min(rows, cols)


class Tracer:
    """Wraps the layers on `install()`, restores them on `uninstall()`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.fid = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.seen = {name: set() for name in DISTINCT}
        # span index -> (rows, cols, rank) of every elimination input
        self.shapes: dict[int, tuple[int, int, int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, fid: int, name: str, layer: str):
        fids, parents, starts, ends, stack = (
            self.fid, self.parent, self.start, self.end, self.stack,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        if name in self.seen:
            seen, key_of, span = self.seen[name], _input_key(fn, DISTINCT[name]), traced

            def traced(*args, **kwargs):
                seen.add(key_of(args, kwargs))
                return span(*args, **kwargs)

        elif layer == LINALG:
            shapes, span = self.shapes, traced

            def traced(a, *args, **kwargs):
                idx = len(starts)
                out = span(a, *args, **kwargs)
                rows, cols = _shape(a)
                shapes[idx] = (rows, cols, _rank(out, cols, rows))
                return out

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for li, layer in enumerate(LAYERS):
            mod = importlib.import_module(f"weightcalc.{layer}")
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not (inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)):
                    continue
                name = f"{layer}.{attr}"
                self.names.append(name)
                self.layer_of.append(li)
                wrappers[id(obj)] = self._wrap(obj, len(self.names) - 1, name, layer)
        originals = {id(w.__wrapped__): w.__wrapped__ for w in wrappers.values()}
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == "weightcalc" or modname.startswith("weightcalc.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and originals[id(obj)] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def summary(self) -> tuple[dict[str, float | int], dict[str, dict[str, float | int]]]:
        """Per-layer metrics, and calls and inclusive time per wrapped
        function, from the recorded spans.

        `<layer>.calls` counts spans entering the layer from outside it;
        `<layer>.self_s` sums span time minus time in wrapped children.
        The linalg cells and elim_ops are computed from input shapes and
        ranks of the calls entering that layer, not measured.
        """
        n = len(self.start)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        layer_of = self.layer_of
        child = array("d", bytes(8 * n))
        for i in range(n):
            par = parents[i]
            if par >= 0:
                child[par] += ends[i] - starts[i]
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        fn_calls = [0] * len(self.names)
        fn_incl = [0.0] * len(self.names)
        cells = max_cells = elim_ops = 0
        linalg = LAYERS.index(LINALG)
        for i in range(n):
            f = fids[i]
            li = layer_of[f]
            dur = ends[i] - starts[i]
            self_s[li] += dur - child[i]
            fn_calls[f] += 1
            fn_incl[f] += dur
            par = parents[i]
            if par < 0 or layer_of[fids[par]] != li:
                calls[li] += 1
                if li == linalg:
                    rows, cols, rank = self.shapes[i]
                    cells += rows * cols
                    max_cells = max(max_cells, rows * cols)
                    elim_ops += rank * rows * cols
        layers: dict[str, float | int] = {}
        for li, layer in enumerate(LAYERS):
            layers[f"{layer}.calls"] = calls[li]
            layers[f"{layer}.self_s"] = self_s[li]
        layers[f"{LINALG}.cells"] = cells
        layers[f"{LINALG}.max_cells"] = max_cells
        layers[f"{LINALG}.elim_ops"] = elim_ops
        index = {name: k for k, name in enumerate(self.names)}
        for name in DISTINCT:
            layers[f"{name}.calls"] = fn_calls[index[name]] if name in index else 0
            layers[f"{name}.distinct"] = len(self.seen[name])
        for name in INCLUSIVE:
            layers[f"{name}.s"] = fn_incl[index[name]] if name in index else 0.0
        functions = {
            name: {"calls": fn_calls[k], "inclusive_s": fn_incl[k]}
            for k, name in enumerate(self.names)
            if fn_calls[k]
        }
        return layers, functions
