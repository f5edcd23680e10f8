"""Spans around the calls into each nmchain module, from outside the package.

`Tracer.install()` replaces every function defined in an nmchain module,
wherever a module namespace or module-level dict binds it, and the methods
of the classes those modules define, with a wrapper that records a span:
its id, its parent's id, its name, start, end, and the benchmark call it
belongs to. The scipy `minimize` that nmchain.measures imports is wrapped
as the span `measures.optimizer`, which also counts the optimizer's
evaluations and unconverged runs. `uninstall()` puts the originals back.

Spans stay in memory; `tally()` turns those recorded since the last tally
into self times, and `save()` writes them all out. From the spans:
- a layer's self time is the time its spans cover minus their child spans;
- a function's self time is its spans' time minus the child spans that
  belong to other layers, so helpers of the same module count with it.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "linalg", "gates", "channels", "chains", "measures", "trajectories")


class _Current(threading.local):
    span = -1                   # id of the innermost open span on this thread


class Tracer:
    def __init__(self, package):
        self._package = package
        self._modules = [getattr(package, name) for name in LAYERS]
        self._patches = []          # callables that undo one patch each
        self._current = _Current()
        self._ids = itertools.count()
        self._records = []          # (span id, parent id, name id, start, end, call id)
        self._chunks = []           # tallied records, one array per tally
        self.names: list = []       # span name of each name id
        self.call_id = -1
        self.counts = defaultdict(int)

    # --- wrapping -------------------------------------------------------

    def install(self):
        wrappers: dict = {}

        def wrapped(fn):
            if id(fn) not in wrappers:
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
                wrappers[id(fn)] = self._wrap(fn, name)
            return wrappers[id(fn)]

        def ours(obj):
            return inspect.isfunction(obj) and obj.__module__.rsplit(".", 1)[-1] in LAYERS

        for mod in self._modules + [self._package]:
            for attr, obj in list(vars(mod).items()):
                if ours(obj):
                    self._patch(mod, attr, wrapped(obj))
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if ours(val):
                            self._patch_item(obj, key, wrapped(val))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr2, val in list(vars(obj).items()):
                        public = not attr2.startswith("__") or attr2 == "__post_init__"
                        if public and inspect.isfunction(val):
                            self._patch(obj, attr2, wrapped(val))
        measures = self._package.measures
        self._patch(measures, "minimize", self._wrap_optimizer(measures.minimize))

    def uninstall(self):
        while self._patches:
            self._patches.pop()()

    def _patch(self, obj, attr, new):
        old = vars(obj)[attr]
        setattr(obj, attr, new)
        self._patches.append(lambda: setattr(obj, attr, old))

    def _patch_item(self, d, key, new):
        old = d[key]
        d[key] = new
        self._patches.append(lambda: d.__setitem__(key, old))

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        current, ids, record, clock = self._current, self._ids, self._records.append, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = current.span
            sid = current.span = next(ids)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                current.span = parent
                record((sid, parent, nid, start, end, tracer.call_id))
        return wrapper

    def _wrap_optimizer(self, minimize):
        spanned = self._wrap(minimize, "measures.optimizer")

        @functools.wraps(minimize)
        def wrapper(*args, **kwargs):
            res = spanned(*args, **kwargs)
            self.counts["measures.optimizer.nfev"] += int(res.nfev)
            self.counts["measures.optimizer.unconverged"] += int(not res.success)
            return res
        return wrapper

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    # --- self times -----------------------------------------------------

    def tally(self) -> dict:
        """Self times and counts of the spans recorded since the last tally.

        Returns {"layer_self": {layer: s}, "fn_self": {name: s},
        "calls": {name: n}, "counts": {name: n}} and resets the counts.
        """
        rows = np.array(self._records, dtype=np.float64).reshape(-1, 6)
        self._records.clear()
        self._chunks.append(rows)
        sid = rows[:, 0].astype(np.int64)
        parent = rows[:, 1].astype(np.int64)
        nid = rows[:, 2].astype(np.int64)
        dur = rows[:, 4] - rows[:, 3]
        n = len(sid)
        layer_of_name = np.array([LAYERS.index(s.split(".", 1)[0]) for s in self.names], dtype=np.int64)
        layer = layer_of_name[nid]

        # row of each span's parent; the first span of a tally has the lowest id
        base = sid.min() if n else 0
        pos = np.full((sid.max() - base + 1) if n else 0, -1, dtype=np.int64)
        pos[sid - base] = np.arange(n)
        child = parent >= base
        up = pos[parent[child] - base]
        child_dur = np.bincount(up, weights=dur[child], minlength=n)
        cross = layer[child] != layer[up]
        other_dur = np.bincount(up[cross], weights=dur[child][cross], minlength=n)
        children = np.bincount(up, minlength=n)

        layer_self = np.bincount(layer, weights=dur - child_dur, minlength=len(LAYERS))
        fn_self = np.bincount(nid, weights=dur - other_dur, minlength=len(self.names))
        calls = np.bincount(nid, minlength=len(self.names))
        counts = dict(self.counts)
        self.counts.clear()
        if "chains.build_embedding" in self.names:
            build = nid == self.names.index("chains.build_embedding")
            counts["chains.build_embedding.misses"] = int(np.count_nonzero(children[build]))
        return {
            "layer_self": dict(zip(LAYERS, layer_self.tolist())),
            "fn_self": dict(zip(self.names, fn_self.tolist())),
            "calls": dict(zip(self.names, calls.tolist())),
            "counts": counts,
        }

    def save(self, path):
        """Write every tallied span as arrays, with the span names."""
        rows = np.concatenate(self._chunks) if self._chunks else np.zeros((0, 6))
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_id=rows[:, 0].astype(np.int64),
            parent_id=rows[:, 1].astype(np.int64),
            name_id=rows[:, 2].astype(np.int32),
            start=rows[:, 3],
            end=rows[:, 4],
            call_id=rows[:, 5].astype(np.int64),
        )
