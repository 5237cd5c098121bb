"""Span tracer that wraps a package's public callables from outside.

The tracer enumerates the public functions and the public methods of the
public classes of each named module, wraps each one so that a call records
a span (name, start, end, parent), and rebinds every name under which the
package looks the original up: the defining module, every sibling module
that imported it with ``from .x import f``, and the class for methods.
Nothing in the traced package is edited; ``uninstall`` puts every original
object back.

Spans live in flat ``array`` columns while tracing and are turned into a
``SpanTable`` of numpy arrays afterwards. Spans are appended when they
start, so indices follow call order and a span's descendants occupy the
index range right after it.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "star_isac"
LAYERS = ("channel", "star_ris", "physics", "env", "rl_core", "ddpg", "sac",
          "experiments")


class Tracer:
    """Wraps the public callables of ``star_isac.<layer>`` for each layer in
    LAYERS while installed.

    ``meters`` maps a span name such as ``"rl_core.Mlp.forward"`` to a
    function of the call's arguments that returns the work done by that
    call (FLOPs, bytes); it is evaluated before the span's clock starts.
    """

    def __init__(self, meters=None):
        self.layers = LAYERS
        self.meters = dict(meters or {})
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._clear()

    def _clear(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_work = array("d")
        self._stack = [-1]

    # ---- wrapping ---------------------------------------------------------
    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(self.layers.index(layer))
        return self._ids[name]

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__qualname__}"
        nid = self._name_id(name, layer)
        meter = self.meters.get(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, work = self.span_start, self.span_end, self.span_work
        stack = self._stack
        clock = time.perf_counter

        def enter(args, kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            work.append(meter(*args, **kwargs) if meter else 0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        if inspect.isgeneratorfunction(fn):
            # one span per resumption: the body's work between two yields
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = enter(args, kwargs)
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    yield value
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = enter(args, kwargs)
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._clear()
        wrapped = {}  # original function -> wrapper, for rebinding imports
        for layer in self.layers:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, layer)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, name, wrapped[obj])
        return self

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, (staticmethod, classmethod)):
                self._patch(cls, attr, type(member)(self._wrap(member.__func__, layer)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, layer))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def table(self) -> "SpanTable":
        if len(self._stack) != 1:
            raise RuntimeError("spans still open")
        return SpanTable(
            names=list(self.names), layers=self.layers,
            name_layer=np.array(self.name_layer, dtype=np.int32),
            name=np.frombuffer(self.span_name, dtype=np.int32).copy(),
            parent=np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            start=np.frombuffer(self.span_start, dtype=np.float64).copy(),
            end=np.frombuffer(self.span_end, dtype=np.float64).copy(),
            work=np.frombuffer(self.span_work, dtype=np.float64).copy())


class SpanTable:
    """Finished spans as numpy columns, with self times and subtrees."""

    def __init__(self, names, layers, name_layer, name, parent, start, end,
                 work):
        self.names = names
        self.layers = tuple(layers)
        self.name_layer = name_layer
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.work = work
        self.dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=self.dur[has_parent],
                              minlength=len(name))
        # self time: the span's duration minus the part its children cover
        self.self_time = self.dur - covered
        self.layer = name_layer[name]
        # descendants of span i are the spans i+1 .. subtree_end[i]-1:
        # they are entered after i and before i ends
        self.subtree_end = np.searchsorted(start, end, side="left")

    def __len__(self) -> int:
        return len(self.name)

    def ids(self, *names: str) -> list:
        return [self.names.index(n) for n in names if n in self.names]

    def of(self, *names: str) -> np.ndarray:
        """Boolean mask of the spans with any of the given names."""
        return np.isin(self.name, self.ids(*names))

    def of_layer(self, layer: str) -> np.ndarray:
        return self.layer == self.layers.index(layer)

    def inside(self, outer: np.ndarray) -> np.ndarray:
        """Mask of spans that are an ``outer`` span or descend from one."""
        idx = np.flatnonzero(outer)
        depth = np.zeros(len(self) + 1, dtype=np.int64)
        np.add.at(depth, idx, 1)
        np.add.at(depth, self.subtree_end[idx], -1)
        return np.cumsum(depth[:-1]) > 0

    def parent_name(self) -> np.ndarray:
        """Name id of each span's parent, -1 for a root span."""
        out = np.full(len(self), -1, dtype=np.int32)
        has_parent = self.parent >= 0
        out[has_parent] = self.name[self.parent[has_parent]]
        return out

    def child_count(self) -> np.ndarray:
        has_parent = self.parent >= 0
        return np.bincount(self.parent[has_parent], minlength=len(self))

    def self_by_layer(self, mask: np.ndarray) -> dict:
        totals = np.bincount(self.layer[mask], weights=self.self_time[mask],
                             minlength=len(self.layers))
        return dict(zip(self.layers, totals.tolist()))

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), layers=np.array(self.layers),
                 name_layer=self.name_layer, name=self.name, parent=self.parent,
                 start=self.start, end=self.end, work=self.work)
