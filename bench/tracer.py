"""In-memory span recorder that wraps clmat's public functions from outside.

Nothing under src/ knows about it. install() replaces every public
module-level function of the layer modules, at its defining module and at
every other clmat module that imported the same object, plus the few
methods listed in METHODS, with a wrapper that records one span per call:
name, start, end, parent span and op id. uninstall() puts the originals
back. Spans are kept in flat arrays and written out by dump().
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array

LAYERS = ("topology", "trees", "metrics", "selection", "simulator", "cli")

# Methods worth a span; all other methods are too small and too frequent
# (NetworkGraph.distance runs millions of times per select).
METHODS = {
    ("topology", "NetworkGraph", "restricted"): "topology.restricted",
    ("trees", "AggregationTree", "depth"): "trees.AggregationTree.depth",
}

RESTRICTED = "topology.restricted"
RUN_LIFETIME = "simulator.run_lifetime"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_kind: dict[int, str] = {}
        self.links_copied: dict[int, int] = {}
        # restricted calls made by run_lifetime: per op, (calls, alive set changed)
        self.reselect: dict[int, list[int]] = {}
        self._last_keep: dict[int, tuple] = {}
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int, kind: str) -> None:
        self.op_kind[op_id] = kind
        self._op = op_id

    def end_op(self) -> None:
        self._op = None
        self._stack.clear()

    # -- wrapping ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        is_restricted = name == RESTRICTED
        clock = time.perf_counter

        def traced(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(self.start)
            parent = self._stack[-1] if self._stack else -1
            self.name.append(name_id)
            self.op.append(op)
            self.parent.append(parent)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if is_restricted:
                self._count_restricted(op, parent, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_restricted(self, op, parent, args, kwargs, result) -> None:
        self.links_copied[op] = self.links_copied.get(op, 0) + len(result.links)
        if parent < 0 or self.names[self.name[parent]] != RUN_LIFETIME:
            return
        keep = tuple(args[1] if len(args) > 1 else kwargs["keep"])
        counts = self.reselect.setdefault(op, [0, 0])
        counts[0] += 1
        if self._last_keep.get(parent) != keep:
            counts[1] += 1
        self._last_keep[parent] = keep

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layer functions of the imported clmat package."""
        clmat_modules = [m for k, m in sys.modules.items()
                         if m is not None and (k == "clmat" or k.startswith("clmat."))]
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"clmat.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrapped[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for mod in clmat_modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patch(mod, attr, wrapped[id(obj)])
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(sys.modules[f"clmat.{layer}"], cls_name, None)
            member = vars(cls).get(attr) if cls is not None else None
            if isinstance(member, property):
                self._patch(cls, attr, property(self._wrap(member.fget, name)))
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> array:
        """Each span's duration minus the durations of its direct children."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def aggregate(self) -> dict[tuple[str, str], list[float]]:
        """(op kind, span name) -> [calls, summed self seconds]."""
        out: dict[tuple[str, str], list[float]] = {}
        for name_id, op, own in zip(self.name, self.op, self.self_times()):
            key = (self.op_kind[op], self.names[name_id])
            acc = out.get(key)
            if acc is None:
                acc = out[key] = [0, 0.0]
            acc[0] += 1
            acc[1] += own
        return out

    def dump(self, path: str) -> None:
        """Write every span as gzip TSV: span, parent, op, kind, name, start, end."""
        own = self.self_times()
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\top\tkind\tname\tstart_s\tend_s\tself_s\n")
            for i in range(len(self.start)):
                op = self.op[i]
                fh.write(f"{i}\t{self.parent[i]}\t{op}\t{self.op_kind[op]}\t"
                         f"{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{own[i]!r}\n")
