"""Out-of-program span tracer for the dualpf library.

The tracer wraps functions from outside the library: it replaces every
module-level binding of each public function of the traced modules (so
`regularize`, bound in `smc`, `state_filter` and `baselines`, is wrapped
in all three), plus a few methods and `numpy.linalg.eigh`.  Each call
records one span (name, parent span, start, end) in preallocated arrays;
per-name call counts, self time and parent->child call counts are kept as
running totals.  `uninstall` restores every original binding.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

TRACED_MODULES = ("model", "smc", "state_filter", "param_filter", "dual",
                  "baselines", "gas_turbine", "diagnosis", "harness")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.edges: Counter = Counter()   # (parent id, child id) -> calls
        self.signals: Counter = Counter()  # observer tallies
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []       # [span index, name id, child time]
        self._patches: list[tuple] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        """Timed stand-in for fn; observe(tracer, args, kwargs, result)."""
        nid = self._intern(name)
        stack, clock = self._stack, time.perf_counter
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        calls, self_s, edges = self.calls, self.self_s, self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(s_start)
            parent = stack[-1] if stack else None
            s_name.append(nid)
            s_parent.append(parent[0] if parent else -1)
            s_end.append(0.0)
            frame = [idx, nid, 0.0]
            stack.append(frame)
            t0 = clock()
            s_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                s_end[idx] = t1
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                    edges[parent[1], nid] += 1
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, observers: dict | None = None):
        """Wrap the public functions of the traced modules everywhere."""
        observers = observers or {}
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"dualpf.{short}")
            for attr, val in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(val)
                        and val.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrappers[val] = self.wrap(name, val, observers.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname != "dualpf" and not modname.startswith("dualpf."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])
        from dualpf.model import ModelSpec, ParamDomain
        for owner, attr, name in ((ModelSpec, "step_state", "model.step_state"),
                                  (ModelSpec, "measure", "model.measure"),
                                  (ParamDomain, "contains",
                                   "model.ParamDomain.contains"),
                                  (np.linalg, "eigh", "smc.eigh")):
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_time(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def edge(self, parent: str, child: str) -> int:
        if parent not in self._ids or child not in self._ids:
            return 0
        return self.edges[self._ids[parent], self._ids[child]]

    def summary(self) -> dict:
        return {name: {"calls": self.calls[i], "self_s": self.self_s[i]}
                for i, name in enumerate(self.names) if self.calls[i]}

    def write(self, path) -> None:
        """Spans as parallel arrays; `names` maps span name ids to names."""
        np.savez(path, names=np.asarray(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
