"""In-memory span tracer for the benchmark.

`Tracer.install` wraps named public functions of a package at every place
that binds them: the defining module, every module that imported the name
(`from .catalog import build_positive_sets`), module-level dicts that hold
the function (the CLI's command table) and, for methods, the class.  Each
call records a span (name, start, end, parent span); spans stay in memory
until `write` dumps them.  Self time is a span's duration minus the part
its child spans cover.  `uninstall` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []      # (name, start, end, parent index or -1)
        self.counts: defaultdict = defaultdict(int)
        self._stack: list = []     # (span index, name, args, kwargs)
        self._patches: list = []   # (target, key, original, setter)

    # --- installing -------------------------------------------------------

    def install(self, package: str, names, observers=None) -> None:
        """Wraps each `module.function` or `module.Class.method` name
        (relative to `package`).  `observers[name](tracer, args, kwargs,
        result)` runs after a successful call."""
        observers = observers or {}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package
                                         or key.startswith(package + "."))]
        for name in names:
            mod_name, *owner, attr = name.split(".")
            owner_obj = importlib.import_module(f"{package}.{mod_name}")
            for part in owner:
                owner_obj = getattr(owner_obj, part)
            original = vars(owner_obj)[attr]
            wrapper = self._wrap(name, original, observers.get(name))
            if owner:  # a method: the class is its only binding
                self._patch(owner_obj, attr, original, wrapper, setattr)
                continue
            for mod in modules:
                space = vars(mod)
                for key, value in list(space.items()):
                    if value is original:
                        self._patch(space, key, original, wrapper,
                                    dict.__setitem__)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch(value, k, original, wrapper,
                                            dict.__setitem__)

    @contextlib.contextmanager
    def installed(self, package: str, names, observers=None):
        """`install` for the duration of a with block."""
        self.install(package, names, observers)
        try:
            yield self
        finally:
            self.uninstall()

    def _patch(self, target, key, original, wrapper, setter) -> None:
        setter(target, key, wrapper)
        self._patches.append((target, key, original, setter))

    def uninstall(self) -> None:
        for target, key, original, setter in reversed(self._patches):
            setter(target, key, original)
        self._patches.clear()

    def _wrap(self, name, fn, observer):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((index, name, args, kwargs))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observer is not None:
                observer(self, args, kwargs, result)
            return result

        return traced

    # --- observing --------------------------------------------------------

    def enclosing(self, name: str):
        """(args, kwargs) of the innermost active call of `name`, or None."""
        for _, active, args, kwargs in reversed(self._stack):
            if active == name:
                return args, kwargs
        return None

    # --- reporting --------------------------------------------------------

    def aggregate(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} over the recorded spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered[i]
        return out

    def child_calls(self, child: str, parent: str) -> int:
        """Number of `child` spans whose direct parent is a `parent` span."""
        return sum(1 for name, _, _, p in self.spans
                   if name == child and p >= 0
                   and self.spans[p][0] == parent)

    def write(self, path: str) -> None:
        """One CSV line per span: index, name, start, end, parent; times in
        seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},"
                        f"{parent}\n")
