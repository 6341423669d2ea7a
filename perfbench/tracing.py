"""Spans around a package's functions, recorded from outside the package.

`Tracer.install` replaces every binding of each target function in the
package's modules -- the module that defines it and every module that
imported the name -- with a wrapper that records a span: name, start, end,
parent and an optional note about the call. A generator function gets one
span per item it yields. Spans stay in memory until `write` dumps them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time


class Tracer:
    def __init__(self):
        self.names = []      # span name per name id
        self._name_ids = {}
        self.spans = []      # [name id, start s, end s, parent index or -1, note]
        self._stack = []
        self.enabled = True
        self._patched = []   # (module, attribute, original)

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, end: float, note=None) -> None:
        span = self.spans[idx]
        span[2] = end
        span[4] = note
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, such as one round."""
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, time.perf_counter())

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside, e.g. while the benchmark checks outputs."""
        prev, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = prev

    def wrap(self, name: str, fn, note=None):
        """`fn` with a span per call; `note(args, kwargs, result)` is stored."""
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    if not tracer.enabled:
                        try:
                            item = next(items)
                        except StopIteration:
                            return
                    else:
                        idx = tracer._open(name)
                        try:
                            item = next(items)
                        except StopIteration:
                            tracer._close(idx, time.perf_counter())
                            return
                        except BaseException:
                            tracer._close(idx, time.perf_counter())
                            raise
                        tracer._close(idx, time.perf_counter())
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, time.perf_counter())
                raise
            end = time.perf_counter()
            tracer._close(idx, end, note(args, kwargs, result) if note else None)
            return result
        return wrapper

    def install(self, package: str, targets) -> None:
        """Wrap each (module, function, note) target at every binding.

        Import every module of `package` that binds a target first: only
        modules already in sys.modules are patched.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        for mod_name, attr, note in targets:
            original = getattr(sys.modules[f"{package}.{mod_name}"], attr)
            wrapper = self.wrap(f"{mod_name}.{attr}", original, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"names": self.names,
                       "fields": ["name", "start_s", "end_s", "parent", "note"],
                       "spans": self.spans}, f)
            f.write("\n")


def self_times(spans):
    """Each span's duration minus the part of it its direct children cover."""
    children = [[] for _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _, _), kids in zip(spans, children):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(kids):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def roots(spans):
    """Index of each span's top-level ancestor."""
    out = []
    for i, span in enumerate(spans):
        parent = span[3]
        out.append(i if parent < 0 else out[parent])
    return out
