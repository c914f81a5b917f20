"""Outside-in tracer: spans around the public functions of a package.

The tracer replaces each target function by a timing wrapper in every module
of the package that binds it.  `from .geometry import christoffel` gives the
importing module its own reference, so patching only the defining module
would miss those calls.  A span's self time is its duration minus the time
covered by the spans it caused.  A call made while a span of the same
function is already open (recursion) runs inside the outer span.

Hooks see each call's arguments and result, which is how work counters such
as quadrature integrand evaluations are measured where the work happens.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self, package):
        self.package = package
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.counters = Counter()
        self.open = Counter()  # name -> number of open spans
        self.absent = []
        self._child_s = []  # one accumulator per open span
        self._patches = []

    def wrap(self, name, fn, before=None, after=None):
        """`fn` timed as span `name`; `before` may replace the arguments."""

        def traced(*args, **kwargs):
            if self.open[name]:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            self.open[name] += 1
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                child = self._child_s.pop()
                self.open[name] -= 1
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - child
                if self._child_s:
                    self._child_s[-1] += dur
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, key, fn):
        """`fn`, called with positional arguments, counting into counter `key`."""
        counters = self.counters

        def counting(*args):
            counters[key] += 1
            return fn(*args)

        return counting

    def _resolve(self, target):
        module, *path = target.split(".")
        try:
            owner = importlib.import_module(f"{self.package}.{module}")
        except ImportError:
            return None, None
        for attr in path[:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None, None
        return owner, getattr(owner, path[-1], None)

    def install(self, targets, hooks=None):
        """Trace every `module.function` or `module.Class.method` target.

        A target that does not exist is recorded in `absent` and skipped.
        """
        hooks = hooks or {}
        for target in targets:
            owner, fn = self._resolve(target)
            if fn is None:
                self.absent.append(target)
                continue
            traced = self.wrap(target, fn, *hooks.get(target, (None, None)))
            if isinstance(owner, type):
                self._patch(owner, target.rsplit(".", 1)[1], traced)
                continue
            prefix = self.package + "."
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, attr, traced)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)
