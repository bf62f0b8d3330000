"""Spans recorded from outside the program, around its cross-module calls.

``Tracer.install`` walks the copolab submodules and replaces every function
that one module imported from another (found by ``__module__``) with a
wrapper that records a span.  Module attributes that are themselves copolab
modules (``cli.estimators``, ``estimators.bounds_mod``) are replaced by a
proxy whose functions are wrapped the same way, so calls made through the
module object are seen too.  Nothing inside the program changes; a function
that is renamed or removed is simply never wrapped and shows up as "not
observed" in the per-layer report.

A span is ``[name, start, end, parent]``: name is ``<module>.<function>`` of
the callee, start and end are ``perf_counter`` readings, and parent is the
index of the enclosing span in the same thread (``-1`` for a root).  Spans
stay in memory; ``self_times`` derives each span's self time as its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
import types

COPOLAB_MODULES = ("cli", "estimators", "partition", "bounds", "kernel", "disorder")


def short_name(func) -> str:
    return f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"


class _ModuleProxy(types.ModuleType):
    """Stands in for a copolab module attribute; wraps its functions on access."""

    def __init__(self, real, tracer):
        super().__init__(real.__name__)
        self._real = real
        self._tracer = tracer
        self._cache = {}

    def __getattr__(self, attr):
        value = getattr(self._real, attr)
        if inspect.isfunction(value) and value.__module__ == self._real.__name__:
            if attr not in self._cache:
                self._cache[attr] = self._tracer.wrap(value)
            return self._cache[attr]
        return value


class Tracer:
    """In-memory span recorder with per-call counters."""

    def __init__(self, counters=None):
        self.spans = []  # [name, start, end, parent]
        self.counts = {}  # counter name -> summed value
        self._counters = counters or {}
        self._local = threading.local()
        self._patched = []  # (module, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func, name=None):
        name = name or short_name(func)
        counter = self._counters.get(name)
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if counter is not None:
                    self._count(counter, args, kwargs)

        return traced

    def _count(self, counter, args, kwargs):
        try:
            values = counter(*args, **kwargs)
        except (TypeError, AttributeError, IndexError, KeyError, ValueError):
            return  # a changed signature leaves the counter unobserved
        for key, value in values.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def install(self, package_modules):
        """Wrap cross-module imports in each module of ``package_modules``."""
        for mod in package_modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value):
                    home = value.__module__ or ""
                    if home.startswith("copolab.") and home != mod.__name__:
                        self._patch(mod, attr, self.wrap(value))
                elif inspect.ismodule(value) and value.__name__.startswith("copolab."):
                    if value is not mod and value.__name__ != "copolab":
                        self._patch(mod, attr, _ModuleProxy(value, self))

    def _patch(self, mod, attr, replacement):
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, replacement)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    out = [s[2] - s[1] for s in spans]
    for span in spans:
        if span[3] >= 0:
            out[span[3]] -= span[2] - span[1]
    return out


def aggregate(spans):
    """name -> (calls, self seconds, total seconds)."""
    selfs = self_times(spans)
    table = {}
    for span, own in zip(spans, selfs):
        calls, self_s, total = table.get(span[0], (0, 0.0, 0.0))
        table[span[0]] = (calls + 1, self_s + own, total + span[2] - span[1])
    return table
