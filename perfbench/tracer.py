"""Outside-in span tracer for the twobases library.

The tracer wraps the public functions and methods of the library modules
from outside: the library itself is not edited.  Every binding of a wrapped
object is replaced, including names another module imported by value (for
example ``classify.cmp_seq_alpha`` or ``enum_b2.f_minpoly``) and class
attributes aliased to the same function (``FieldElem.__rmul__ = __mul__``),
so each call goes through exactly one wrapper whatever name it was made by.

Each call records one span in memory: the span name, the index of the span
that was open when it started (its parent, -1 at top level), and its start
and end times.  ``restore`` puts every original object back.

Span names are ``<module>.<function>`` and ``<module>.<Class>.<method>``,
with dunder methods named without underscores (``bases.FieldElem.mul``) and
``__init__`` named after the class itself (``words.EPSeq``).
"""

from __future__ import annotations

import functools
import time
from array import array
from enum import Enum

MODULES = ("words", "polys", "bases", "classify", "b2core", "enum_b2",
           "dimension", "cli")

# Dunder methods that do arithmetic or construction; the rest (__eq__,
# __hash__, __repr__, ...) are left alone.
_DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__",
            "__neg__", "__mul__", "__rmul__", "__truediv__", "__pow__"}


def _span_name(module: str, owner: str, attr: str) -> str:
    if attr == "__init__":
        return f"{module}.{owner}"
    return f"{module}.{owner}.{attr.strip('_')}"


def _targets(package):
    """(span name, original callable, [(namespace, attribute, raw value)])
    for every public callable the eight modules define, in a fixed order."""
    mods = [getattr(package, m) for m in MODULES]
    namespaces = [package] + mods
    out = []
    for mod, modname in zip(mods, MODULES):
        for attr, val in list(vars(mod).items()):
            if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                continue
            if not isinstance(val, type):
                if callable(val):
                    # every binding, wherever the function was imported to
                    binds = [(ns, a, v) for ns in namespaces
                             for a, v in vars(ns).items() if v is val]
                    out.append((f"{modname}.{attr}", val, binds))
            elif not issubclass(val, (Enum, BaseException)):
                out.extend(_method_targets(modname, val))
    return out


def _method_targets(modname: str, cls) -> list:
    """Targets for the methods of one class; an alias such as
    ``__rmul__ = __mul__`` joins the target of the function it is bound to."""
    by_fn = {}
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr not in _DUNDERS:
            continue
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if not callable(fn) or isinstance(fn, type):
            continue
        if id(fn) not in by_fn:
            by_fn[id(fn)] = (_span_name(modname, cls.__name__, fn.__name__), fn, [])
        by_fn[id(fn)][2].append((cls, attr, raw))
    return list(by_fn.values())


class Tracer:
    """Install with ``install()``, run the workload, then ``restore()``.

    ``hooks`` maps a span name to ``hook(stats, args, result)``, called after
    each successful call so ratios and sizes are measured where the work
    happens; ``stats`` is that span's dictionary in ``self.extra``."""

    def __init__(self, package, hooks=None):
        self.package = package
        self.hooks = dict(hooks or {})
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.extra: dict[str, dict] = {}
        self._stack = [-1]
        self._saved: list[tuple] = []

    # -- installing and restoring -----------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, fn, binds in _targets(self.package):
            wrapper = self._wrap(name, fn)
            for ns, attr, raw in binds:
                if isinstance(raw, classmethod):
                    new = classmethod(wrapper)
                elif isinstance(raw, staticmethod):
                    new = staticmethod(wrapper)
                else:
                    new = wrapper
                self._saved.append((ns, attr, raw))
                setattr(ns, attr, new)

    def restore(self) -> None:
        for ns, attr, orig in reversed(self._saved):
            setattr(ns, attr, orig)
        self._saved.clear()

    @property
    def bindings(self) -> list:
        """(namespace, attribute, original) for every rebound name."""
        return list(self._saved)

    def _wrap(self, name: str, fn):
        sid = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter
        hook = self.hooks.get(name)
        stats = self.extra.setdefault(name, {}) if hook else None

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(stats, args, result)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    # -- reading the spans -------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds, where self
        time is the span's duration minus the durations of its child spans."""
        n = len(self.span_start)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.span_name[i]]]
            dur = ends[i] - starts[i]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
        for name, stats in self.extra.items():
            out[name].update(stats)
        return out
