"""Span tracer that wraps the public functions of a package from outside.

``Tracer.installed()`` replaces every public function of the package's
modules (the names in each module's ``__all__``, plus the public methods
of the classes listed there) by a wrapper that records one span per
call.  Modules bind names with ``from .x import f``, so every module
attribute that *is* a wrapped function object is replaced, not only the
defining one.  Leaving the ``with`` block puts every attribute back.

Spans are kept in flat arrays (name id, parent index, start, end, index
after the subtree) so a run with millions of calls stays small.  The
program is single threaded, so one stack is enough.

Span times are read on a clock that stops while the wrapper does its own
bookkeeping (array appends, the stack, the count hooks), so that work is
charged to no span.  What the stopped clock cannot see, the wrapper's
call and return and the few statements between a clock reading and the
wrapped call, is calibrated once with a null function (``calibrate``) and
subtracted: ``inner`` seconds from every span and ``outer`` seconds from
a parent's self time per direct child.  Both are 150-400 ns on a 2-vCPU
Xeon VM.  Their sum is calibrated well, their split less so: on a loop
of calls to a tiny function, up to about 100 ns per call moved between
the callee's span and the caller's self time.  That is a large share of
the self time of the cheapest scalar functions (``sqrt_h``), so compare
their seconds between runs of one workload, not as absolute costs.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def self_times(parents, starts, ends) -> np.ndarray:
    """Duration of each span minus the durations of its direct children.

    ``parents[i]`` is the index of the span that was open when span ``i``
    began, or -1 for a root span.
    """
    parents = np.asarray(parents, dtype=np.int64)
    dur = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    covered = np.zeros(len(dur))
    nested = parents >= 0
    np.add.at(covered, parents[nested], dur[nested])
    return dur - covered


def _public_callables(module):
    """(owner, attribute, span name) for each public function of module."""
    short = module.__name__.rsplit(".", 1)[-1]
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield module, name, f"{short}.{name}"
        elif (inspect.isclass(obj) and obj.__module__ == module.__name__
              and not issubclass(obj, BaseException)):
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    raw = raw.__func__
                if inspect.isfunction(raw):
                    yield obj, attr, f"{short}.{attr}"


class Tracer:
    """Records spans for calls into a package while installed.

    Args:
        package: top-level package name; all of its loaded modules are
            scanned for attributes to replace.
        extra: (owner, attribute, span name) triples for callables outside
            the package, such as a library constructor at its boundary.
        on_call: span name -> ``f(counts, args, kwargs)`` run before the
            call, for counts computed from arguments.
        on_return: span name -> ``f(counts, result)`` run after the call.
    """

    def __init__(self, package: str, extra=(), on_call=None, on_return=None):
        self.package = package
        self.extra = list(extra)
        self.on_call = dict(on_call or {})
        self.on_return = dict(on_return or {})
        self.names: list[str] = []
        self.counts: dict = {}
        self.overhead = (0.0, 0.0)  # (inner, outer) seconds per call
        self.clear()

    def clear(self) -> None:
        """Drop recorded spans and counts; keeps the name table."""
        self._name = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._close = array("q")  # first span index after the subtree
        self._stack = [-1]
        self._paused = 0.0  # bookkeeping seconds the span clock skips
        self.counts = {}

    def calibrate(self, calls: int = 10_000, repeats: int = 5) -> None:
        """Measure the per-call wrapper cost that the span clock still sees.

        A wrapped loop calls a wrapped one-argument null function ``calls``
        times, and the same loop runs unwrapped.  ``inner`` is the null span's self
        time per call minus a plain call of the null function; ``outer``
        is the loop's self time per call minus a plain loop iteration.
        Medians over ``repeats`` rounds.
        """
        def null(x):
            return x

        def loop(fn, n):
            for i in range(n):
                fn(i)

        def empty(n):
            for i in range(n):
                pass

        probe = Tracer(self.package)
        traced_null = probe._wrap(null, "null")
        traced_loop = probe._wrap(loop, "loop")
        inner, outer = [], []
        for _ in range(repeats):
            t0 = perf_counter()
            empty(calls)
            t1 = perf_counter()
            loop(null, calls)
            t2 = perf_counter()
            probe.clear()
            traced_loop(traced_null, calls)
            spans = probe.summary()
            iteration = (t1 - t0) / calls
            plain_call = (t2 - t1) / calls - iteration
            inner.append(spans["null"]["self_s"] / calls - plain_call)
            outer.append(spans["loop"]["self_s"] / calls - iteration)
        self.overhead = (float(np.median(inner)), float(np.median(outer)))

    def _modules(self):
        prefix = self.package + "."
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == self.package
                                      or key.startswith(prefix))]

    def _wrap(self, fn, name: str):
        if name in self.names:
            raise ValueError(f"two callables share the span name {name!r}")
        name_id = len(self.names)
        self.names.append(name)
        before = self.on_call.get(name)
        after = self.on_return.get(name)
        tracer = self

        clock = perf_counter

        def traced(*args, **kwargs):
            entered = clock()
            paused = tracer._paused
            idx = len(tracer._start)
            tracer._name.append(name_id)
            tracer._parent.append(tracer._stack[-1])
            tracer._start.append(entered - paused)
            tracer._end.append(0.0)
            tracer._close.append(0)
            tracer._stack.append(idx)
            if before is not None:
                before(tracer.counts, args, kwargs)
            started = clock()
            tracer._paused = paused + (started - entered)
            try:
                result = fn(*args, **kwargs)
            finally:
                left = clock()
                tracer._end[idx] = left - tracer._paused
                tracer._stack.pop()
                tracer._close[idx] = len(tracer._start)
            if after is not None:
                after(tracer.counts, result)
            tracer._paused += clock() - left
            return result

        if inspect.isfunction(fn):
            functools.update_wrapper(traced, fn)
        return traced

    @contextmanager
    def installed(self):
        """Patch every public callable; restore all attributes on exit."""
        modules = self._modules()
        targets = [t for m in modules for t in _public_callables(m)]
        targets += self.extra
        self.names = []
        replaced = []  # (owner, attribute, original raw value)
        try:
            for owner, attr, name in targets:
                raw = vars(owner)[attr]
                fn = raw.__func__ if isinstance(
                    raw, (classmethod, staticmethod)) else raw
                wrapper = self._wrap(fn, name)
                if inspect.isclass(owner):
                    new = (type(raw)(wrapper)
                           if isinstance(raw, (classmethod, staticmethod))
                           else wrapper)
                    replaced.append((owner, attr, raw))
                    setattr(owner, attr, new)
                    continue
                # module-level function: replace every alias of it
                for module in {id(m): m for m in modules + [owner]}.values():
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            replaced.append((module, key, value))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for owner, attr, raw in reversed(replaced):
                setattr(owner, attr, raw)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Both have the calibrated wrapper cost (``overhead``) taken out.
        """
        inner, outer = self.overhead
        parents = np.asarray(self._parent, dtype=np.int64)
        starts = np.asarray(self._start, dtype=float)
        ends = np.asarray(self._end, dtype=float)
        descendants = (np.asarray(self._close, dtype=np.int64)
                       - np.arange(len(starts)) - 1)
        children = np.bincount(parents[parents >= 0], minlength=len(starts))
        selfs = self_times(parents, starts, ends) - inner - outer * children
        dur = ends - starts - inner - (inner + outer) * descendants
        names = np.asarray(self._name, dtype=np.int64)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=selfs, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Spans named child_name whose direct parent is named parent_name."""
        if parent_name not in self.names or child_name not in self.names:
            return 0
        names = np.asarray(self._name, dtype=np.int64)
        parents = np.asarray(self._parent, dtype=np.int64)
        child = names == self.names.index(child_name)
        has_parent = child & (parents >= 0)
        pid = self.names.index(parent_name)
        return int(np.count_nonzero(names[parents[has_parent]] == pid))

    def write_spans(self, filename, run_id: str) -> None:
        """One ``name,start,end,parent,run`` row per span.

        Times are on the span clock, as recorded: the calibrated wrapper
        cost is not taken out.
        """
        with open(filename, "w", encoding="ascii") as fh:
            fh.write("name,start,end,parent,run\n")
            for n, s, e, p in zip(self._name, self._start, self._end,
                                  self._parent):
                fh.write(f"{self.names[n]},{s!r},{e!r},{p},{run_id}\n")
