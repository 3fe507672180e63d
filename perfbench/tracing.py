"""In-memory span and counter tracing for the benchmark.

The tracer wraps module attributes of ``cycbrauer`` from the outside: every
binding of a traced function in the given packages (including the names
bound by ``from .x import y`` in other modules, those the benchmark's own
modules import, and aliases such as ``__rmul__ = __mul__`` in a class) is
replaced by a wrapper for the duration of a ``with tracer.installed():``
block and restored afterwards.  Nothing inside the library is edited.

Three wrapper kinds:

* span: count, inclusive seconds, self seconds, and one span record
  (id, name, start, end, parent id, op id) kept in memory;
* timer: count, inclusive and self seconds but no span record (for hot
  leaves called ~10^5 times per op, e.g. ``multiply_diagrams``);
* counter: count only (scalar and polynomial arithmetic).

A span or timer name may be a function of the call's arguments, e.g. to
split ``decide`` by variant.

A recursive call of a span or timer to itself is passed straight through,
so inclusive time is counted once.  Self time is inclusive time minus the
time spent in traced callees (spans and timers).
"""

from __future__ import annotations

import contextlib
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self, packages):
        self.packages = packages  # top-level names of the modules patched
        self.spans = []
        self.counts = Counter()
        self.seconds = Counter()
        self.self_seconds = Counter()
        self.op = None  # identifier shared by every span of one op
        self._stack = []  # open frames: [child seconds, span id]
        self._open = set()
        self._targets = []

    # -- registration ------------------------------------------------------

    def span(self, owner, attr, name, after=None):
        self._targets.append((owner, attr, name, "span", after))

    def timer(self, owner, attr, name, after=None):
        self._targets.append((owner, attr, name, "timer", after))

    def counter(self, owner, attr, name, after=None):
        self._targets.append((owner, attr, name, "counter", after))

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name, kind, after):
        tracer = self
        if kind == "counter":
            def counted(*args, **kwargs):
                tracer.counts[name + "_calls"] += 1
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, kwargs, result)
                return result
            return counted

        record = kind == "span"
        name_of = name if callable(name) else (lambda args, kwargs: name)

        def timed(*args, **kwargs):
            key = name_of(args, kwargs)
            if key in tracer._open:
                return fn(*args, **kwargs)
            tracer._open.add(key)
            stack = tracer._stack
            sid = None
            if record:
                sid = len(tracer.spans)
                tracer.spans.append(None)
            parent = stack[-1][1] if stack else None
            frame = [0.0, sid if record else parent]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._open.discard(key)
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                tracer.counts[key + "_calls"] += 1
                tracer.seconds[key] += dur
                tracer.self_seconds[key] += dur - frame[0]
                if record:
                    tracer.spans[sid] = (sid, key, start, end, parent,
                                         tracer.op)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result
        return timed

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every registered target; restore on exit."""
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key.split(".")[0] in self.packages]
        patched = []
        try:
            for owner, attr, name, kind, after in self._targets:
                orig = owner.__dict__[attr]
                wrapper = self._wrap(orig, name, kind, after)
                holders = [owner] if isinstance(owner, type) else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            setattr(holder, key, wrapper)
                            patched.append((holder, key, orig))
            yield self
        finally:
            for holder, key, orig in reversed(patched):
                setattr(holder, key, orig)

    def span_records(self):
        return [s for s in self.spans if s is not None]
