"""In-memory span recorder that wraps functions from outside the library.

A span is (name, start, end, parent) plus whether it raised.  Spans are appended to flat
arrays while the traced code runs and are only reduced to per-name figures
afterwards, so the work done inside a wrapper is two clock reads and a few
appends.  Calls are strictly nested (one thread), so a span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names = []  # span name id -> name
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("i")  # indices of spans that raised
        self.counters = {}
        self._stack = [-1]
        self._patched = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, hook=None):
        """Return fn wrapped in a span called name.

        hook(tracer, args, result, exc) runs after the call, outside the
        span, to record counts at the same boundary.
        """
        nid = self.name_id(name)
        names, parents, ends = self.name.append, self.parent.append, self.end
        starts, raised, stack, clock = self.start.append, self.raised, self._stack, self.clock
        push, pop = stack.append, stack.pop

        def traced(*args, **kwargs):
            idx = len(ends)
            names(nid)
            parents(stack[-1])
            ends.append(0.0)
            push(idx)
            starts(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                pop()
                raised.append(idx)
                if hook is not None:
                    hook(self, args, None, exc)
                raise
            ends[idx] = clock()
            pop()
            if hook is not None:
                hook(self, args, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers at the attributes callers look up ------------

    def patch_function(self, package, fn, name, hook=None):
        """Replace fn in every loaded module of package that binds it."""
        wrapper = self.wrap(name, fn, hook)
        hits = 0
        prefix = package + "."
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, fn))
                    hits += 1
        if hits == 0:
            raise LookupError(f"{fn!r} is bound in no module of {package}")

    def patch_method(self, cls, attr, name, hook=None):
        fn = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, fn, hook))
        self._patched.append((cls, attr, fn))

    def restore(self):
        """Put every original back, newest patch first."""
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    # -- reduction --------------------------------------------------------

    def summary(self, first=0):
        """{name: {"calls", "self_s", "raised"}} over spans recorded from
        index first on."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(first, n):
            p = self.parent[i]
            if p >= first:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "self_s": 0.0, "raised": 0} for name in self.names}
        for i in range(first, n):
            rec = out[self.names[self.name[i]]]
            rec["calls"] += 1
            rec["self_s"] += self.end[i] - self.start[i] - child[i]
        for i in self.raised:
            if i >= first:
                out[self.names[self.name[i]]]["raised"] += 1
        return out

    def count_under(self, name, ancestor, first=0):
        """Spans called name that have a span called ancestor above them."""
        nid, aid = self._ids.get(name), self._ids.get(ancestor)
        n = len(self.name)
        under = bytearray(n)
        hits = 0
        for i in range(first, n):
            p = self.parent[i]
            if p >= first and (under[p] or self.name[p] == aid):
                under[i] = 1
                if self.name[i] == nid:
                    hits += 1
        return hits

