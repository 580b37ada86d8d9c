"""Call-boundary tracing of the program's modules, installed from outside.

The tracer replaces module attributes with timing wrappers and restores them
afterwards; the program's source is untouched. A function imported by name
into another module (cli and engine import mat2 and qgate functions that way)
is bound there as a separate attribute, so every module attribute that holds
the original function object is rebound.

Self time is measured on a call stack: a call's self time is its duration
minus the durations of the wrapped calls made inside it. Functions marked
as spans also record (id, name, start, end, parent span, job); functions
called once per protocol run or per term are aggregated into counts and
times only, which keeps memory and overhead bounded.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class _Frame:
    name: str
    span_ref: int | None   # nearest enclosing span id (own id for spans)
    start: int = 0
    child_ns: int = 0


class Tracer:
    """In-memory tracer with per-function counts, total and self times."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.spans: list[dict] = []
        self.job: str | None = None
        self._stack: list[_Frame] = []
        self._next_span = 0
        self._bindings: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, span: bool = True, hook=None):
        """Timing wrapper around fn.

        hook(args, kwargs, result, total_ns, self_ns) runs after each call
        that returns; it feeds counters taken from arguments and results.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(name, span, hook, fn, args, kwargs)

        return wrapper

    def _call(self, name, span, hook, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        parent_ref = parent.span_ref if parent else None
        span_id = None
        if span:
            span_id = self._next_span
            self._next_span += 1
        frame = _Frame(name, span_id if span else parent_ref)
        self._stack.append(frame)
        frame.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            total = end - frame.start
            self.calls[name] += 1
            self.total_ns[name] += total
            self.self_ns[name] += total - frame.child_ns
            if parent is not None:
                parent.child_ns += total
            if span:
                self.spans.append({"id": span_id, "name": name, "start_ns": frame.start,
                                   "end_ns": end, "parent": parent_ref, "job": self.job})
        if hook is not None:
            hook(args, kwargs, result, total, total - frame.child_ns)
        return result

    def install(self, targets, modules):
        """Wrap each (name, owner, attr, span, hook) target.

        The wrapper replaces owner.attr and every attribute of the given
        modules that is bound to the same function object.
        """
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        for name, owner, attr, span, hook in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, span, hook)
            homes = [(owner, attr)]
            for module in modules:
                homes += [(module, key) for key, value in vars(module).items()
                          if value is original and (module, key) != (owner, attr)]
            for home, key in homes:
                self._bindings.append((home, key, original))
                setattr(home, key, wrapper)

    def uninstall(self):
        for home, key, original in reversed(self._bindings):
            setattr(home, key, original)
        self._bindings = []


def program_modules(package: str = "qrewind") -> list:
    """The package and its submodules, as imported so far."""
    return [mod for key, mod in sorted(sys.modules.items())
            if key == package or key.startswith(package + ".")]
