"""Timing wrappers installed on icroute from outside the package.

`Tracer.span`, `Tracer.aggregate` and `Tracer.leaf` replace a module or
class attribute with a wrapper that times each call; `close` puts every
original back.  All three feed per-(phase, name) call statistics, where
the phase is the outermost open call (for example `build_topology` or
`run_experiment`).  Span calls are also kept one by one, with their
parent span, for the trace file.  A leaf must not call other wrapped
functions; in exchange its wrapper skips the call stack, which matters
for callbacks made millions of times per run.

Self time is a call's duration minus the time of the wrapped calls made
inside it.  The wrapper's own cost is charged to the child, not to the
parent: each wrapped call also removes `call_cost`, the measured extra
cost of calling through a wrapper, from its parent's self time.
"""

from __future__ import annotations

import time

CALIBRATION_CALLS = 20000


class Tracer:
    def __init__(self):
        self.calls: dict[tuple[str, str], list] = {}  # -> [count, total_s, self_s]
        self.spans: list[dict] = []  # finished spans, in order of ending
        self.context: dict = {}  # copied into each span as it opens
        self._stack: list[list] = []  # open calls: [child_s, name, span_id]
        self._patched: list[tuple] = []
        self._next_id = 0
        self.call_cost = 0.0
        self.call_cost = self._calibrate()

    def span(self, owner, attr: str, name: str | None = None):
        self._patch(owner, attr, self._wrap(getattr(owner, attr), name or attr,
                                            keep=True, observe=None))

    def aggregate(self, owner, attr: str, name: str | None = None, observe=None):
        """Wrap without keeping each call; `observe(args, result)` runs after
        each call, outside its timed interval."""
        self._patch(owner, attr, self._wrap(getattr(owner, attr), name or attr,
                                            keep=False, observe=observe))

    def leaf(self, owner, attr: str, name: str | None = None, observe=None):
        """Like `aggregate`, for a function that calls nothing wrapped."""
        self._patch(owner, attr, self._wrap_leaf(getattr(owner, attr),
                                                 name or attr, observe))

    def close(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def total(self, name: str, phase: str | None = None) -> float:
        return sum(v[1] for (p, n), v in self.calls.items()
                   if n == name and phase in (None, p))

    def self_time(self, name: str, phase: str | None = None) -> float:
        return sum(v[2] for (p, n), v in self.calls.items()
                   if n == name and phase in (None, p))

    def count(self, name: str, phase: str | None = None) -> int:
        return sum(v[0] for (p, n), v in self.calls.items()
                   if n == name and phase in (None, p))

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _entry(self, name):
        key = (self._stack[0][1] if self._stack else name, name)
        entry = self.calls.get(key)
        if entry is None:
            entry = self.calls[key] = [0, 0.0, 0.0]
        return entry

    def _wrap(self, fn, name, keep, observe):
        stack = self._stack
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            enter = clock()
            entry = self._entry(name)
            span = self._open_span(name) if keep else None
            frame = [0.0, name, span and span["id"]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                entry[0] += 1
                entry[1] += end - start
                entry[2] += end - start - frame[0]
                if span is not None:
                    span.update(start=start, end=end,
                                self_s=end - start - frame[0])
                    self.spans.append(span)
            if observe is not None:
                observe(args, result)
            if stack:
                stack[-1][0] += clock() - enter + self.call_cost
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _wrap_leaf(self, fn, name, observe):
        stack = self._stack
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            took = clock() - start
            entry = self._entry(name)
            entry[0] += 1
            entry[1] += took
            entry[2] += took
            if observe is not None:
                observe(args, result)
            if stack:
                stack[-1][0] += clock() - start + self.call_cost
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _open_span(self, name):
        parent = next((f[2] for f in reversed(self._stack) if f[2] is not None),
                      None)
        self._next_id += 1
        return {"id": self._next_id, "parent": parent, "name": name,
                **self.context}

    def _calibrate(self) -> float:
        """Seconds a call through a leaf wrapper adds to its caller's self
        time beyond a direct call, measured on a no-op method."""

        class Probe:
            def noop(self, slot):
                return None

        probe = Probe()
        clock = time.perf_counter
        start = clock()
        for i in range(CALIBRATION_CALLS):
            probe.noop(i)
        direct = clock() - start
        Probe.noop = self._wrap_leaf(Probe.noop, "calibrate", None)
        frame = [0.0, "calibrate", None]
        self._stack.append(frame)
        start = clock()
        for i in range(CALIBRATION_CALLS):
            probe.noop(i)
        wrapped = clock() - start
        self._stack.pop()
        self.calls.clear()
        return max(0.0, (wrapped - frame[0] - direct) / CALIBRATION_CALLS)
