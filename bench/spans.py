"""Spans and per-name counters for the traced benchmark run.

The tracer wraps the package's public functions from outside.  Each
wrapped call becomes a span (name, start, end, parent span, unit id);
self time is the span's duration minus the time of the spans it caused.
Most of the wrapper's own cost is charged to neither the span nor its
parent: a parent counts a child from the moment the child's wrapper is
entered until it returns, so the parent's self time excludes it, and the
child's own clock starts only right before the wrapped call.

The package imports names with ``from .x import y``, so a function is
wrapped in every module that looks it up (``harness.run_session`` and
``adversary.run_session`` are two wrappers around one function, both
recorded as ``protocol.run_session``).  Methods are wrapped on their
class.  ``restore`` puts every original object back.
"""

from __future__ import annotations

import time
from collections import defaultdict

perf_counter = time.perf_counter

# Spans kept in memory.  A montecarlo or exact pass makes millions of
# wrapped calls; storing them all would take hundreds of MB.
SPAN_CAP = 100_000


class Tracer:
    """Span recorder with per-name call counts and self time.

    The first SPAN_CAP spans are kept; later spans still feed the
    counters but are not stored, and ``dropped`` says how many.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.extra: dict[str, float] = defaultdict(float)
        self.spans: list = []
        self.dropped = 0
        self.unit = -1
        self._child = [0.0]  # time of finished children, per open span
        self._open = [-1]  # stored index of each open span, -1 if not stored
        self._undo: list = []

    def _id(self, name: str) -> int:
        k = self._ids.get(name)
        if k is None:
            k = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return k

    def wrap(self, name: str, fn, after=None, before=None):
        """A traced stand-in for fn.

        ``before(args, kwargs)`` runs ahead of the call and its result is
        handed to ``after(args, kwargs, outcome, self_s, token)``, where
        outcome is the return value or the exception raised.  Neither
        hook's time is charged to any span.
        """
        k = self._id(name)
        calls, self_s = self.calls, self.self_s
        child, open_, spans = self._child, self._open, self.spans
        tracer = self

        def traced(*args, **kwargs):
            enter = perf_counter()
            token = before(args, kwargs) if before is not None else None
            parent = open_[-1]
            idx = len(spans)
            if idx < SPAN_CAP:
                spans.append(None)
            else:
                idx = -1
            open_.append(idx)
            child.append(0.0)
            outcome = None
            t0 = perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as exc:
                outcome = exc
                raise
            finally:
                t1 = perf_counter()
                own = (t1 - t0) - child.pop()
                open_.pop()
                calls[k] += 1
                self_s[k] += own
                if idx >= 0:
                    spans[idx] = (k, t0, t1, parent, tracer.unit)
                else:
                    tracer.dropped += 1
                if after is not None:
                    after(args, kwargs, outcome, own, token)
                child[-1] += perf_counter() - enter

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, after=None, before=None) -> None:
        """Replace owner.attr (a module global or a class attribute)."""
        own = vars(owner)
        present = attr in own
        raw = own.get(attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, after, before))
        else:
            new = self.wrap(name, getattr(owner, attr), after, before)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, present, raw))

    def restore(self) -> bool:
        """Undo every patch; True when each original is back in place."""
        intact = True
        while self._undo:
            owner, attr, present, raw = self._undo.pop()
            if present:
                setattr(owner, attr, raw)
                intact = intact and vars(owner).get(attr) is raw
            else:
                delattr(owner, attr)
                intact = intact and attr not in vars(owner)
        return intact

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds)."""
        return {n: (self.calls[k], self.self_s[k]) for k, n in enumerate(self.names)}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\tunit\n")
            base = min((s[1] for s in self.spans if s is not None), default=0.0)
            for s in self.spans:
                if s is None:
                    continue
                k, t0, t1, parent, unit = s
                fh.write(f"{self.names[k]}\t{t0 - base:.9f}\t{t1 - base:.9f}\t{parent}\t{unit}\n")
