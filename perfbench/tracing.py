"""In-memory spans and counters for the traced benchmark pass.

Spans are recorded from the benchmark side only: :meth:`Tracer.wrap`
replaces a public name in a sphcover module namespace with a timing
wrapper, so every call a layer makes through that name becomes a span.
Nothing inside ``src/`` is instrumented.  The double description engine's
ray counts come from its existing per-insertion DEBUG record.
"""

from __future__ import annotations

import functools
import logging
from contextlib import contextmanager


class Tracer:
    """Spans ``[name, start, end, parent index, op id]``, timed on ``clock``,
    and integer counters."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self.counters = {}
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name: str):
        record = [name, self.clock(), None,
                  self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = self.clock()
            self._stack.pop()

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Time every call through ``module.attr`` as span ``name``;
        ``after(tracer, args, result)`` records counters from the call."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        setattr(module, attr, traced)

    def totals(self) -> tuple:
        """Total and self seconds per span name.  Self time is a span's
        duration minus the durations of its direct children."""
        total, child = {}, [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            if parent is not None:
                child[parent] += end - start
        own = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            own[name] = own.get(name, 0.0) + (end - start - inner)
        return total, own


class RayCounter(logging.Handler):
    """Counts the engine's per-insertion DEBUG records
    (``inserted %d/%d halfspaces, %d rays``) made while the innermost span
    is ``polytope.enumerate``: cutting insertions, the ray sum and the peak
    ray count."""

    def __init__(self, tracer: Tracer):
        super().__init__(logging.DEBUG)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if self.tracer.innermost() != "polytope.enumerate":
            return
        rays = record.args[2]
        self.tracer.count("polytope.cut_insertions")
        self.tracer.count("polytope.rays_sum", rays)
        self.tracer.peak("polytope.max_rays", rays)

    @contextmanager
    def attached(self, logger_name: str):
        """Route the logger's DEBUG records here and nowhere else."""
        logger = logging.getLogger(logger_name)
        saved = logger.level, logger.propagate
        logger.addHandler(self)
        logger.setLevel(logging.DEBUG)
        logger.propagate = False
        try:
            yield
        finally:
            logger.removeHandler(self)
            logger.setLevel(saved[0])
            logger.propagate = saved[1]
