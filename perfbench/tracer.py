"""In-memory span recorder for the traced benchmark run.

Spans are recorded by replacing a function with a wrapper at the place
where its caller looks it up (e.g. ``mismatchlab.scheduler.measure``),
so the program itself carries no tracing code. Each span stores its
name, start, end and parent; self time is the span's duration minus the
time covered by its direct children. The recorder is single-threaded,
like the workloads it traces.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

NAME, START, END, PARENT, ROWS, COUNTS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str, rows=None, counts=None) -> bool:
        """Replace ``module.attr`` with a span-recording wrapper.

        ``rows(args)`` gives the batch size the call handles, and
        ``counts(result)`` a dict of counters read from its return value.
        Returns False, wrapping nothing, when the module has no ``attr``.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return False
        spans, stack, clock = self.spans, self._stack, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, rows(args) if rows else 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if counts is not None:
                rec[COUNTS] = counts(out)
            return out

        setattr(module, attr, traced)
        return True

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, rows, total and self seconds, summed counters."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0, "counts": defaultdict(float)}
        )
        for i, rec in enumerate(self.spans):
            agg = out[rec[NAME]]
            dur = rec[END] - rec[START]
            agg["calls"] += 1
            agg["rows"] += rec[ROWS]
            agg["total_s"] += dur
            agg["self_s"] += dur - child_time[i]
            for key, value in (rec[COUNTS] or {}).items():
                agg["counts"][key] += value
        return {name: {**agg, "counts": dict(agg["counts"])} for name, agg in out.items()}

    def top_level_after(self, t: float) -> float:
        """Seconds covered by parentless spans that start at or after ``t``."""
        return sum(r[END] - r[START] for r in self.spans if r[PARENT] < 0 and r[START] >= t)
