"""Spans around the benchmark's calls into the program, kept in memory.

The untraced run uses ``NullTracer``, which calls straight through.  The
traced run uses ``Tracer``, which records one span per call: its name,
start, end, parent span and operation id.  Every operation is a root span
named ``op.<kind>``; each public call it makes is a child span.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, OP = range(5)


class NullTracer:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op id]
        self._stack: list[int] = []
        self._op_id = None

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self._op_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][END] = perf_counter()

    @contextmanager
    def op(self, op_id: int, kind: str):
        self._op_id = op_id
        idx = self._open("op." + kind)
        try:
            yield
        finally:
            self._close(idx)
            self._op_id = None

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self time in seconds).

    A span's self time is its duration minus the time its child spans
    cover; spans of one thread nest, so children never overlap.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    out: dict[str, tuple[int, float]] = {}
    for i, s in enumerate(spans):
        calls, total = out.get(s[NAME], (0, 0.0))
        out[s[NAME]] = (calls + 1, total + (s[END] - s[START]) - child[i])
    return out
