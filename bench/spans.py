"""Spans recorded from outside around calls into gmspike.

A :class:`Tracer` replaces a public function with a wrapper that records one
span per call: its name, start, end and the span that was open when it was
called (its parent).  Spans stay in memory, in flat arrays so that the
hundreds of thousands of per-point calls of a dense grid cost little, and
are written once, when the op is over.  A layer's self time is a span's
duration minus the time its direct children cover; calls are sequential
within one process, so the children never overlap.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter

_FIELDS = ("name", "parent", "start_ns", "end_ns")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        # Work counts that observers add at the same boundaries as the spans.
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, observe=None):
        """Return ``fn`` wrapped to record a span; ``observe(result, args)``
        runs after a call that returned, to count the work in its result."""
        nid = self._name_id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` (a module function or a method) by a traced wrapper."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, observe))

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total and self nanoseconds, and how many of
        its spans were opened directly under each other span name."""
        n = len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                covered[parent] += durations[i]
        out: dict[str, dict] = {
            name: {"calls": 0, "total_ns": 0, "self_ns": 0, "under": Counter()}
            for name in self.names
        }
        for i in range(n):
            entry = out[self.names[self.name_ids[i]]]
            entry["calls"] += 1
            entry["total_ns"] += durations[i]
            entry["self_ns"] += durations[i] - covered[i]
            parent = self.parents[i]
            entry["under"][self.names[self.name_ids[parent]] if parent >= 0 else ""] += 1
        return out

    def write(self, path: str) -> None:
        """Write a one-line JSON header, then the four int64 columns."""
        header = {"names": self.names, "fields": list(_FIELDS), "count": len(self.starts)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(fh)


def load(path: str) -> list[tuple[str, int, int, int]]:
    """Read a file written by :meth:`Tracer.write` as (name, parent, start_ns, end_ns)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        columns = []
        for _ in _FIELDS:
            column = array("q")
            column.fromfile(fh, n)
            columns.append(column)
    names = header["names"]
    return [
        (names[columns[0][i]], columns[1][i], columns[2][i], columns[3][i])
        for i in range(n)
    ]
