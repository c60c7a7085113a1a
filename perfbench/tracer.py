"""Span tracer that attributes time to library functions from outside them.

A traced function is replaced, at the place its caller looks it up, by a
wrapper that records a span (name, start, end, parent span, operation)
and puts the original back when the tracer is closed. Nothing in the
library changes. Spans and counts stay in memory until the run writes
them out once, at its end.

An *operation* is the benchmark's unit of work (one forecast, one
training window, one scored window, one loaded file). Every span and
count carries the operation that was open when it started, so per-layer
figures can be normalised per operation and split by phase.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    """Spans, counts and operations of one traced segment."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One record per span: [name id, start, end, parent index, op index].
        self.spans: list[list] = []
        # One record per operation: [phase, start, end].
        self.ops: list[list] = []
        self.counts: dict[tuple, float] = {}
        self.current_op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- operations -------------------------------------------------------

    def begin_op(self, phase: str) -> None:
        """Close the open operation, if any, and open a new one."""
        self.end_op()
        self.current_op = len(self.ops)
        self.ops.append([phase, self.clock(), None])

    def end_op(self) -> None:
        if self.current_op is not None:
            self.ops[self.current_op][2] = self.clock()
            self.current_op = None

    def count(self, name: str, n: float = 1) -> None:
        key = (name, self.current_op)
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrapping ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, owner, attr: str, name: str, counter=None, on_enter=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span ``name``.

        Each call also counts ``<name>.calls``, and ``<name>.raised`` when
        it raises. ``counter(result, *args, **kwargs)`` may return more
        counts for a call that returned; ``on_enter()`` runs before the
        span opens.
        """
        original = getattr(owner, attr)
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, self.clock
        calls, raised = name + ".calls", name + ".raised"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.current_op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.count(raised)
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                self.count(calls)
            if counter is not None:
                for key, n in counter(result, *args, **kwargs).items():
                    self.count(key, n)
            return result

        self._patch(owner, attr, original, wrapper)

    def wrap_count(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts its calls.

        For functions called thousands of times per operation, where a
        span would cost more than the call it measures.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.count(name)
            return original(*args, **kwargs)

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped function back, newest wrapper first."""
        self.end_op()
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def op_ids(self, phases) -> set:
        return {i for i, (phase, _, _) in enumerate(self.ops) if phase in phases}

    def self_seconds(self, ops: set) -> dict:
        """Span name -> summed self time of its spans inside ``ops``."""
        out: dict[str, float] = {}
        for rec, own in zip(self.spans, self.self_times()):
            if rec[4] in ops:
                name = self.names[rec[0]]
                out[name] = out.get(name, 0.0) + own
        return out

    def total_seconds(self, ops: set) -> dict:
        """Span name -> summed duration (children included) inside ``ops``."""
        out: dict[str, float] = {}
        for nid, start, end, _, op in self.spans:
            if op in ops:
                name = self.names[nid]
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def counted(self, ops: set) -> dict:
        """Count name -> summed count inside ``ops``."""
        out: dict[str, float] = {}
        for (name, op), n in self.counts.items():
            if op in ops:
                out[name] = out.get(name, 0) + n
        return out

    def unattributed_share(self, ops: set) -> float:
        """Share of the operations' wall time that no span covers."""
        wall = sum(self.ops[i][2] - self.ops[i][1] for i in ops)
        covered = sum(end - start for _, start, end, parent, op in self.spans
                      if op in ops and (parent < 0 or self.spans[parent][4] != op))
        return (wall - covered) / wall if wall > 0 else 0.0

    def dump(self, path) -> None:
        """Write every span, operation and count as one JSON document."""
        counts: dict[str, dict] = {}
        for (name, op), n in self.counts.items():
            counts.setdefault(name, {})[str(op)] = n
        doc = {"names": self.names, "spans": self.spans, "ops": self.ops,
               "counts": counts}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
