"""Spans and counts taken around rffseg's public functions.

The benchmark wraps functions of the program's modules from its own
files; the program itself is not edited.  Spans stay in memory as
``[id, name, start, end, parent]`` and are written out when the run
ends.  A span's self time is its duration minus the time its direct
child spans cover.  Reference-kernel slices (``bench.ref``) run inside
some spans; they are subtracted from every enclosing span's duration.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

REF_SPAN = "bench.ref"


class Patches:
    """Replaced attributes, restored in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder with counters kept at the same boundaries."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = [None]
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append([sid, name, start, end, parent])

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def traced(self, name: str, counter=None):
        """Wrapper factory for :meth:`Patches.wrap`: one span per call.

        ``counter(tracer, args)`` runs at the same boundary, before the
        call, to record work counts taken from the arguments.
        """
        def make(original):
            def call(*args, **kwargs):
                if counter is not None:
                    counter(self, args)
                with self.span(name):
                    return original(*args, **kwargs)
            return call
        return make

    def summary(self, begin: float, end: float) -> dict:
        """Per span name: calls, net durations and total self time.

        Only spans that start within ``[begin, end)`` are reported.  Spans
        are appended as they end, so every child precedes its parent and
        one pass settles each span's children.
        """
        child_time = {}
        ref_time = {}
        out = {}
        for sid, name, start, stop, parent in self.spans:
            dur = stop - start
            inner_ref = ref_time.pop(sid, 0.0)
            self_s = dur - child_time.pop(sid, 0.0)
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + dur
                ref_time[parent] = ref_time.get(parent, 0.0) + (
                    dur if name == REF_SPAN else inner_ref)
            if not begin <= start < end:
                continue
            entry = out.setdefault(name, {"calls": 0, "net": [], "self_s": 0.0})
            entry["calls"] += 1
            entry["net"].append(dur - inner_ref)
            entry["self_s"] += self_s
        return out

    def dump(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans, "counts": self.counts, **extra}, fh)
            fh.write("\n")
