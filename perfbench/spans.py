"""In-memory span recorder that wraps library functions from the outside.

Tracing works by replacing attributes: a traced run swaps the functions
that smoothstl.optimizer looks up by name (and the package-level entry
points the monitor loop calls) for wrappers that record a span per call,
then puts the originals back. Nothing inside smoothstl changes, so a
traced run must produce bit-identical results; the benchmark checks that.

A span is (name, start, end, parent, call id): parent is the index of the
enclosing span or None, and the call id numbers the closed-loop call the
span belongs to.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._call_id = -1

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self._call_id)

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap each (owner, attribute) in targets for the block's duration.

        Attributes the owner does not have are skipped: a name the library
        stops using then reports zero calls instead of failing the run.
        """
        saved = []
        try:
            for owner, attr in targets:
                if attr in vars(owner):
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def call(self, fn, *args):
        """Run one closed-loop call under a root span named "call"."""
        self._call_id += 1
        return self._wrap("call", fn)(*args)

    def self_times(self):
        """Total self time in seconds, and the span count, per span name.

        Self time is a span's duration minus the durations of its direct
        children, so nested names are not counted twice.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            self_s, calls = totals.get(name, (0.0, 0))
            totals[name] = (self_s + (end - start - inner), calls + 1)
        return totals

    def write_jsonl(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for name, start, end, parent, call_id in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "call": call_id}
                    )
                    + "\n"
                )
