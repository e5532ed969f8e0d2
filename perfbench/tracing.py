"""In-memory spans recorded around calls into relpack's public functions.

A span is ``(name, start, end, parent, request, points)``.  Wrappers pass
arguments and results through untouched, so a traced run produces the same
outputs as an untraced one.  Spans are kept in a list and written out as
JSON Lines only when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, request, points]
        self.request = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, points):
        stack = self._stack()
        # a pool worker thread starts with an empty stack; its calls belong
        # to whatever the main thread has open (run_all runs checks in turn)
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        start = time.perf_counter()
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, start, None, parent, self.request, points])
        stack.append(idx)
        return idx

    def _close(self, idx):
        end = time.perf_counter()
        self._stack().pop()
        self.spans[idx][2] = end

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name, 0)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, count_points=False):
        """``fn`` with a span around each call.

        With ``count_points`` the span records the number of points (rows)
        in the first argument.
        """

        def traced(*args, **kwargs):
            points = 0
            if count_points:
                shape = np.shape(args[0])
                points = shape[0] if shape else 1
            idx = self._open(name, points)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, points in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, "points": points,
                }) + "\n")


@contextlib.contextmanager
def patched(targets):
    """Temporarily replace module attributes: ``{(module, attr): value}``."""
    saved = {key: getattr(*key) for key in targets}
    try:
        for (module, attr), value in targets.items():
            setattr(module, attr, value)
        yield
    finally:
        for (module, attr), value in saved.items():
            setattr(module, attr, value)


def duration(span):
    return span[2] - span[1]


def self_time(spans, idx):
    """A span's duration minus the part of it its direct children cover."""
    covered, reach = 0.0, -np.inf
    for start, end in sorted(s[1:3] for s in spans if s[3] == idx):
        covered += max(0.0, end - max(start, reach))
        reach = max(reach, end)
    return duration(spans[idx]) - covered
