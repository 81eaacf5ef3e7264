"""In-memory span recorder for the traced run.

A span is ``(name, start, end, parent, request)``: ``parent`` is the
index of the enclosing span on the same thread (``-1`` at the root) and
``request`` an optional request id shared by the spans of one request.
Spans stay in memory until :meth:`Spans.dump` writes them out at exit.

Spans are recorded only around calls into the program's public
functions, from the benchmark's own code: :meth:`Spans.wrap` replaces a
bound method on one object with a timing wrapper, so the program itself
is unchanged.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

Record = Tuple[str, float, float, int, Optional[int]]


class Spans:
    """Thread-safe span store; every recorded interval nests per thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.records: List[Record] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request: Optional[int] = None) -> int:
        """Open a span on this thread; returns its index."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.records)
            self.records.append((name, time.perf_counter(), 0.0, parent,
                                 request))
        stack.append(index)
        return index

    def end(self, index: int) -> float:
        """Close span ``index`` (the innermost open one); returns its end."""
        now = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(f"span {index} is not the innermost open span")
        stack.pop()
        with self._lock:
            name, start, _, parent, request = self.records[index]
            self.records[index] = (name, start, now, parent, request)
        return now

    def record(self, name: str, start: float, end: float,
               request: Optional[int] = None) -> None:
        """Add an interval timed elsewhere (e.g. across threads) as a
        root span."""
        with self._lock:
            self.records.append((name, start, end, -1, request))

    def wrap(self, obj, attr: str, name: str) -> None:
        """Time every call of ``obj.attr`` as a span called ``name``."""
        inner = getattr(obj, attr)

        @functools.wraps(inner)
        def timed(*args, **kwargs):
            index = self.begin(name)
            try:
                return inner(*args, **kwargs)
            finally:
                self.end(index)

        setattr(obj, attr, timed)

    def durations(self, name: str,
                  parent: Optional[str] = None) -> List[float]:
        """Durations in seconds of every closed span called ``name``
        (only those directly under a span called ``parent``, if given)."""
        with self._lock:
            records = list(self.records)
        return [end - start for n, start, end, up, _ in records
                if n == name and end
                and (parent is None or (up >= 0 and records[up][0] == parent))]

    def mean_ms(self, name: str, parent: Optional[str] = None) -> float:
        """Mean duration in ms of :meth:`durations` (0 if none)."""
        values = self.durations(name, parent)
        return 1e3 * sum(values) / len(values) if values else 0.0

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, in seconds.

        A span's self time is its duration minus the part of it that its
        child spans cover (children are merged first, so overlapping
        children are not subtracted twice).
        """
        with self._lock:
            records = list(self.records)
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _, start, end, parent, _ in records:
            if end and parent >= 0:
                children[parent].append((start, end))
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(records):
            if not end:
                continue
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            totals[name] += (end - start) - covered
        return dict(totals)

    def dump(self, path) -> None:
        """Write every span as JSON (times in seconds, relative to the
        first span's start)."""
        with self._lock:
            records = list(self.records)
        origin = min((r[1] for r in records), default=0.0)
        payload = [
            {"name": name, "start": start - origin,
             "end": (end - origin) if end else None,
             "parent": parent, "request": request}
            for name, start, end, parent, request in records
        ]
        with open(path, "w") as handle:
            json.dump({"spans": payload}, handle)
