"""In-memory span tracer installed from outside the program.

Spans are opened and closed by wrappers that :meth:`Tracer.wrap_method`
and :meth:`Tracer.wrap_function` put around public methods and
functions of ``repro``; nothing inside ``src/`` knows it is traced.
Each span records its name, start, end, parent span and request id.
The benchmark serves one request at a time, so a span opened on a
helper thread (the shard fan-out pool) joins the request whose root
thread is waiting on it: its parent is that thread's innermost span.

A span's *self time* is its duration minus the part of its interval
that its children cover (children on pool threads may overlap each
other, so coverage is an interval union, not a sum). Time inside a
request root that no layer span covers is *unattributed*.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Name of the span the benchmark opens around every request.
ROOT = "request"
#: A traced pass stops once it has recorded this many spans, which
#: bounds its memory.
MAX_SPANS = 400_000


def covered(lo: float, hi: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Per-span duration minus the union of its children's intervals."""
    children: List[List[int]] = [[] for _ in starts]
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    return [
        (ends[i] - starts[i])
        - covered(starts[i], ends[i], ((starts[c], ends[c]) for c in children[i]))
        for i in range(len(starts))
    ]


def layer_of(name: str) -> str:
    """``"engine.count_many"`` -> ``"engine"``; the root has no layer."""
    return "" if name == ROOT else name.split(".", 1)[0]


class Tracer:
    """Collects spans and counters while :attr:`enabled` is set."""

    def __init__(self):
        self.enabled = False
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.requests: List[int] = []
        self.counters: Counter = Counter()
        #: Objects hooks saw, keyed by a label, each with a snapshot taken
        #: at first sight (e.g. a planner's counters before the pass).
        self.seen: Dict[str, Dict[int, Tuple[object, object]]] = {}
        #: Per-request observations a workload drains after each request.
        self.notes: Dict[str, List[object]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._request = -1
        self._root_stack: Optional[List[int]] = None
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    @property
    def full(self) -> bool:
        """True once the span budget is spent (the pass should stop)."""
        return len(self.names) >= MAX_SPANS

    @property
    def in_request(self) -> bool:
        """True between a request root's open and close."""
        return self._request >= 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._root_stack:
            parent = self._root_stack[-1]  # helper thread joins the request
        else:
            parent = -1
        started = time.perf_counter()
        with self._lock:
            index = len(self.names)
            self.names.append(name)
            self.starts.append(started)
            self.ends.append(started)
            self.parents.append(parent)
            self.requests.append(self._request)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def request(self, request_id: int):
        """Open the root span of one request on the calling thread."""
        self._request = request_id
        index = self.open(ROOT)
        self._root_stack = self._stack()
        try:
            yield
        finally:
            self.close(index)
            self._root_stack = None
            self._request = -1

    @contextmanager
    def paused(self):
        """Run a block untraced (e.g. a replay the benchmark measures)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def remember(self, label: str, obj: object, snapshot: Callable[[object], object]) -> None:
        """Keep ``snapshot(obj)`` the first time a hook sees ``obj``."""
        bucket = self.seen.setdefault(label, {})
        if id(obj) not in bucket:
            bucket[id(obj)] = (obj, snapshot(obj))

    # -- installing wrappers ------------------------------------------------

    def _traced(self, original, name, before=None, after=None):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        return traced

    def wrap_method(self, cls, attr: str, name: str, before=None, after=None) -> None:
        """Trace ``cls.attr`` when the class itself defines it."""
        original = cls.__dict__.get(attr)
        if original is None or not callable(original):
            return
        setattr(cls, attr, self._traced(original, name, before, after))
        self._patches.append((cls, attr, original))

    def wrap_function(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Trace a module-level function under every module name bound
        to it (``from x import f`` copies the binding)."""
        original = getattr(module, attr)
        traced = self._traced(original, name, before, after)
        for mod in list(sys.modules.values()):
            if mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        self.enabled = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def analyze(self) -> Dict[str, object]:
        """Per-name and per-layer totals over the recorded requests.

        Spans outside any request (set-up builds) are excluded; their
        hooks still fed :attr:`counters` and :attr:`seen`.
        """
        selfs = self_times(self.starts, self.ends, self.parents)
        by_name: Dict[str, Dict[str, float]] = {}
        by_layer: Counter = Counter()
        request_time = 0.0
        unattributed = 0.0
        requests = set()
        for i, name in enumerate(self.names):
            if self.requests[i] < 0:
                continue
            duration = self.ends[i] - self.starts[i]
            entry = by_name.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += selfs[i]
            if name == ROOT:
                requests.add(self.requests[i])
                request_time += duration
                unattributed += selfs[i]
            else:
                by_layer[layer_of(name)] += selfs[i]
        return {
            "requests": len(requests),
            "request_s": request_time,
            "unattributed_s": unattributed,
            "by_name": by_name,
            "by_layer": dict(by_layer),
            "self": selfs,
        }

    def write(self, path) -> None:
        """Dump every span as tab-separated text (written once, at the end)."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart\tend\tparent\trequest\n")
            for i, name in enumerate(self.names):
                out.write(
                    f"{i}\t{name}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}"
                    f"\t{self.parents[i]}\t{self.requests[i]}\n"
                )
