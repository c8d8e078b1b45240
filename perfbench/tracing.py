"""Benchmark-side tracing: wrappers around the public entry points of each layer.

Nothing under ``src/`` is edited.  In a traced run the benchmark
replaces public functions and methods with timing wrappers
(:meth:`Tracer.wrap`) and opens spans around its own calls into each
layer (:meth:`Tracer.span`).  Every span belongs to a layer named after
the repo module it times.  A layer's self time is its spans' durations
minus the time covered by their child spans; the root span's self time
is the part of the run no layer accounts for (``other``).

Untraced runs install nothing, so the end-to-end metrics are measured
on the unmodified program.
"""

import functools
import threading
import time
from collections import Counter, defaultdict

#: Every layer a span can be charged to, in report order.
LAYERS = (
    "frontend", "ir", "graph", "designspace", "pipeline", "search", "hls",
    "explorer", "model", "loop", "registry", "serve", "loadgen", "other",
)


class _Frame:
    __slots__ = ("name", "layer", "start", "child")

    def __init__(self, name, layer, start):
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0


class Tracer:
    """Collects span durations, per-layer self time and call samples."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.total_s = defaultdict(float)  # span name -> inclusive seconds
        self.samples = defaultdict(list)  # sample name -> durations (s)
        self.counts = Counter()  # free-form event counts
        self._root = None
        self._root_cover = []  # (start, end) of top-level spans off the root thread

    # -- spans ----------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, layer):
        """Open a span on this thread; close it with :meth:`end`."""
        frame = _Frame(name, layer, time.perf_counter())
        self._stack().append(frame)
        return frame

    def end(self, frame):
        """Close ``frame``; returns its duration in seconds."""
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        with self._lock:
            self.self_s[frame.layer] += duration - frame.child
            self.total_s[frame.name] += duration
            if not stack and self._root is not None and frame is not self._root:
                self._root_cover.append((frame.start, end))
        if stack:
            stack[-1].child += duration
        return duration

    def span(self, name, layer):
        """Context manager timing one call into ``layer``."""
        return _SpanContext(self, name, layer)

    def root(self):
        """The span covering one traced unit of work; its self time is ``other``."""
        return _RootContext(self)

    # -- wrappers -------------------------------------------------------------

    def wrap(self, owner, attr, name, layer, after=None):
        """Replace ``owner.attr`` with a timing wrapper (undone by :meth:`restore`).

        ``after(args, result, seconds)`` runs after each call, for
        wrappers that record samples or counts.
        """
        original = getattr(owner, "__dict__", {}).get(attr) or getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = tracer.begin(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                seconds = tracer.end(frame)
            if after is not None:
                after(args, result, seconds)
            return result

        return self.patch(owner, attr, wrapper)

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        original = getattr(owner, "__dict__", {}).get(attr) or getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))
        return original

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def sample(self, key, seconds):
        with self._lock:
            self.samples[key].append(seconds)

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def self_seconds(self):
        return {layer: self.self_s.get(layer, 0.0) for layer in LAYERS}


class _SpanContext:
    __slots__ = ("tracer", "name", "layer", "frame")

    def __init__(self, tracer, name, layer):
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self):
        self.frame = self.tracer.begin(self.name, self.layer)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.frame)
        return False


def _union_length(intervals):
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class _RootContext:
    """Root span: children on other threads count as covered time."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        tracer = self.tracer
        tracer._root_cover = []
        self.frame = tracer._root = tracer.begin("root", "other")
        self.wall = 0.0
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        frame = tracer._root
        end = time.perf_counter()
        tracer._stack().pop()
        self.wall = end - frame.start
        with tracer._lock:
            cover = [(max(lo, frame.start), min(hi, end)) for lo, hi in tracer._root_cover]
            foreign = _union_length([c for c in cover if c[1] > c[0]])
            tracer.self_s["other"] += max(self.wall - frame.child - foreign, 0.0)
            tracer.total_s["root"] += self.wall
            tracer._root = None
        return False
