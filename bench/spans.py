"""Span tracing of consensus_lab's public functions, done from outside the package.

`Tracer.wrap` replaces a module attribute with a wrapper that records a span
(name, layer, thread, parent, start, end) for every call; `Tracer.restore`
puts the originals back. Wrap the name the caller looks up: `from x import f`
binds `f` in the importing module, so that module's attribute is the one to
replace.

A leaf wrapper (`leaf=True`) is for hot functions called once per integrator
step. It records no span of its own: it adds its call count and duration to
the innermost open span of its thread, so a million calls cost no memory.

`attribute` turns spans into self times that add up to wall time even when
spans run on several threads at once (see its docstring).
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Optional

clock = time.perf_counter


@dataclass
class Span:
    name: str
    layer: str
    tid: int
    parent: int  # index into Tracer.spans, -1 for a root
    t0: float
    t1: Optional[float] = None
    ok: bool = True
    label: str = ""
    leaf_s: float = 0.0  # time inside leaf calls made directly from this span
    leaf_calls: int = 0
    leaf_first_s: float = 0.0  # of which first calls per (object, key)
    leaf_first_calls: int = 0
    info: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stacks: dict[int, list[int]] = {}
        self._main_tid = threading.get_ident()
        self._lock = threading.Lock()
        self._patched = []

    def _open(self, name, layer, label=""):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                # a pool worker's first span belongs to whatever the main
                # thread is blocked in, e.g. run_experiment waiting on map()
                main = self._stacks.get(self._main_tid) or [-1]
                parent = main[-1] if tid != self._main_tid else -1
            sid = len(self.spans)
            self.spans.append(Span(name, layer, tid, parent, clock(), label=label))
            stack.append(sid)
        return sid

    def _close(self, sid, ok=True):
        t1 = clock()
        span = self.spans[sid]
        span.t1 = t1
        span.ok = ok
        self._stacks[span.tid].pop()
        return span

    @contextlib.contextmanager
    def span(self, name, layer):
        """Record one span around the benchmark's own code."""
        sid = self._open(name, layer)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(sid, ok)

    def wrap(self, module, attr, layer, label=None, inspect=None):
        """Record a span per call of module.attr.

        label(args) names the case (e.g. direction and n);
        inspect(span, args, result) fills span.info after the call.
        """
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name, layer, label(args) if label else "")
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, ok=False)
                raise
            span = self._close(sid)
            if inspect is not None:
                inspect(span, args, result)
            return result

        self._patch(module, attr, fn, traced)

    def wrap_leaf(self, module, attr, first_key):
        """Count calls of module.attr and their time into the caller's span.

        first_key(args) returns (obj, key); the first call per live obj and
        key is also timed on its own, because it fills lazy caches.
        """
        fn = getattr(module, attr)
        stacks = self._stacks
        spans = self.spans
        get_ident = threading.get_ident
        seen = {}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t = clock()
            result = fn(*args, **kwargs)
            d = clock() - t
            stack = stacks.get(get_ident())
            if not stack:  # not inside any traced call; nothing to add to
                return result
            span = spans[stack[-1]]
            span.leaf_s += d
            span.leaf_calls += 1
            obj, key = first_key(args)
            ref = seen.get((id(obj), key))
            if ref is None or ref() is not obj:
                seen[(id(obj), key)] = weakref.ref(obj)
                span.leaf_first_s += d
                span.leaf_first_calls += 1
            return result

        self._patch(module, attr, fn, traced)

    def _patch(self, module, attr, original, replacement):
        self._patched.append((module, attr, original))
        setattr(module, attr, replacement)

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def attribute(spans):
    """Wall-clock self time of every span; the values sum to the roots' time.

    Time is swept in order. At each instant every thread's innermost open
    span is working, unless it waits for an open child on another thread
    (the main thread blocked in a pool's map). Each instant is shared
    equally between the working spans, so two threads that interleave on
    the interpreter lock split the wall time instead of both claiming it.
    """
    depth = []
    for s in spans:
        p = s.parent
        depth.append(depth[p] + 1 if p >= 0 and spans[p].tid == s.tid else 0)
    cross = [s.parent >= 0 and spans[s.parent].tid != s.tid for s in spans]
    events = []
    for i, s in enumerate(spans):
        events.append((s.t0, 1, i))
        events.append((s.t1, 0, i))
    events.sort()

    attributed = [0.0] * len(spans)
    open_by_thread = defaultdict(set)
    open_cross_children = Counter()
    last = None
    for t, starts, i in events:
        if last is not None and t > last:
            working = []
            for opened in open_by_thread.values():
                if opened:
                    top = max(opened, key=depth.__getitem__)
                    if not open_cross_children[top]:
                        working.append(top)
            for w in working:
                attributed[w] += (t - last) / len(working)
        last = t
        s = spans[i]
        if starts:
            open_by_thread[s.tid].add(i)
        else:
            open_by_thread[s.tid].discard(i)
        if cross[i]:
            open_cross_children[s.parent] += 1 if starts else -1
    return attributed


def ancestors(spans, i):
    """Names of the spans enclosing span i, innermost first."""
    names = []
    p = spans[i].parent
    while p >= 0:
        names.append(spans[p].name)
        p = spans[p].parent
    return names
