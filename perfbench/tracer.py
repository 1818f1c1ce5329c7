"""Span tracing of entlink's public functions, from outside the program.

`Tracer.install` replaces each traced function at its module or class
attribute, and at every other entlink module attribute bound to the same
object, so calls made through `from .x import f` names are traced too.
`uninstall` restores the originals. Spans nest on one stack; the self time of
a span is its duration minus the time its child spans cover. Spans are
aggregated per name as they close, so a million calls cost no memory; the
individual spans of the coarse (non-leaf) functions are also kept, up to a
cap, and written out as JSON lines when the benchmark ends.

Only the thread that installed the tracer is traced; calls from other threads
run the original function untimed.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

_now = time.perf_counter


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class Target:
    """One function to trace: `owner.attr`, reported under `name`.

    `after(counters, args, kwargs, result)` runs after the span closes, to
    count work at the same boundary. `keep_durations` keeps every duration
    (for percentiles); `leaf` marks hot functions whose individual spans are
    not logged.
    """

    owner: Any
    attr: str
    name: str
    after: Callable | None = None
    keep_durations: bool = False
    leaf: bool = False


@dataclass
class Tracer:
    max_logged_spans: int = 50_000
    stats: dict[str, SpanStats] = field(default_factory=dict)
    edges: Counter = field(default_factory=Counter)      # (parent, child) -> seconds
    counters: Counter = field(default_factory=Counter)
    durations: dict[str, list[float]] = field(default_factory=dict)
    spans: list[tuple] = field(default_factory=list)     # (id, parent id, name, start, end)
    dropped_spans: int = 0
    _stack: list[list] = field(default_factory=list)     # [name, child seconds, logged span id]
    _patches: list[tuple] = field(default_factory=list)
    _thread: threading.Thread | None = None
    _next_id: int = 0

    def reset(self) -> None:
        """Forget everything recorded so far (patches stay installed)."""
        self.stats.clear()
        self.edges.clear()
        self.counters.clear()
        self.durations.clear()
        self.spans.clear()
        self.dropped_spans = 0

    # -- span bookkeeping ---------------------------------------------------------

    def _enter(self, name: str, leaf: bool) -> list:
        frame = [name, 0.0, None]
        if not leaf:
            if len(self.spans) < self.max_logged_spans:
                frame[2] = self._next_id
                self._next_id += 1
            else:
                self.dropped_spans += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float, keep: bool) -> None:
        stack = self._stack
        stack.pop()
        name, child, span_id = frame
        duration = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.total += duration
        st.self_time += duration - child
        parent = None
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
        self.edges[(parent, name)] += duration
        if keep:
            self.durations.setdefault(name, []).append(duration)
        if span_id is not None:
            parent_id = next((f[2] for f in reversed(stack) if f[2] is not None), None)
            self.spans.append((span_id, parent_id, name, start, end))

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        name, after, keep, leaf = target.name, target.after, target.keep_durations, target.leaf

        if inspect.isgeneratorfunction(fn):
            # Time each resumption of the generator as one span.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if threading.current_thread() is not self._thread:
                        yield from it
                        return
                    frame = self._enter(name, leaf)
                    start = _now()
                    try:
                        item = next(it)
                    except StopIteration:
                        self._exit(frame, start, _now(), keep)
                        return
                    except BaseException:
                        self._exit(frame, start, _now(), keep)
                        raise
                    self._exit(frame, start, _now(), keep)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.current_thread() is not self._thread:
                return fn(*args, **kwargs)
            frame = self._enter(name, leaf)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, start, _now(), keep)
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        return wrapper

    # -- patching -------------------------------------------------------------------

    def install(self, targets: list[Target], package: str = "entlink") -> list[str]:
        """Patch every target that exists; return the names of those that do
        not (their metrics then read zero)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._thread = threading.current_thread()
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        missing = []
        for target in targets:
            if not hasattr(target.owner, target.attr):
                missing.append(target.name)
                continue
            raw = inspect.getattr_static(target.owner, target.attr)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            self._patch(target.owner, target.attr, raw, wrapped)
            if inspect.ismodule(target.owner):
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is raw and not (module is target.owner and attr == target.attr):
                            self._patch(module, attr, raw, wrapped)
        return missing

    def _patch(self, owner: Any, attr: str, original: Any, wrapped: Any) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._thread = None

    # -- output ---------------------------------------------------------------------

    def total(self, name: str) -> float:
        st = self.stats.get(name)
        return st.total if st else 0.0

    def self_time(self, name: str) -> float:
        st = self.stats.get(name)
        return st.self_time if st else 0.0

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st.calls if st else 0

    def total_outside(self, name: str, parent: str) -> float:
        """Total time of `name` spans whose parent span is not `parent`."""
        return sum(t for (p, n), t in self.edges.items() if n == name and p != parent)

    def write(self, path: str) -> None:
        """Write the aggregate per name, then every logged span, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, st in sorted(self.stats.items()):
                fh.write(json.dumps({"name": name, "calls": st.calls, "total_s": st.total,
                                     "self_s": st.self_time}) + "\n")
            if self.dropped_spans:
                fh.write(json.dumps({"dropped_spans": self.dropped_spans}) + "\n")
            for span_id, parent_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent_id, "name": name,
                                     "start": start, "end": end}) + "\n")
