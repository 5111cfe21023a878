"""In-memory spans around the library's public functions.

A :class:`Tracer` replaces chosen functions of the ``fanobott`` modules by
wrappers for the length of a ``with tracer.patched():`` block, and restores
them afterwards; the library itself is not modified.  The benchmark opens a
root span around each operation it times, and a wrapper records a span only
while some span is open, so calls made while checking results stay out of
the trace.

Each span has a name (``module.function``), a start, an end, the span that
called it, and the operation it belongs to.  Raw spans are kept up to
``RAW_LIMIT``; beyond that only per (name, parent name) aggregates grow.
Self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

RAW_LIMIT = 100_000


class Tracer:
    """Spans, per-name aggregates and boundary counters of one traced run."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.raw: list[tuple[int, int, int, str, float, float]] = []
        self.dropped = 0
        # (name, parent name) -> [calls, inclusive seconds, self seconds]
        self.aggregate: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = {}
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._next_id = 0
        self._op = -1

    def _enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, self.clock(), 0.0])

    def _exit(self) -> None:
        end = self.clock()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        key = (name, parent[1] if parent else "")
        entry = self.aggregate.get(key)
        if entry is None:
            entry = self.aggregate[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if len(self.raw) < RAW_LIMIT:
            self.raw.append((span_id, parent[0] if parent else 0, self._op,
                             name, start, end))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Root span of one benchmark operation; nested calls attach to it."""
        if not self._stack:
            self._op += 1
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, fn: Callable, name: str,
             on_result: Callable[["Tracer", object], None] | None = None) -> Callable:
        """fn with a span per call, and per yielded item for a generator."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not self._stack:
                        yield from it
                        return
                    self._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    self.counts[name + ".items"] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".failed"] += 1
                raise
            finally:
                self._exit()
            if on_result is not None:
                on_result(self, result)
            return result
        return wrapper

    @contextmanager
    def patched(self, modules: list, targets: dict[Callable, Callable | None]
                ) -> Iterator[None]:
        """Swap every binding of each target function in the given modules.

        targets maps an original function to an optional result hook.  A
        module that imported a function by name holds its own binding, so
        each module is searched, and every binding is restored on exit.
        """
        wrappers = {
            fn: self.wrap(fn, f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}", hook)
            for fn, hook in targets.items()
        }
        saved = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        try:
            yield
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)

    def busy_s(self, name: str) -> float:
        """Inclusive seconds in spans of this name, outermost calls only."""
        return sum(v[1] for (n, parent), v in self.aggregate.items()
                   if n == name and parent != name)

    def self_s(self, name: str) -> float:
        return sum(v[2] for (n, _), v in self.aggregate.items() if n == name)

    def calls(self, name: str) -> int:
        return sum(v[0] for (n, _), v in self.aggregate.items() if n == name)

    def write(self, path: Path, header: dict) -> None:
        """Write header, raw spans and aggregates as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = header | {
            "run_id": self.run_id,
            "span_fields": ["id", "parent", "op", "name", "start", "end"],
            "spans": self.raw,
            "spans_dropped": self.dropped,
            "aggregate": [
                {"name": n, "parent": p, "calls": v[0], "total_s": v[1], "self_s": v[2]}
                for (n, p), v in sorted(self.aggregate.items())
            ],
            "counts": dict(sorted(self.counts.items())),
        }
        path.write_text(json.dumps(doc))
