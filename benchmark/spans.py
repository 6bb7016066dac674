"""Span tracing of moldsched from outside the package.

The tracer replaces module attributes with wrappers at the place where each
caller looks the name up (``driver.classify_jobs``, ``mckp.gamma``,
``cli.solve``, ...), so the program's code is untouched.  Spans are kept in
memory as (name, start, end, parent, request) and written out by the caller
when the run ends; counters are plain integers bumped by the wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from typing import Callable, Optional

from moldsched import cli, driver, gen, mckp, shelf

# (module, attribute looked up by the caller, span name)
SPANNED = [
    (gen, "generate", "gen.generate"),
    (cli, "main", "cli.main"),
    (cli, "instance_from_obj", "cli.instance_from_obj"),
    (cli, "validate_instance", "model.validate_instance"),
    (cli, "solve", "driver.solve"),
    (cli, "schedule_to_obj", "cli.schedule_to_obj"),
    (driver, "solve", "driver.solve"),
    (driver, "classify_jobs", "model.classify_jobs"),
    (driver, "validate_schedule", "verify.validate_schedule"),
    (mckp, "build_items", "mckp.build_items"),
    (mckp, "solve_mckp", "mckp.solve_mckp"),
    (shelf, "build_three_shelf", "shelf.build_three_shelf"),
    (shelf, "apply_transformations", "shelf.apply_transformations"),
    (shelf, "repair_s2_small_q", "shelf.repair_s2_small_q"),
    (shelf, "repair_s2_large_q", "shelf.repair_s2_large_q"),
    (shelf, "add_small_jobs", "shelf.add_small_jobs"),
]

# (module, attribute, counter name): counted only, too hot for a span each
COUNTED = [
    (driver, "_attempt", "driver.guesses"),
    (mckp, "gamma", "model.gamma_calls"),
    (shelf, "gamma", "model.gamma_calls"),
]


class Tracer:
    """In-memory spans and counters for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []
        self.counts: Counter = Counter()
        self.request: Optional[int] = None
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, t0, t1, parent, self.request)

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.counts[name] += 1
            if name == "mckp.solve_mckp":
                items, m = args[0], args[1]
                self.counts["mckp.items"] += len(items)
                self.counts["mckp.dp_cells"] += len(items) * (2 * m + 1)
            return self.call(name, fn, args, kwargs)

        return wrapped

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        try:
            for module, attr, name in SPANNED:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._span_wrapper(name, fn))
            for module, attr, name in COUNTED:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._count_wrapper(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> list[tuple[str, float, float, Optional[int]]]:
        """(name, start, self seconds, request) per span: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [
            (name, t0, (t1 - t0) - child[i], req)
            for i, (name, t0, t1, _, req) in enumerate(self.spans)
        ]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, req) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": t0, "end": t1,
                         "parent": parent, "request": req}
                    )
                    + "\n"
                )
