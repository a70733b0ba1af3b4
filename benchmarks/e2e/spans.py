"""The benchmark's own span recorder.

Spans are recorded from *outside* the program: the traced run wraps
the public functions at each layer boundary (see ``layers.PATCHES``)
and this module keeps ``(name, start, end, parent id, request id,
count)`` rows in memory until the run ends.  Spans inside the program
-- and inside its worker processes -- are a later change.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager


class Recorder:
    """In-memory spans; one open-span stack per thread."""

    def __init__(self) -> None:
        #: rows ``[name, start_s, end_s, parent_id, request_id, count]``;
        #: a span's id is its index; a row is only written by the thread
        #: that opened it.
        self.rows: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id: int | None) -> None:
        self._local.request = request_id

    def open(self, name: str) -> list:
        """Start a span; pair with :meth:`close` in a ``finally``."""
        stack = self._stack()
        row = [
            name,
            0.0,
            None,
            stack[-1] if stack else None,
            getattr(self._local, "request", None),
            None,
        ]
        with self._lock:
            stack.append(len(self.rows))
            self.rows.append(row)
        row[1] = time.perf_counter()
        return row

    def close(self, row: list) -> None:
        row[2] = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str):
        row = self.open(name)
        try:
            yield row
        finally:
            self.close(row)

    def wrap(self, fn, name: str, outermost_only: bool = False, count=None):
        """``fn`` recorded as span ``name``.

        ``outermost_only`` skips recursive re-entries (``CostModel.cost``
        calls itself per subtree); ``count`` maps the return value to a
        work count stored on the span (plans enumerated, rows out).
        """
        local = self._local
        depth_key = f"depth:{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost_only:
                if getattr(local, depth_key, False):
                    return fn(*args, **kwargs)
                setattr(local, depth_key, True)
            row = self.open(name)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    row[5] = count(out)
                return out
            finally:
                self.close(row)
                if outermost_only:
                    setattr(local, depth_key, False)

        return traced

    def dump(self, path, **meta) -> None:
        keys = ("name", "start", "end", "parent", "request", "count")
        spans = [dict(zip(keys, row), id=i) for i, row in enumerate(self.rows)]
        path.write_text(json.dumps({**meta, "spans": spans}) + "\n")


def self_times(rows: list[list]) -> list[float]:
    """Per span: its duration minus the part its children cover.

    Children are clipped to the parent's interval and overlapping
    children (concurrent ones) are merged, so covered time is never
    subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for row in rows:
        if row[3] is not None and row[2] is not None:
            children.setdefault(row[3], []).append((row[1], row[2]))
    out = []
    for span_id, row in enumerate(rows):
        start, end = row[1], row[2]
        if end is None:
            out.append(0.0)
            continue
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


class Patches:
    """Span wrappers on module attributes, installed for a ``with`` block.

    ``table`` rows are ``(module, attribute, span name, wrap options)``;
    a dotted attribute walks through classes (``CostModel.cost``) and
    module-level dicts (``_EXECUTORS.vector``).  A target that no
    longer resolves (a module retired, a function renamed) is recorded
    in ``missing`` with the reason and skipped: the traced run loses
    that span, not the run.
    """

    def __init__(self, recorder: Recorder, table) -> None:
        self.recorder = recorder
        self.table = table
        self.missing: dict[str, str] = {}
        self._undo: list = []

    def __enter__(self) -> "Patches":
        for module, attr, name, options in self.table:
            try:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner[leaf] if isinstance(owner, dict) else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError) as exc:
                self.missing[f"{module}:{attr}"] = f"{type(exc).__name__}: {exc}"
                continue
            self._set(owner, leaf, self.recorder.wrap(original, name, **options))
            self._undo.append((owner, leaf, original))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            self._set(*self._undo.pop())

    @staticmethod
    def _set(owner, leaf: str, value) -> None:
        if isinstance(owner, dict):
            owner[leaf] = value
        else:
            setattr(owner, leaf, value)
