"""Span recording from outside the program, for the traced run.

The benchmark never edits ``src/``: it replaces public functions of
each layer's module with thin wrappers that time every call (or every
``next()`` of a returned generator) as a *span*.  Spans nest per
thread, so a span's *self time* is its duration minus the time its
wrapped children cover.

A wrapped call made in a forked child process (the process
executor's pool workers inherit the wrappers) records into a fresh
per-process table, which the child rewrites to ``<dump_dir>/
spans-<pid>.json`` after each of its top-level spans, together with
the deltas of its ``repro.obs`` registry counters.  Pool workers are
terminated, not shut down, so a dump per top-level span is the only
point at which their numbers are certain to be on disk.

All timestamps come from ``time.perf_counter`` (``CLOCK_MONOTONIC``
on Linux), so spans of different processes share one time axis.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

clock = time.perf_counter


class SpanRecorder:
    """Per-process span table, keyed by span name: counts, self
    seconds, and the duration of every span."""

    def __init__(self, dump_dir: Optional[Path] = None) -> None:
        self.dump_dir = dump_dir
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []
        self._reset(os.getpid())
        #: Span names whose start times are kept (``starts`` in the table).
        self.keep_starts: set = set()

    def _reset(self, pid: int) -> None:
        self.pid = pid
        self._local = threading.local()
        self.count: Dict[str, int] = {}
        self.self_time: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {}
        self.starts: Dict[str, List[float]] = {}
        #: (start, end) of every span with no wrapped parent.
        self.top: List[Tuple[float, float]] = []
        #: Benchmark-computed counts (e.g. bootstrap draws).
        self.tallies: Dict[str, float] = {}
        self.counters_base: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------

    def _stack(self) -> List[float]:
        if os.getpid() != self.pid:
            self._adopt_child()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopt_child(self) -> None:
        """First span in a forked child: start an empty table."""
        self._lock = threading.Lock()
        self._reset(os.getpid())
        self.counters_base = _registry_counters()

    def begin(self) -> float:
        self._stack().append(0.0)
        return clock()

    def end(self, name: str, start: float) -> None:
        end = clock()
        duration = end - start
        stack = self._stack()
        children = stack.pop()
        with self._lock:
            self.count[name] = self.count.get(name, 0) + 1
            self.self_time[name] = (
                self.self_time.get(name, 0.0) + duration - children
            )
            self.durations.setdefault(name, []).append(duration)
            if name in self.keep_starts:
                self.starts.setdefault(name, []).append(start)
            if not stack:
                self.top.append((start, end))
        if stack:
            stack[-1] += duration
        elif self.counters_base is not None and self.dump_dir is not None:
            self.dump(self.dump_dir / f"spans-{self.pid}.json")

    def tally(self, name: str, amount: float) -> None:
        with self._lock:
            self.tallies[name] = self.tallies.get(name, 0) + amount

    def iterate(self, iterable: Iterable, name: str) -> Iterator:
        """Yield from ``iterable``, timing each ``next()`` as a span."""
        iterator = iter(iterable)
        while True:
            start = self.begin()
            try:
                item = next(iterator)
            except StopIteration:
                self.end(name, start)
                return
            except BaseException:
                self.end(name, start)
                raise
            self.end(name, start)
            yield item

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        generator: bool = False,
        wrap_args: Optional[Callable[[tuple, dict], Tuple[tuple, dict]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``generator``: the callable returns an iterator, and each of
        its ``next()`` calls is the span (the call itself is free).
        ``wrap_args``: rewrites the arguments first (used to time the
        record stream an aggregation consumes as its own span).
        """
        # A class attribute is read raw, so a method is not bound here.
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self

        if generator:
            @functools.wraps(raw)
            def wrapper(*args, **kwargs):
                return recorder.iterate(raw(*args, **kwargs), name)
        else:
            @functools.wraps(raw)
            def wrapper(*args, **kwargs):
                if wrap_args is not None:
                    args, kwargs = wrap_args(args, kwargs)
                start = recorder.begin()
                try:
                    return raw(*args, **kwargs)
                finally:
                    recorder.end(name, start)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def table(self) -> dict:
        with self._lock:
            return {
                "pid": self.pid,
                "count": dict(self.count),
                "self": dict(self.self_time),
                "durations": {k: list(v) for k, v in self.durations.items()},
                "starts": {k: list(v) for k, v in self.starts.items()},
                "top": list(self.top),
                "tallies": dict(self.tallies),
                "counters": _counter_deltas(self.counters_base),
            }

    def dump(self, path: Path) -> None:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.table()), encoding="utf-8")
        os.replace(tmp, path)


def _registry_counters() -> Dict[str, float]:
    """The process registry's numeric instruments (counters, gauges)."""
    from repro.obs import get_registry

    return {
        name: value
        for name, value in get_registry().snapshot().items()
        if isinstance(value, (int, float))
    }


def _counter_deltas(base: Optional[Dict[str, float]]) -> Dict[str, float]:
    if base is None:
        return {}
    now = _registry_counters()
    return {name: now[name] - base.get(name, 0) for name in now}


def merge_tables(tables: Iterable[dict]) -> dict:
    """Sum span tables (e.g. every pool worker's) into one."""
    merged: dict = {
        "count": {}, "self": {}, "durations": {}, "starts": {},
        "top": [],
        "tallies": {}, "counters": {},
    }
    for table in tables:
        for key in ("count", "self", "tallies", "counters"):
            for name, value in table[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for key in ("durations", "starts"):
            for name, values in table[key].items():
                merged[key].setdefault(name, []).extend(values)
        merged["top"].extend(table["top"])
    return merged


def load_tables(directory: Path) -> List[dict]:
    """Every table the pool workers dumped into ``directory``."""
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(directory.glob("spans-*.json"))
    ]


def covered_seconds(
    intervals: Iterable[Tuple[float, float]],
    windows: Iterable[Tuple[float, float]],
) -> float:
    """Length of the union of ``intervals`` inside the ``windows``."""
    merged: List[List[float]] = []
    for start, end in sorted(tuple(item) for item in intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    covered = 0.0
    for w_start, w_end in windows:
        for start, end in merged:
            if end <= w_start:
                continue
            if start >= w_end:
                break
            covered += min(end, w_end) - max(start, w_start)
    return covered
