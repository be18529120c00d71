"""Outside-in span tracing of the brownian_lstm package.

The tracer wraps public functions at the module attributes their
callers look up at call time (for example `brownian_lstm.training.
sequence_forward`, which `train` and `evaluate` call), records one span
per call, and restores the originals afterwards.  Nothing in the
package changes: a wrapper passes its arguments and result through
untouched, so a traced run draws the same noise and computes the same
numbers as an untraced one.

Spans live in memory as parallel arrays (name, tag, start, end,
parent).  Work the tracer does for itself after a call (counting
negative inputs, sizing a returned trace) is recorded as a
`trace.bookkeeping` span, so it is subtracted from the caller's self
time like any other child.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

BOOKKEEPING = "trace.bookkeeping"


def self_times(starts, ends, parents) -> list[float]:
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover (overlapping children counted
    once, children clipped to the parent).  parents[i] is the index of
    span i's parent, or -1 for a root."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(starts)):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for j in sorted(children.get(i, ()), key=lambda k: starts[k]):
            a, b = max(starts[j], lo), min(ends[j], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


class Tracer:
    """Span recorder plus the counters the wrappers fill in."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._ids: dict[str, int] = {}
        self._text: list[str] = []
        self.reset()

    def reset(self) -> None:
        """Drop all spans and counters (start of a new traced round)."""
        self.name_ids = array("i")
        self.tag_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.lists: dict[str, list] = defaultdict(list)

    def _id(self, text: str) -> int:
        ident = self._ids.get(text)
        if ident is None:
            ident = self._ids[text] = len(self._text)
            self._text.append(text)
        return ident

    def open(self, name: str, tag: str = "") -> int:
        idx = len(self.starts)
        self.name_ids.append(self._id(name))
        self.tag_ids.append(self._id(tag))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def set_tag(self, idx: int, tag: str) -> None:
        self.tag_ids[idx] = self._id(tag)

    @contextmanager
    def span(self, name: str, tag: str = ""):
        idx = self.open(name, tag)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, after=None):
        """fn wrapped in a span; after(tracer, span, args, kwargs, result)
        runs in a bookkeeping span once fn has returned."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                with tracer.span(BOOKKEEPING):
                    after(tracer, idx, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, patches):
        """Patch (owner, attribute, span name, after) entries for the
        duration of the block; owner is a module or a class."""
        saved = []
        try:
            for owner, attr, name, after in patches:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name and per (name, tag): calls, inclusive and self
        seconds, and inclusive seconds of children by child name."""
        selfs = self_times(self.starts, self.ends, self.parents)
        text = self._text
        by_name: dict[str, dict] = {}
        by_tag: dict[str, dict] = {}
        for i, own in enumerate(selfs):
            name = text[self.name_ids[i]]
            tag = text[self.tag_ids[i]]
            incl = self.ends[i] - self.starts[i]
            keys = [(by_name, name)]
            if tag:
                keys.append((by_tag, f"{name}[{tag}]"))
            for table, key in keys:
                row = table.setdefault(
                    key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                          "children_s": defaultdict(float)})
                row["calls"] += 1
                row["incl_s"] += incl
                row["self_s"] += own
            p = self.parents[i]
            if p >= 0:
                # A parent opens before its children, so its rows exist.
                pname = text[self.name_ids[p]]
                by_name[pname]["children_s"][name] += incl
                ptag = text[self.tag_ids[p]]
                if ptag:
                    by_tag[f"{pname}[{ptag}]"]["children_s"][name] += incl
        return {"by_name": by_name, "by_tag": by_tag}
