"""Span recorder and function patcher, with no knowledge of the traced program.

A span is one call of a wrapped function:

    {"id": int, "parent": int | None, "trace": int, "name": str,
     "start": float, "end": float, ...}

`start` and `end` come from `time.perf_counter`.  `parent` is the id of the
innermost wrapped call that was running when this one started, so spans form
one tree per top-level call, and `trace` is the id of that tree's root.  A
wrapper may add a `key` (an identity for the call's arguments) and counts
taken from the return value; those are computed after `end` is stamped, and
a hook that raises leaves `hook_error` in the span instead.

The recorder keeps spans in memory and writes them out only on request.  It
keeps one call stack, so it supports one thread.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class SpanRecorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, key=None, counts=None):
        """Return fn wrapped so that each call records a span called `name`.

        key(args, kwargs) -> str labels the call; counts(args, kwargs,
        result) -> dict adds counts taken from the call's arguments and
        return value.
        """
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            span = {
                "id": span_id,
                "parent": stack[-1] if stack else None,
                "trace": stack[0] if stack else span_id,
                "name": name,
                "start": clock(),
                "end": None,
            }
            spans.append(span)
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span["end"] = clock()
            # a hook that no longer fits the traced code must not change
            # what the traced call returns; the span records why it failed
            try:
                if key is not None:
                    span["key"] = key(args, kwargs)
                if counts is not None:
                    span.update(counts(args, kwargs, result))
            except Exception as exc:  # noqa: BLE001
                span["hook_error"] = f"{type(exc).__name__}: {exc}"
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """setattr(owner, attr, replacement), remembering the original."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans}, f)
            f.write("\n")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    durations of its direct children (calls nest, so children never
    overlap one another)."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
    return dict(out)
