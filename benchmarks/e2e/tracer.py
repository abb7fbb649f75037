"""In-memory span recorder for the end-to-end benchmark's traced runs.

Spans are recorded from the benchmark's own files: :meth:`Tracer.patch`
replaces a module or class attribute of the library with a wrapper that
times every call into it, so nothing under ``src/`` knows it is being
traced.  The current span lives in a :class:`contextvars.ContextVar`,
so asyncio tasks (one per served request) each get their own parent
chain.  Spans stay in memory and are written once, at the end, as
Chrome trace-event JSON that Perfetto and ``chrome://tracing`` open.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import time
from collections import defaultdict

#: A span with more children than this is exported with them folded.
COLLAPSE_CHILDREN = 64


class Tracer:
    def __init__(self):
        #: One dict per span: id, name, parent (span id or None),
        #: start/end (``perf_counter`` seconds) and free-form attrs.
        self.spans: list[dict] = []
        self._current = contextvars.ContextVar("e2e_span", default=None)
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._current.get(),
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        token = self._current.set(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._current.reset(token)

    def add_span(self, name: str, start: float, end: float, parent: int, **attrs):
        """Record an interval measured elsewhere (e.g. a server-side
        duration from a reply) as a child of ``parent``."""
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "start": start, "end": end, "attrs": attrs}
        self.spans.append(rec)
        return rec

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` timed as span ``name``; ``on_result(span, result)``
        runs after the span closes, so its cost is not charged to it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(rec, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` (module or class) by a traced wrapper
        until :meth:`restore`."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, on_result))
        self._patches.append((owner, attr, original))

    def patch_item(self, mapping: dict, key, value) -> None:
        """Replace ``mapping[key]`` until :meth:`restore`."""
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------
    def roots(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["parent"] is None and s["name"] == name]

    def _children(self) -> dict[int, list[dict]]:
        if getattr(self, "_kids_for", None) != len(self.spans):
            kids = defaultdict(list)
            for s in self.spans:
                if s["parent"] is not None:
                    kids[s["parent"]].append(s)
            self._kids, self._kids_for = kids, len(self.spans)
        return self._kids

    def _subtree(self, root: dict):
        children = self._children()
        stack = [root]
        while stack:
            s = stack.pop()
            kids = children.get(s["id"], [])
            yield s, kids
            stack.extend(kids)

    def self_seconds(self, root: dict) -> dict[str, float]:
        """Self time per span name over ``root``'s subtree: each span's
        duration minus the durations of its direct children."""
        totals: dict[str, float] = defaultdict(float)
        for s, kids in self._subtree(root):
            covered = sum(k["end"] - k["start"] for k in kids)
            totals[s["name"]] += (s["end"] - s["start"]) - covered
        return dict(totals)

    def descendants(self, root: dict, name: str) -> list[dict]:
        return [s for s, _ in self._subtree(root) if s is not root and s["name"] == name]

    # -- export --------------------------------------------------------------
    def _collapsed(self) -> list[dict]:
        """Closed spans, with the children of any span that has more than
        :data:`COLLAPSE_CHILDREN` of them (PB's per-bin kernel calls)
        folded into one ``per-bin loop`` span carrying call counts and
        busy seconds per name."""
        children = self._children()
        out, stack = [], [s for s in self.spans if s["parent"] is None]
        while stack:
            s = stack.pop()
            if s["end"] is None:
                continue
            out.append(s)
            kids = children.get(s["id"], [])
            if len(kids) <= COLLAPSE_CHILDREN:
                stack.extend(kids)
                continue
            calls: dict[str, dict] = {}
            for k in kids:
                c = calls.setdefault(k["name"], {"calls": 0, "busy_s": 0.0})
                c["calls"] += 1
                c["busy_s"] += k["end"] - k["start"]
            out.append({"id": -1, "name": "per-bin loop", "parent": s["id"],
                        "start": min(k["start"] for k in kids),
                        "end": max(k["end"] for k in kids), "attrs": calls})
        return out

    def write_chrome(self, path: str, process_name: str, other: dict) -> None:
        """Write the spans as Chrome ``X`` events (see :meth:`_collapsed`).

        Root spans that overlap in time (concurrent served requests) are
        dealt onto separate lanes (``tid``) so each lane nests properly;
        children inherit their root's lane.
        """
        closed = self._collapsed()
        base = min((s["start"] for s in closed), default=0.0)
        lane_of: dict[int, int] = {}  # root span id -> lane
        lane_end: list[float] = []
        for s in sorted((s for s in closed if s["parent"] is None),
                        key=lambda s: s["start"]):
            lane = next((i for i, end in enumerate(lane_end) if end <= s["start"]),
                        len(lane_end))
            if lane == len(lane_end):
                lane_end.append(s["end"])
            lane_end[lane] = s["end"]
            lane_of[s["id"]] = lane

        def lane_for(s):
            while s["parent"] is not None:
                s = self.spans[s["parent"]]
            return lane_of[s["id"]]

        events = [{"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": process_name}}]
        for lane in range(len(lane_end)):
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": lane, "args": {"name": f"lane {lane}"}})
        for s in closed:
            events.append({
                "name": s["name"],
                "cat": s["name"].split(".")[0],
                "ph": "X",
                "ts": (s["start"] - base) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "pid": 1,
                "tid": lane_for(s),
                "args": s["attrs"],
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": other}, fh)
