"""Outside-in layer tracing for the traced run (``--trace 1``).

Spans are recorded by wrappers that the benchmark installs around the
public functions and methods of each layer -- nothing inside ``src/``
is instrumented, and the wrappers exist only in the traced run.  A span
holds its name, start, end, parent span and the request (operation) id;
spans stay in memory and are written as JSON when the run ends.

A layer's *self time* is its span's duration minus the durations of its
direct child spans, so time spent in helpers that no wrapper covers
(answer extraction inside ``PreparedQuery.execute``, payload assembly
inside ``QueryService.query``) is charged to the enclosing layer and
survives refactors of those helpers.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list = []
        self.request: "int | None" = None
        self.factor = 1.0

    # --- recording -------------------------------------------------------------
    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "start": time.perf_counter_ns(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "request": self.request,
                "factor": self.factor,
            }
        )
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter_ns()
        self._stack.pop()

    def add_child(self, name: str, parent: int, duration_ms: float) -> None:
        """Record a span measured elsewhere (a server's own ``elapsed_ms``)
        inside *parent*, ending where the parent ends."""
        end = self.spans[parent]["end"]
        self.spans.append(
            {
                "name": name,
                "start": end - int(duration_ms * 1e6),
                "end": end,
                "parent": parent,
                "request": self.spans[parent]["request"],
                "factor": self.spans[parent]["factor"],
            }
        )

    # --- wrappers --------------------------------------------------------------
    def _wrapper(self, original, name, after):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` (a module function, or a plain or static
        method of a class) with a span-recording wrapper."""
        raw = vars(owner)[attr]
        if isinstance(raw, staticmethod):
            self.patch(owner, attr, staticmethod(self._wrapper(raw.__func__, name, after)))
        else:
            self.patch(owner, attr, self._wrapper(raw, name, after))

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` until :meth:`uninstall` restores it."""
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)

    # --- analysis --------------------------------------------------------------
    def aggregate(self, unstolen=lambda moment: 1.0) -> "Aggregate":
        """Normalised self and total ms per ``(root name, span name)``,
        where the root is the operation span a span ran under.  Each
        span is scaled by its own reference factor and by *unstolen* at
        the middle of its root (see :class:`clock.Clock`)."""
        child_ns = [0] * len(self.spans)
        roots = [0] * len(self.spans)
        for index, span in enumerate(self.spans):
            parent = span["parent"]
            if parent is None:
                roots[index] = index
            else:
                child_ns[parent] += span["end"] - span["start"]
                roots[index] = roots[parent]
        kept = {
            index: unstolen((span["start"] + span["end"]) / 2e9)
            for index, span in enumerate(self.spans) if span["parent"] is None
        }
        agg = Aggregate()
        for index, span in enumerate(self.spans):
            key = (self.spans[roots[index]]["name"], span["name"])
            duration = span["end"] - span["start"]
            scale = span["factor"] * kept[roots[index]] / 1e6
            agg.self_ms[key] += (duration - child_ns[index]) * scale
            agg.total_ms[key] += duration * scale
            agg.count[key] += 1
        return agg


class Aggregate:
    def __init__(self) -> None:
        self.self_ms: dict = defaultdict(float)
        self.total_ms: dict = defaultdict(float)
        self.count: dict = defaultdict(int)

    def roots(self, root: str) -> int:
        return self.count[(root, root)]

    def per_root(self, roots, name: str, total: bool = False) -> float:
        """Summed self (or total) ms of *name* under the given root
        names, divided by the number of those roots."""
        table = self.total_ms if total else self.self_ms
        n = sum(self.roots(root) for root in roots)
        return sum(table[(root, name)] for root in roots) / n if n else 0.0

    def per_span(self, name: str) -> float:
        """Mean total ms of one *name* span, wherever it ran."""
        spans = [key for key in self.count if key[1] == name]
        n = sum(self.count[key] for key in spans)
        return sum(self.total_ms[key] for key in spans) / n if n else 0.0
