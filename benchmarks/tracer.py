"""In-memory span recorder that wraps mmicap's module-level functions.

The wrappers are installed from the benchmark's own code, at every place a
function is bound in a loaded ``mmicap`` module (its defining module and each
module that imported it by name), so calls made through either name are
recorded.  No file of the program changes; ``uninstall`` puts the original
functions back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    index: int


@dataclass
class Tracer:
    """Spans (name, start, end, parent) plus counters, kept in memory."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    op: int | None = None
    _stack: list[int] = field(default_factory=list)
    _installed: list[tuple[object, str, object]] = field(default_factory=list)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open on the current stack."""
        return any(self.spans[i].name == name for i in self._stack)

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op, index))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order (top was {popped})")

    def wrap(self, module, attr: str, span: str | None, on_call=None,
             on_result=None) -> None:
        """Wrap ``module.attr`` wherever mmicap binds that function object.

        ``span`` names the recorded span (None records no span, only the
        hooks); ``on_call(tracer, args, kwargs)`` and
        ``on_result(tracer, result)`` add counts at the same boundary.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            index = self.begin(span) if span is not None else None
            try:
                result = original(*args, **kwargs)
            finally:
                if index is not None:
                    self.end(index)
            if on_result is not None:
                on_result(self, result)
            return result

        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "mmicap" or name.startswith("mmicap.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)
                    self._installed.append((loaded, key, original))

    def uninstall(self) -> None:
        for loaded, key, original in reversed(self._installed):
            setattr(loaded, key, original)
        self._installed.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        Busy time counts only the outermost span of a name, so a recursive or
        nested call is not counted twice.  Self time is the span's duration
        minus the time its direct children cover.
        """
        spans = self.spans
        child_time: dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        by_index = {s.index: s for s in spans}
        out: dict[str, dict[str, float]] = {}
        for s in spans:
            entry = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            duration = s.end - s.start
            entry["self_s"] += duration - child_time.get(s.index, 0.0)
            if not _has_ancestor_named(s, by_index, s.name):
                entry["busy_s"] += duration
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.index, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "op": s.op}))
                fh.write("\n")


def _has_ancestor_named(span: Span, by_index: dict[int, Span], name: str) -> bool:
    parent = span.parent
    while parent is not None:
        ancestor = by_index.get(parent)
        if ancestor is None:
            return False
        if ancestor.name == name:
            return True
        parent = ancestor.parent
    return False
