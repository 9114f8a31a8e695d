"""In-memory span recorder that wraps callables where their callers look them up.

A span is ``(id, parent, group, name, start_ns, end_ns)``. ``parent`` is
the span that was open when the call began (0 at top level); ``group`` is
the id of the innermost enclosing span opened with ``unit=True``, so every
span of one trial, episode or step shares it. Spans stay in memory until
``write`` is called. ``restore`` puts every wrapped name back exactly as
it was.
"""
from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterator

PACKAGE = "handover"
Hook = Callable[[Counter, tuple, dict, Any], None]


@dataclass
class SpanStats:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    durations_ns: list[int] = field(default_factory=list)

    def p50_ms(self) -> float:
        return statistics.median(self.durations_ns) / 1e6 if self.durations_ns else 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, int]] = []
        self._last_id = 0
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(self, fn: Callable, name: str, hook: Hook | None = None, unit: bool = False) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._last_id += 1
            span_id = self._last_id
            parent, group = stack[-1] if stack else (0, 0)
            if unit:
                group = span_id
            stack.append((span_id, group))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((span_id, parent, group, name, start, end))
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def patch_function(self, fn: Callable, name: str, hook: Hook | None = None, unit: bool = False) -> None:
        """Replace ``fn`` in every module of the package that binds it."""
        wrapped = self.wrap(fn, name, hook, unit)
        found = False
        for mod_name, module in list(sys.modules.items()):
            if module is None or (mod_name != PACKAGE and not mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped)
                    found = True
        if not found:
            raise LookupError(f"{fn!r} is not bound in any {PACKAGE} module")

    def patch_method(self, cls: type, attr: str, name: str, hook: Hook | None = None, unit: bool = False) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, hook, unit))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, install: Callable[["Tracer"], None]) -> Iterator["Tracer"]:
        try:
            install(self)
            yield self
        finally:
            self.restore()

    def summary(self) -> dict[str, SpanStats]:
        """Per span name: calls, busy time, self time (busy minus children)."""
        child_ns: Counter = Counter()
        for _id, parent, _group, _name, start, end in self.spans:
            child_ns[parent] += end - start
        out: dict[str, SpanStats] = {}
        for span_id, _parent, _group, name, start, end in self.spans:
            stats = out.setdefault(name, SpanStats())
            stats.calls += 1
            stats.busy_ns += end - start
            stats.self_ns += end - start - child_ns[span_id]
            stats.durations_ns.append(end - start)
        return out

    def write(self, path: Path) -> None:
        lines = ["id\tparent\tgroup\tname\tstart_ns\tend_ns"]
        lines.extend("\t".join(map(str, span)) for span in sorted(self.spans))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
