"""In-memory spans around the program's public functions.

Modules bind each other's functions with ``from ... import``, so a function
is wrapped wherever it is *looked up*: every attribute of every loaded
``cryopower`` module (and the package) that holds the original object is
replaced by the wrapper, and :meth:`Tracer.uninstall` puts the originals
back. A span is ``[name, start, end, parent index, task id, work]``; ``work``
holds a count for layers whose useful output is not a call count.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path

PACKAGE = "cryopower"

# (module, function) pairs wrapped in the traced run; the span name is
# "<module>.<function>".
TARGETS = (
    ("configio", "parse_config"),
    ("configio", "serialize_config"),
    ("configio", "set_value"),
    ("model", "validate"),
    ("compare", "resolve_parameters"),
    ("compare", "optimize"),
    ("compare", "sweep_loss"),
    ("compare", "devices_under_budget"),
    ("compare", "scorecard"),
    ("thermal", "heat_budget"),
    ("losses", "architecture_loss_at"),
    ("noise", "white_floor_ratio"),
)

WORK = {
    "compare.optimize": lambda result: result.evaluations,
    "compare.sweep_loss": lambda result: len(result.points),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.task = -1
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        clock = time.perf_counter
        index = len(self.spans)
        self.spans.append([name, clock(), 0.0, self._stack[-1] if self._stack else -1, self.task, None])
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            self.spans[index][2] = clock()

    def _wrap(self, name: str, fn):
        spans, stack, clock, work = self.spans, self._stack, time.perf_counter, WORK.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.task, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if work is not None:
                spans[index][5] = work(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, function in TARGETS:
            original = getattr(import_module(f"{PACKAGE}.{module_name}"), function)
            wrapper = self._wrap(f"{module_name}.{function}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, task, work in self.spans:
                out.write(json.dumps([name, start, end, parent, task, work]) + "\n")


class Summary:
    """Per-layer counts and times over a list of spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _task, _work in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.work: dict[str, int] = {}
        for index, (name, start, end, _parent, _task, work) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + (end - start)
            self.self_time[name] = self.self_time.get(name, 0.0) + (end - start - child_time[index])
            if work is not None:
                self.work[name] = self.work.get(name, 0) + work

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans named ``name`` with a span named ``ancestor`` above them."""
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count

    def busy_in(self, names: tuple[str, ...], tasks: set[int]) -> float:
        """Wrapped time of the outermost ``names`` spans within ``tasks``.

        A span nested under another listed span is skipped so that nested
        layers are not counted twice.
        """
        total = 0.0
        for name, start, end, parent, task, _work in self.spans:
            if name not in names or task not in tasks:
                continue
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total
