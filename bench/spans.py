"""In-memory spans for the benchmark's traced runs.

A span is ``[name, start_ns, end_ns, parent, question_id]``; ``parent``
is the index of the enclosing span or -1. Spans are kept in a list and
written out once, when the run ends, so tracing does no I/O while it
measures. Calls made inside the program are seen by swapping a module
attribute for a timing wrapper for the length of a ``with`` block.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = {}
        self.question: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = [name, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1,
                  self.question]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self._stack.pop()

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    @contextmanager
    def patched(
        self,
        module: Any,
        attr: str,
        name: str,
        count: Callable[[Any], float] | None = None,
    ) -> Iterator[None]:
        """Time every call to ``module.attr`` as a span named ``name``.

        ``count(result)`` is added to the counter ``name`` per call. A
        missing attribute is left alone, so the run still works when the
        program stops calling that function.
        """
        original = getattr(module, attr, None)
        if original is None:
            yield
            return

        def timed(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                self.add(name, count(result))
            return result

        setattr(module, attr, timed)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def durations_ms(self, name: str) -> list[float]:
        return [(s[2] - s[1]) / 1e6 for s in self.spans if s[0] == name]

    def total_ms(self, name: str) -> float:
        return sum(self.durations_ms(name))

    def child_ms(self, parent_name: str) -> float:
        """Total time of the spans directly inside spans named ``parent_name``."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == parent_name}
        return sum((s[2] - s[1]) / 1e6 for s in self.spans if s[3] in parents)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, question in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "question": question}) + "\n")
