"""In-memory span recorder that wraps the program's layer entry points.

Tracing lives entirely in the benchmark: :class:`Tracer` replaces a layer's
public callables with timing wrappers for the duration of a traced pass and
restores the originals afterwards, so an untraced pass runs the program
untouched.  Spans are kept in memory as tuples
``(name, start, end, parent, run_id)`` and written out once, when the
benchmark ends.  A span's self time is its duration minus the time covered
by its children; the wrapped callables are synchronous, so children nest
strictly inside their parent.
"""

from __future__ import annotations

import csv
import gzip
import sys
import time
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    """Span recorder plus the monkeypatches that feed it."""

    def __init__(self):
        #: Finished spans: (name, start, end, parent index or -1, run id).
        self.spans: list[tuple[str, float, float, int, str]] = []
        #: Event counts recorded at the same boundaries as the spans.
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def open(self, name: str) -> tuple[int, float]:
        """Start a span; returns the token :meth:`close` needs."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.run_id))
        self._stack.append(index)
        return index, _clock()

    def close(self, token: tuple[int, float]) -> None:
        end = _clock()
        index, start = token
        self._stack.pop()
        name, __, __, parent, run_id = self.spans[index]
        self.spans[index] = (name, start, end, parent, run_id)

    def wrap(self, name: str, func, count=None):
        """``func`` timed as span ``name``; ``count(args, kwargs, result)``
        may return a dict of event counts to add."""
        tracer = self

        def traced(*args, **kwargs):
            token = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(token)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    tracer.counts[key] += value
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # ------------------------------------------------------------- patching

    def patch_function(self, module_name: str, attr: str, name: str,
                       count=None) -> None:
        """Wrap ``module.attr`` everywhere the program imported it by name."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = self.wrap(name, original, count)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            if getattr(module, attr, None) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapped)

    def patch_method(self, cls, attr: str, name: str, count=None) -> None:
        """Wrap a method (or plain class attribute callable) on ``cls``."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, count))

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`unpatch`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- analysis

    def mark(self) -> int:
        """A position in the span list; :meth:`summary` reads from one."""
        return len(self.spans)

    def summary(self, since: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: count, total (inclusive) and self seconds."""
        spans = self.spans[since:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, __ in spans:
            local = parent - since
            if local >= 0:
                child_time[local] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, __, __) in enumerate(spans):
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time[i]
        return out

    def durations(self, name: str, since: int = 0) -> list[float]:
        return [end - start for n, start, end, __, __ in self.spans[since:]
                if n == name]

    def write(self, path: Path) -> None:
        """Write every span as one gzipped CSV row (the end-of-run dump)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("index", "name", "start", "end", "parent", "run"))
            for index, span in enumerate(self.spans):
                writer.writerow((index, *span))
