"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the package's public functions by
temporarily replacing those names in the caller's namespace (a module, or a
class for methods).  Nothing under ``src/`` is edited, and the replacements
exist only inside the process that installs them.  Each span has a name,
start, end and parent; spans of one top-level operation share an op id.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from collections.abc import Callable

# A span: [op id, span id, parent span id or None, name, start s, end s]
Span = list


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self.op += 1  # each root span starts a new operation
        record = [self.op, len(self.spans), parent, name, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(record[1])
        record[4] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner: object, attr: str, name: str | Callable[..., str],
             count: Callable | None = None) -> None:
        """Record a span around every call of ``owner.attr`` until :meth:`unwrap`.

        ``name`` may be a function of the call's arguments; ``count`` is
        called as ``count(counts, result, *args)`` after each call.
        """
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        original = getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        target = raw.__func__ if is_classmethod else original

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            result = self.call(label, target, *args, **kwargs)
            if count is not None:
                count(self.counts, result, *args)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._installed.append((owner, attr, raw if raw is not None else original))

    def unwrap(self) -> None:
        """Put back every name :meth:`wrap` replaced."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[str, list[float]]:
    """Per span name, each span's duration minus the time its children cover.

    Children run one after another inside their parent (one thread), so
    the covered part is the sum of the children's durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for _op, _sid, parent, _name, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, list[float]] = defaultdict(list)
    for _op, sid, _parent, name, start, end in spans:
        out[name].append(end - start - covered[sid])
    return out
