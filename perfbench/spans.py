"""In-memory span tracer that patches a layer's public functions in place.

A span is (name, start, end, parent index, op id).  Spans and counters stay in
memory while the workload runs; the caller writes them out when it ends.
Patching replaces every binding of a traced function in every loaded module
(for example `contraction_lab.build_fock_space`, imported by name from
`hilbert`), and methods are replaced on their class.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def start(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.op_id])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name, namer=None, count=None):
        """`fn` inside a span; `namer(args, kwargs)` may refine the span name and
        `count(counters, args, kwargs, result)` records work done by the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.start(namer(args, kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def patch_functions(self, targets) -> None:
        """Rebind every module-level name that refers to one of the functions.

        `targets` maps id(original) to a wrapper made by `wrap`, which keeps
        the original as `__wrapped__`.
        """
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                wrapper = targets.get(id(value))
                if wrapper is not None and value is wrapper.__wrapped__:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def patch_method(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)


def span_stats(spans) -> dict:
    """Per span name: calls, busy_s and self_s.

    busy_s is inclusive time, counted once per outermost span of that name so
    that recursion is not double counted; self_s is each span's duration minus
    the time its direct children cover (children never overlap: one thread).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            entry["busy_s"] += end - start
    return stats
