"""In-memory span recording around rfneuron's module boundaries.

A traced run replaces module attributes at their call sites (for example
``rfneuron.experiments.integrate``) with wrappers that record a span per
call: name, start, end, parent span and the unit (operating point, die or
CLI subcommand) the benchmark was working on.  Spans stay in memory until
the run ends.  A span's self time is its duration minus the part of it that
its child spans cover; per-layer metrics are sums over the layer's spans.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    unit: str | None
    cpu_self: float = 0.0       # process CPU seconds spent inside the span
    cpu_children: float = 0.0   # CPU seconds of child processes reaped inside it
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _cpu() -> tuple[float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


class Recorder:
    """Collects spans from the wrappers it installs; ``restore`` removes them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unit: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, cpu: bool = False, counts=None):
        """Return ``fn`` recording a span per call.

        ``counts(args, kwargs, result)`` may return a dict of deterministic
        counts derived from the call's inputs and outputs.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.unit)
            stack.append(len(spans))
            spans.append(span)
            if cpu:
                c0 = _cpu()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if cpu:
                    c1 = _cpu()
                    span.cpu_self, span.cpu_children = c1[0] - c0[0], c1[1] - c0[1]
                stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Install ``replacement`` as ``owner.attr`` until ``restore``."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_call(self, owner, attr: str, name: str, cpu: bool = False, counts=None) -> None:
        """Wrap the callable ``owner.attr`` in place; warn if it is gone."""
        if not hasattr(owner, attr):
            print(f"perfbench: {owner.__name__}.{attr} not found, span {name} not recorded",
                  file=sys.stderr)
            return
        self.patch(owner, attr, self.wrap(getattr(owner, attr), name, cpu, counts))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path, rep: int) -> None:
        """Append this recorder's spans to a JSON-lines file."""
        with open(path, "a") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"rep": rep, "id": i, **asdict(s)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out
