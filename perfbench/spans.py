"""In-memory span recorder for the benchmark's traced runs (standard library only).

A span records the layer, the function, its start and end on the
``perf_counter`` clock, the span that was open when it started (its parent)
and the job it belongs to.  Parent and job ids travel in ``contextvars``, so
nesting follows the call stack without any change to the package under test.
Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    sid: int
    parent: int | None
    job: str
    layer: str
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; one recorder per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "open_span", default=None
        )

    @contextlib.contextmanager
    def span(self, layer: str, name: str, job: str | None = None, **attrs):
        parent = self._open.get()
        if job is None:
            job = parent.job if parent is not None else ""
        sp = Span(
            sid=len(self.spans),
            parent=None if parent is None else parent.sid,
            job=job,
            layer=layer,
            name=name,
            start=time.perf_counter(),
            attrs=dict(attrs),
        )
        self.spans.append(sp)
        token = self._open.set(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.reset(token)

    def annotate(self, **attrs) -> None:
        """Attach facts to the innermost open span."""
        sp = self._open.get()
        if sp is not None:
            sp.attrs.update(attrs)

    def wrap(self, layer: str, name: str, fn, facts=None):
        """``fn`` inside a span; ``facts(result, args, kwargs)`` returns counts to attach."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, name) as sp:
                result = fn(*args, **kwargs)
                if facts is not None:
                    sp.attrs.update(facts(result, args, kwargs))
                return result

        return traced

    def self_times(self) -> dict[int, float]:
        """Span duration minus its children's; spans of one thread never overlap."""
        out = {sp.sid: sp.duration for sp in self.spans}
        for sp in self.spans:
            if sp.parent is not None:
                out[sp.parent] -= sp.duration
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(sp) for sp in self.spans]))
