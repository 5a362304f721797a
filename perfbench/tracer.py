"""In-memory span recorder for the traced run.

The recorder wraps public functions of each layer (and the benchmark's
own request methods) by replacing the attribute the program calls
through, and restores every attribute when uninstalled.  The untraced
run installs nothing, so it pays no tracing cost at all.

A span is ``[name, start, end, parent, request, phase, tag]``.  Spans on
the client thread nest through a stack; a span opened on another thread
(the process transport's pipe lane) with nothing open there takes the
client's innermost open span as its parent.  This is exact for the
benchmark's single closed-loop client: while a request is in flight the
client thread is blocked inside it, so all work on other threads belongs
to that request.

A layer's *self time* is a span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "SpanStats"]

NAME, START, END, PARENT, REQUEST, PHASE, TAG = range(7)


class SpanStats:
    """Calls, inclusive and self seconds of one span name in one phase."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0

    @property
    def mean_ms(self) -> float:
        return 1000.0 * self.total_s / self.calls if self.calls else 0.0


class Tracer:
    """Records spans around wrapped functions; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.phase = "setup"
        self.request_id = 0
        self._lock = threading.Lock()
        self._client = threading.get_ident()
        self._client_stack: List[int] = []
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._plan: List[Tuple[Any, str, str, bool, Optional[Callable]]] = []

    # -- recording -----------------------------------------------------------------
    def _stack(self) -> List[int]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, root: bool = False) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._client_stack:
            parent = self._client_stack[-1]
        else:
            parent = -1
        if root and not self._client_stack:
            self.request_id += 1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, self.request_id, self.phase, None])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    # -- wrapping ------------------------------------------------------------------
    def plan(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        root: bool = False,
        after: Optional[Callable[[list, tuple, Any], None]] = None,
    ) -> None:
        """Register ``owner.attr`` to be wrapped as span ``name`` on :meth:`install`.

        ``after(span, args, result)`` runs once the span has closed, so its
        own cost lands outside the wrapped function's time (but inside any
        enclosing span).
        """
        self._plan.append((owner, attr, name, root, after))

    def install(self) -> None:
        for owner, attr, name, root, after in self._plan:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self._wrapper(original, name, root, after))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrapper(self, original: Callable, name: str, root: bool, after: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name, root)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer.spans[index], args, result)
            return result

        return traced

    # -- analysis ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Each span's duration minus the time its children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        return [max(0.0, span[END] - span[START] - covered[i]) for i, span in enumerate(self.spans)]

    def stats(self, phases: Tuple[str, ...]) -> Dict[str, SpanStats]:
        """Per span name: calls, inclusive and self time within ``phases``."""
        table: Dict[str, SpanStats] = defaultdict(SpanStats)
        for span, own in zip(self.spans, self.self_times()):
            if span[PHASE] in phases:
                entry = table[span[NAME]]
                entry.calls += 1
                entry.total_s += span[END] - span[START]
                entry.self_s += own
        return dict(table)

    def tagged(self, name: str, phases: Tuple[str, ...]) -> List[list]:
        return [span for span in self.spans if span[NAME] == name and span[PHASE] in phases]

    def table(self, phases: Tuple[str, ...]) -> str:
        """A per-layer self-time table; shares are of the top-level spans' time."""
        stats = self.stats(phases)
        top = [
            (span, own)
            for span, own in zip(self.spans, self.self_times())
            if span[PARENT] < 0 and span[PHASE] in phases
        ]
        wall = sum(span[END] - span[START] for span, _own in top)
        unattributed = sum(own for _span, own in top)
        lines = [
            f"per-layer self time over {len(top)} requests ({1000 * wall:.1f} ms in requests)",
            f"{'span':<26}{'calls':>8}{'incl ms':>11}{'self ms':>11}{'self ms/req':>13}{'share':>8}",
        ]
        for name, entry in sorted(stats.items(), key=lambda item: -item[1].self_s):
            share = entry.self_s / wall if wall else 0.0
            per_request = 1000 * entry.self_s / len(top) if top else 0.0
            lines.append(
                f"{name:<26}{entry.calls:>8}{1000 * entry.total_s:>11.1f}"
                f"{1000 * entry.self_s:>11.1f}{per_request:>13.3f}{share:>8.1%}"
            )
        if wall:
            lines.append(
                f"layers below the request account for {1 - unattributed / wall:.1%} of request time"
            )
        return "\n".join(lines)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "request": span[REQUEST],
                            "phase": span[PHASE],
                            "tag": span[TAG],
                        }
                    )
                    + "\n"
                )
