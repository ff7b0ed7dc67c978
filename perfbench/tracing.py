"""In-memory spans around the library's layer entry points.

:class:`Tracer` replaces each entry point of :data:`layers.ENTRIES` by a
wrapper for the duration of a ``with tracer.installed():`` block, and
puts the originals back on exit.  Some modules bind these names at
import time (``repro.core.passes`` binds ``verify_equivalence``,
``repro.power.glitch`` binds ``node_capacitance``, and so on), so a
function is replaced in every loaded module namespace that holds it, not
only in the module that defines it.  Methods are replaced on their
class.

A wrapper records only inside an op (between :meth:`Tracer.begin_op`
and :meth:`Tracer.end_op`), so input preparation and output checks
leave no trace.  A span is ``(id, parent, op, name, start, end)`` with
times from ``time.perf_counter``; self time is computed as the spans
close, as duration minus the duration of direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from layers import ENTRIES, Entry

Span = Tuple[int, Optional[int], int, str, float, float]


class Tracer:
    """Spans, call counts and self times of one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        #: ``SizingResult.moves`` summed over every sizing call
        self.sizing_moves = 0
        self._op: Optional[int] = None
        self._op_name = ""
        self._op_start = 0.0
        # One frame per open span: [span id, time covered by children].
        self._stack: List[List[Any]] = []
        self._next_id = 0

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int, label: str) -> None:
        """Open the root span of one op; wrappers record until
        :meth:`end_op`."""
        self._op = op_id
        self._op_name = f"op:{label}"
        self._open()
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        self._close(self._op_name, self._op_start, time.perf_counter())
        self._op = None

    def _open(self) -> None:
        self._stack.append([self._next_id, 0.0])
        self._next_id += 1

    def _close(self, name: str, start: float, end: float) -> None:
        span_id, child = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        parent = None
        if self._stack:
            self._stack[-1][1] += duration
            parent = self._stack[-1][0]
        self.spans.append((span_id, parent, self._op, name, start, end))

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, entry: Entry, func: Callable) -> Callable:
        name = entry.name
        counts_moves = entry.attr == "size_for_power"

        if not entry.span:
            @functools.wraps(func)
            def counted(*args, **kwargs):
                if self._op is not None:
                    self.calls[name] += 1
                return func(*args, **kwargs)
            return counted

        @functools.wraps(func)
        def timed(*args, **kwargs):
            if self._op is None:
                return func(*args, **kwargs)
            self.calls[name] += 1
            self._open()
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(name, start, time.perf_counter())
            if counts_moves:
                self.sizing_moves += result.moves
            return result
        return timed

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every entry point; restore the originals on exit.

        Restoring scans the module namespaces again, so a module first
        imported while the wrappers were in place gets the original
        back too."""
        methods: List[Tuple[type, str, Callable]] = []
        functions: List[Tuple[Callable, Callable]] = []  # (wrapper, orig)
        try:
            for entry in ENTRIES:
                module = importlib.import_module(entry.module)
                owner_name, _, attr = entry.attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    methods.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(entry, original))
                else:
                    original = getattr(module, attr)
                    wrapper = self._wrap(entry, original)
                    functions.append((wrapper, original))
                    _rebind({id(original): wrapper})
            yield self
        finally:
            for owner, attr, original in methods:
                setattr(owner, attr, original)
            _rebind({id(w): orig for w, orig in functions})

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Spans as JSON lines, ordered by span id."""
        with open(path, "w") as f:
            for span_id, parent, op, name, start, end in sorted(self.spans):
                f.write(json.dumps({"id": span_id, "parent": parent,
                                    "op": op, "name": name,
                                    "start": start, "end": end}) + "\n")


def _rebind(replacements: Dict[int, Callable]) -> None:
    """In every loaded module, rebind each global whose value's id is a
    key of ``replacements`` to the mapped object."""
    if not replacements:
        return
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            new = replacements.get(id(value))
            if new is not None:
                namespace[key] = new
