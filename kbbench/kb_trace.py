"""Span recording from outside the program.

The benchmark times each layer by wrapping that layer's public entry
points (class methods and module-level functions) with a recorder.  A
span is ``(name, start, end, self, op)``: ``self`` is the span's
duration minus the time covered by its child spans, computed when the
span closes.  Stacks and span lists are kept per thread, because the
query service runs workers; spans stay in memory until the run ends.

Entry points that return iterators (``Machine.solve``, relation
queries, plan ``rows()``, ``Reader.read_terms``) are timed per
resumption: the call and every ``next()`` are parts of one span, whose
self time sums the parts, so the consumer's own work between items is
never charged to the layer.  Such a span's start and end are those of
its first and last part.
"""

from __future__ import annotations

import functools
import sys
import threading
from time import perf_counter


class _ThreadState:
    __slots__ = ("stack", "spans", "op")

    def __init__(self) -> None:
        #: open frames: [name, start, child_time]
        self.stack: list = []
        #: closed spans: (name, start, end, self_time, op)
        self.spans: list = []
        #: id of the operation this thread is working on
        self.op = None


class SpanRecorder:
    """Per-thread span stacks plus every closed span of the run."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list = []
        #: characters handed to the reader
        self.chars = 0

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def set_op(self, op) -> None:
        self._state().op = op

    def enter(self, name: str) -> None:
        self._state().stack.append([name, perf_counter(), 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        end = perf_counter()
        state = self._state()
        name, start, child = state.stack.pop()
        duration = end - start
        if state.stack:
            state.stack[-1][2] += duration
        state.spans.append((name, start, end, duration - child, state.op))
        return duration

    def new_part(self) -> list:
        """State of a span that closes and reopens: [start, end, self
        time, op]."""
        return [None, 0.0, 0.0, self._state().op]

    def exit_part(self, part: list) -> None:
        """Close the innermost frame as one part of a resumable span:
        its time joins *part* instead of becoming a span of its own."""
        end = perf_counter()
        state = self._state()
        _, start, child = state.stack.pop()
        duration = end - start
        if state.stack:
            state.stack[-1][2] += duration
        if part[0] is None:
            part[0] = start
        part[1] = end
        part[2] += duration - child

    def add(self, name: str, start: float, end: float, self_time: float,
            op) -> None:
        """Record a span measured by the caller (one that crosses
        threads, so it cannot live on a stack)."""
        self._state().spans.append((name, start, end, self_time, op))

    def spans(self) -> list:
        out = []
        with self._lock:
            for state in self._threads:
                out.extend(state.spans)
        return out


def _wrap_call(rec: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit()
    return wrapper


def _timed_iter(rec: SpanRecorder, name: str, it, part: list):
    """Yield *it*'s items, timing every resumption as a part of one
    span; the span is recorded once the iterator is exhausted or
    closed."""
    try:
        while True:
            rec.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                rec.exit_part(part)
            yield item
    finally:
        close = getattr(it, "close", None)
        if close is not None:
            # Closing runs the iterator's cleanup (Machine.solve restores
            # the machine state there), which is the layer's work too.
            rec.enter(name)
            try:
                close()
            finally:
                rec.exit_part(part)
        rec.add(name, *part)


def _wrap_iter(rec: SpanRecorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        part = rec.new_part()
        rec.enter(name)
        try:
            it = iter(fn(*args, **kwargs))
        finally:
            rec.exit_part(part)
        return _timed_iter(rec, name, it, part)
    return wrapper


def _counting_text(rec: SpanRecorder, wrapped):
    """Reader entry points: also count the characters parsed."""
    @functools.wraps(wrapped)
    def wrapper(self, text, *args, **kwargs):
        rec.chars += len(text)
        return wrapped(self, text, *args, **kwargs)
    return wrapper


def _patch_everywhere(original, replacement) -> None:
    """Rebind a module-level function in every ``repro`` module that
    imported it by name, so callers that hold it as a global see the
    wrapper too."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "repro" and not mod_name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(rec: SpanRecorder) -> None:
    """Wrap every traced entry point.  Irreversible for the process:
    a traced pass is always the last thing a run does."""
    from repro.bang.buffer import BufferPool
    from repro.bang.pager import DiskStore
    from repro.bang.relation import BangRelation
    from repro.bang.wal import WriteAheadLog
    from repro.dictionary.segmented import SegmentedDictionary
    from repro.edb.loader import DynamicLoader
    from repro.edb.store import ExternalStore
    from repro.lang.reader import Reader
    from repro.relational import algebra
    from repro.wam import indexing, optimizer
    from repro.wam.compiler import ClauseCompiler
    from repro.wam.machine import Machine

    calls = [
        (DynamicLoader, "procedure_code", "loader.code"),
        (ExternalStore, "fetch_clauses", "store.fetch"),
        (ExternalStore, "fetch_facts", "store.fetch"),
        (ExternalStore, "assert_clause", "store.write"),
        (ExternalStore, "retract_clause", "store.write"),
        (BufferPool, "pin", "buffer.fetch"),
        (BufferPool, "get", "buffer.fetch"),
        (DiskStore, "read", "pager.read"),
        (WriteAheadLog, "append", "wal.append"),
        (SegmentedDictionary, "intern", "dictionary.intern"),
        (ClauseCompiler, "compile_clause", "wam.compile"),
    ]
    for cls, attr, name in calls:
        setattr(cls, attr, _wrap_call(rec, name, getattr(cls, attr)))

    iters = [
        (Machine, "solve", "wam.solve"),
        (BangRelation, "query", "bang.query"),
        (BangRelation, "range_query", "bang.query"),
        (BangRelation, "scan", "bang.query"),
        (Reader, "read_terms", "lang.read"),
    ]
    for cls, attr, name in iters:
        setattr(cls, attr, _wrap_iter(rec, name, getattr(cls, attr)))
    # read_term delegates to read_term_with_vars, which alone counts.
    Reader.read_term = _wrap_call(rec, "lang.read", Reader.read_term)
    Reader.read_term_with_vars = _counting_text(rec, _wrap_call(
        rec, "lang.read", Reader.read_term_with_vars))
    Reader.read_terms = _counting_text(rec, Reader.read_terms)

    for value in list(vars(algebra).values()):
        if (isinstance(value, type) and issubclass(value, algebra.Plan)
                and "rows" in vars(value) and value is not algebra.Plan):
            value.rows = _wrap_iter(rec, "relational.rows", value.rows)

    for module, attr, name in [
            (optimizer, "build_optimized_block", "wam.compile"),
            (indexing, "build_procedure_layout", "wam.index")]:
        original = getattr(module, attr)
        _patch_everywhere(original, _wrap_call(rec, name, original))
