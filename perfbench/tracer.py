"""Span tracing around the calls one hiersparse module makes into the next.

The tracer never edits the package.  ``Tracer.install`` replaces each hooked
function with a timing wrapper in every already-imported module that holds a
reference to it (``from .kernel import gram`` copies the name into
``hierarchy``), and ``Tracer.restore`` puts every original back.  A hook whose
target no longer exists is listed in ``Tracer.missing`` instead of raising, so
a rename in the package shows up in the report rather than crashing the run.

Spans are kept in memory as ``[name, start, end, parent_index]``.  The process
runs one thread and takes no locks, so a span's time is busy time and its self
time is its duration minus the union of its children's intervals.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

PACKAGE = "hiersparse"


@dataclass(frozen=True)
class Hook:
    """A timed span around ``module.attr``; ``count`` adds counters from a call."""

    span: str
    module: str
    attr: str
    count: Callable | None = None


@dataclass(frozen=True)
class Probe:
    """A counted library call, attributed only while a ``layer`` span is open.

    ``network`` calls ``np.linalg.eigh`` and the Cholesky helpers; ``predict``
    reaches the same Cholesky through ``network._factor``, and that work is
    not network work.  So a call counts only when the innermost open span
    belongs to ``layer``.  Counts go to ``counter`` (a name ending in
    ``_calls``), ``work`` adds to the matching ``_work`` counter, and a call
    that raises ``failure`` adds to the matching ``_failed`` counter.
    """

    counter: str
    module: str
    attr: str
    layer: str
    work: Callable | None = None
    failure: type[BaseException] | None = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.overhead_s = 0.0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self.stack.pop()

    def innermost_layer(self) -> str | None:
        if not self.stack:
            return None
        return self.spans[self.stack[-1]][0].split(".", 1)[0]

    def _span_wrapper(self, hook: Hook, fn):
        tracer, clock = self, self.clock

        def traced(*args, **kwargs):
            entered = clock()
            index = tracer.begin(hook.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if hook.count is not None:
                tracer.counts.update(hook.count(args, kwargs, result))
            span = tracer.spans[index]
            tracer.overhead_s += (clock() - entered) - (span[2] - span[1])
            return result

        traced.__wrapped__ = fn
        return traced

    def _probe_wrapper(self, probe: Probe, fn):
        tracer, clock = self, self.clock

        def counted(*args, **kwargs):
            if tracer.innermost_layer() != probe.layer:
                return fn(*args, **kwargs)
            entered = clock()
            tracer.counts[probe.counter] += 1
            if probe.work is not None:
                tracer.counts[probe.counter.replace("_calls", "_work")] += probe.work(
                    args, kwargs
                )
            spent = clock() - entered
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if probe.failure is not None and isinstance(exc, probe.failure):
                    tracer.counts[probe.counter.replace("_calls", "_failed")] += 1
                raise
            finally:
                tracer.overhead_s += spent

        counted.__wrapped__ = fn
        return counted

    # -- installing and restoring ----------------------------------------
    def install(self, hooks) -> None:
        """Wrap every hook target; record missing targets instead of raising."""
        for hook in hooks:
            label = f"{hook.module}.{hook.attr}"
            try:
                owner = importlib.import_module(hook.module)
                original = getattr(owner, hook.attr)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            if isinstance(hook, Probe):
                wrapper = self._probe_wrapper(hook, original)
                holders = [owner]  # library call sites: patch only this namespace
            else:
                wrapper = self._span_wrapper(hook, original)
                holders = _holders_of(original, owner)
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def restore(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- reading the spans -------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                children.setdefault(parent, []).append((start, end))
        out = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            if end is None:
                out.append(0.0)
                continue
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(index, [])):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append((end - start) - covered)
        return out

    def totals(self, name: str, *, exclude_parent: str | None = None) -> tuple[float, float]:
        """(inclusive, self) seconds over every span called ``name``.

        Spans nested in a span of the same name count once, through the
        outermost.  ``exclude_parent`` drops spans whose parent has that name.
        """
        selfs = self.self_times()
        inclusive = own = 0.0
        for index, (span_name, start, end, parent) in enumerate(self.spans):
            if span_name != name or end is None:
                continue
            if exclude_parent is not None and parent >= 0 and self.spans[parent][0] == exclude_parent:
                continue
            own += selfs[index]
            if not self._inside(index, name):
                inclusive += end - start
        return inclusive, own

    def _inside(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
            "missing_hooks": list(self.missing),
            "overhead_s": self.overhead_s,
        }


def _holders_of(original, owner) -> list:
    """The owning module plus every imported package module naming ``original``."""
    holders = [owner]
    for name, module in list(sys.modules.items()):
        if module is None or module is owner:
            continue
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            if any(value is original for value in vars(module).values()):
                holders.append(module)
    return holders
