"""Span tracing from outside the package.

A hook names a function or method and the namespace it is looked up in
(a module or a class). Installing a Tracer replaces each such name with a
wrapper that records a span, ``(span id, parent id, frame, name, start,
end)``, and optional counts; removing it puts the originals back. The
package's own code is never edited.

Spans of one frame form a tree under a root span opened by ``begin`` and
closed by ``end``. A span's self time is its duration minus the durations
of its children. The program is single-threaded, so children never overlap
and the self times of a frame add up to the root's duration.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass
from functools import wraps
from typing import Callable

ROOT_SPAN = "bench.step"
HOOK_SPAN = "trace.hooks"  # time spent in observe callbacks, kept out of layer spans

# observe(counts, args, kwargs, result) adds the call's counts
Observe = Callable[[Counter, tuple, dict, object], None]


@dataclass(frozen=True)
class Hook:
    owner: object  # module or class whose namespace holds the name
    attr: str
    span: str
    observe: Observe | None = None


class Patches:
    """Replaces names in module or class namespaces and restores them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")


class Tracer:
    def __init__(self, hooks: list[Hook]):
        self.hooks = hooks
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._new_id = itertools.count(1).__next__
        self._frame = -1
        self._patches = Patches()

    def install(self) -> None:
        for hook in self.hooks:
            self._patches.set(hook.owner, hook.attr, self._wrap(vars(hook.owner)[hook.attr], hook))

    def remove(self) -> None:
        self._patches.restore()

    def _wrap(self, fn, hook: Hook):
        name, observe = hook.span, hook.observe
        stack, spans, counts, new_id = self._stack, self.spans, self.counts, self._new_id
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = new_id()
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, self._frame, name, t0, t1))
            if observe is not None:
                observe(counts, args, kwargs, result)
                spans.append((new_id(), parent, self._frame, HOOK_SPAN, t1, clock()))
            return result

        return traced

    def begin(self, frame: int) -> None:
        """Open the root span of one frame."""
        self.spans.clear()
        self.counts.clear()
        self._frame = frame
        self._root = self._new_id()
        self._stack.append(self._root)
        self._t_root = time.perf_counter()

    def end(self) -> tuple[list, Counter]:
        """Close the root span; returns the frame's spans and counts."""
        t1 = time.perf_counter()
        if self._stack != [self._root]:
            raise RuntimeError(f"frame {self._frame}: spans left open {self._stack}")
        self._stack.pop()
        self.spans.append((self._root, None, self._frame, ROOT_SPAN, self._t_root, t1))
        return self.spans, self.counts


class Profile:
    """Per-span-name totals over many frames."""

    def __init__(self):
        self.frames = 0
        self.incl: Counter = Counter()  # seconds, children included
        self.self_s: Counter = Counter()  # seconds, children excluded
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def add(self, spans: list, counts: Counter) -> None:
        """Fold in one frame; raises if the spans do not form a tree whose
        self times add up to the root span's duration."""
        ids = {s[0] for s in spans}
        child_s: Counter = Counter()
        roots = []
        for sid, parent, _frame, _name, t0, t1 in spans:
            if parent is None:
                roots.append(t1 - t0)
            elif parent not in ids:
                raise RuntimeError(f"span {sid} has no closed parent {parent}")
            else:
                child_s[parent] += t1 - t0
        if len(roots) != 1:
            raise RuntimeError(f"expected one root span, got {len(roots)}")
        total_self = 0.0
        for sid, _parent, frame, name, t0, t1 in spans:
            own = (t1 - t0) - child_s[sid]
            if own < -1e-7:
                raise RuntimeError(f"frame {frame}: children of {name} overlap ({own * 1e6:.1f} us)")
            total_self += own
            self.incl[name] += t1 - t0
            self.self_s[name] += own
            self.calls[name] += 1
        if abs(total_self - roots[0]) > 1e-6 * max(1.0, roots[0]):
            raise RuntimeError(f"self times sum to {total_self} s, step took {roots[0]} s")
        self.counts.update(counts)
        self.frames += 1
