"""Spans around dualgp's functions, patched in from outside the package.

The tracer never edits ``src/``: it replaces each named function with a
timing wrapper in every ``dualgp.*`` namespace that binds it (a function
imported with ``from .dual import predict`` lives under several names), and
puts the originals back afterwards.  Each call is a span, aggregated in
memory by (span name, parent span name) into calls, inclusive time and self
time.  Self time is a span's duration minus the durations of its direct
child spans.

A target that no longer exists is listed in :attr:`Tracer.missing` and
skipped, so the benchmark keeps working after a refactor deletes a name.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``path`` is ``"func"`` or ``"Class.method"`` inside ``module``; ``span``
    is the span name; ``on_return(tracer, args, result)`` (optional) turns the
    call's arguments and return value into counts.
    """

    module: str
    path: str
    span: str
    on_return: object = None


class _Frame:
    __slots__ = ("name", "start", "child_s")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Collects per-(name, parent) span aggregates and named counts."""

    def __init__(self):
        self.stats: dict[tuple[str, str | None], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[_Frame] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, on_return=None):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = _Frame(name, time.perf_counter())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(frame, parent, end)
            if on_return is not None:
                on_return(tracer, args, result)
            return result

        return traced

    def _close(self, frame: _Frame, parent: _Frame | None, end: float) -> None:
        duration = end - frame.start
        if parent is not None:
            parent.child_s += duration
        entry = self.stats[(frame.name, parent.name if parent else None)]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame.child_s

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def high(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], float(value))

    # -- queries -----------------------------------------------------------

    # ``parent=...`` (the default) matches any parent; ``None`` matches top-level spans.

    def calls(self, name: str, parent=...) -> int:
        return int(sum(v[0] for k, v in self.stats.items() if _match(k, name, parent)))

    def inclusive_s(self, name: str, parent=...) -> float:
        return sum(v[1] for k, v in self.stats.items() if _match(k, name, parent))

    def self_s(self, name: str) -> float:
        return sum(v[2] for k, v in self.stats.items() if k[0] == name)

    def top_level_s(self) -> float:
        """Time covered by spans with no traced parent."""
        return sum(v[1] for k, v in self.stats.items() if k[1] is None)

    # -- patching ----------------------------------------------------------

    def patch(self, targets) -> None:
        """Install wrappers for ``targets``; record absent ones in ``missing``."""
        for target in targets:
            owner_name, _, attr = target.path.rpartition(".")
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.missing.append(f"{target.module}.{target.path}")
                continue
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{target.module}.{target.path}")
                continue
            wrapper = self.wrap(target.span, original, target.on_return)
            if owner_name:
                self._set(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "dualgp" or name.startswith("dualgp.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def unpatch(self) -> None:
        """Put every original back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.unpatch()
        return False


_ABSENT = object()


def _match(key: tuple[str, str | None], name: str, parent) -> bool:
    return key[0] == name and (parent is ... or key[1] == parent)
