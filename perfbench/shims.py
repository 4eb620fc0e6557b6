"""Span shims: time calls into the program's layers from outside it.

:func:`install` wraps named public functions of the ``repro`` package.
It imports every ``repro`` module first, then replaces **every binding**
of each named function object it can reach from a module: module
attributes (so ``from .bkp import bkp_profile`` in another module is
covered), class attributes (methods), and fields of dataclass values
held in module-level dicts (the algorithm registry stores the runner
functions there).  No list of import sites is kept by hand.
:func:`uninstall` puts every original object back.

A wrapper records one span per call: name, start, end, parent span and
request id, on the :class:`Recorder` passed to :func:`install`.  Spans
stay in memory until the run writes them out with :func:`write_spans`.
Calls made in a forked child (pool workers) pass straight through: the
child's spans could never reach the parent's file.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import os
import pkgutil
import sys
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

#: Marks a wrapper so a second :func:`install` leaves it alone.
_WRAPPED = "__perfbench_original__"


@dataclasses.dataclass(frozen=True)
class Target:
    """One span name and the functions whose calls it times.

    ``paths`` are ``"module:qualname"`` strings (``"pkg.mod:Class.method"``
    for methods).  ``rid`` extracts a request id from a call's
    ``(args, kwargs)``; spans without one inherit their parent's.  ``tag``
    labels a span from the call's return value (e.g. cache hit/miss).
    """

    span: str
    paths: tuple[str, ...]
    rid: Callable[[tuple, dict], str | None] | None = None
    tag: Callable[[Any], str] | None = None


@dataclasses.dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: str | None
    tag: str | None = None


class Recorder:
    """In-memory span sink shared by every wrapper of one installation.

    Times are ``time.perf_counter()`` readings: on Linux the system-wide
    monotonic clock, so the benchmark process can compare a daemon's
    span times with its own.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pid = os.getpid()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: str | None = None) -> Iterator[None]:
        """Record a span around a block (the benchmark's own operations)."""
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (None, None)
        sid = next(self._ids)
        rid = rid if rid is not None else inherited
        stack.append((sid, rid))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, rid))

    def wrap(self, fn: Callable, target: Target) -> Callable:
        """A wrapper recording a ``target.span`` span per call of ``fn``.

        Generator functions get one span per resumption, so the time the
        consumer spends between items is not charged to the generator.
        """
        rec, name = self, target.span

        def enter(args: tuple, kwargs: dict) -> tuple[int, int | None, str | None]:
            stack = rec._stack()
            parent, rid = stack[-1] if stack else (None, None)
            if target.rid is not None:
                rid = target.rid(args, kwargs) or rid
            sid = next(rec._ids)
            stack.append((sid, rid))
            return sid, parent, rid

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
                inner = fn(*args, **kwargs)
                if os.getpid() != rec.pid:
                    return (yield from inner)
                try:
                    while True:
                        sid, parent, rid = enter(args, kwargs)
                        start = time.perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            end = time.perf_counter()
                            rec._stack().pop()
                            rec.spans.append(Span(sid, name, start, end, parent, rid))
                        yield item
                finally:
                    inner.close()

            wrapper: Callable = gen_wrapper
        else:

            @functools.wraps(fn)
            def call_wrapper(*args: Any, **kwargs: Any) -> Any:
                if os.getpid() != rec.pid:
                    return fn(*args, **kwargs)
                sid, parent, rid = enter(args, kwargs)
                tag = None
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    if target.tag is not None:
                        tag = target.tag(result)
                    return result
                finally:
                    end = time.perf_counter()
                    rec._stack().pop()
                    rec.spans.append(Span(sid, name, start, end, parent, rid, tag))

            wrapper = call_wrapper
        setattr(wrapper, _WRAPPED, fn)
        return wrapper


# -- finding and patching bindings ----------------------------------------------------


def import_program() -> None:
    """Import every module of the ``repro`` package, so bindings made by
    lazily imported modules exist before :func:`install` scans them."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def resolve(path: str) -> Any:
    """The object at ``"module:qualname"`` (read from the class dict for
    methods, so the plain function is returned)."""
    module_name, _, qualname = path.partition(":")
    obj: Any = sys.modules.get(module_name) or importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part)
    return vars(obj)[parts[-1]] if isinstance(obj, type) else getattr(obj, parts[-1])


Binding = tuple[Any, str, bool]  # (holder, attribute name, holder is a dataclass value)


def bindings(originals: dict[int, Any]) -> Iterator[tuple[Binding, Any]]:
    """Every reachable ``repro`` binding whose value is one of ``originals``
    (keyed by ``id``), each ``(holder, name)`` pair once."""
    seen: set[tuple[int, str]] = set()

    def hit(holder: Any, key: str, value: Any, field: bool) -> Iterator[tuple[Binding, Any]]:
        if originals.get(id(value), hit) is value and (id(holder), key) not in seen:
            seen.add((id(holder), key))
            yield (holder, key, field), value

    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            yield from hit(module, key, value, False)
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for attr, member in list(vars(value).items()):
                    yield from hit(value, attr, member, False)
            elif isinstance(value, dict):
                for entry in list(value.values()):
                    if dataclasses.is_dataclass(entry) and not isinstance(entry, type):
                        for f in dataclasses.fields(entry):
                            yield from hit(entry, f.name, getattr(entry, f.name), True)


def _set(binding: Binding, value: Any) -> None:
    holder, key, field = binding
    if field:
        object.__setattr__(holder, key, value)  # frozen dataclass field
    else:
        setattr(holder, key, value)


Patches = list[tuple[Binding, Any]]  # (binding, original) pairs one install made


def install(recorder: Recorder, targets: tuple[Target, ...]) -> Patches:
    """Wrap every binding of every target function.  Idempotent: bindings
    that already hold a wrapper are left as they are."""
    import_program()
    wrappers: dict[int, Any] = {}
    originals: dict[int, Any] = {}
    for target in targets:
        for path in target.paths:
            fn = resolve(path)
            if hasattr(fn, _WRAPPED):
                continue
            originals[id(fn)] = fn
            wrappers[id(fn)] = recorder.wrap(fn, target)
    patches = []
    for binding, original in bindings(originals):
        _set(binding, wrappers[id(original)])
        patches.append((binding, original))
    return patches


def uninstall(patches: Patches) -> None:
    """Restore every binding :func:`install` replaced."""
    for binding, original in reversed(patches):
        _set(binding, original)
    patches.clear()


# -- reading spans ---------------------------------------------------------------------


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``inclusive_s`` and ``self_s``.

    Inclusive time counts only the outermost span of a name (a recursive
    or re-entrant call is not counted twice).  Self time is a span's
    duration minus the time its direct children cover.
    """
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        duration = s.end - s.start
        row["calls"] += 1
        row["self_s"] += max(0.0, duration - child_time.get(s.id, 0.0))
        parent = by_id.get(s.parent) if s.parent is not None else None
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        if parent is None:
            row["inclusive_s"] += duration
    return out


def write_spans(spans: list[Span], path: str | os.PathLike) -> None:
    """Write spans as JSON lines, in start order."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in sorted(spans, key=lambda s: (s.start, s.id)):
            fh.write(json.dumps(dataclasses.asdict(s), sort_keys=True) + "\n")


def read_spans(path: str | os.PathLike) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]
