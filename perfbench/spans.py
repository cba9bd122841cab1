"""Span recorder for the traced benchmark run.

Spans are taken from the outside: while the tracer is installed, every
function exported in ``htlr.__all__`` is replaced, at each ``htlr`` submodule
binding of that object, by a wrapper that records the call.  Calls between
library modules go through those bindings, so nested calls become child
spans.  The library
itself is not changed, and ``Tracer.uninstall`` puts every binding back.

Spans live in flat arrays (name id, parent span, start, end, work count) so
that the hundreds of thousands of spans of a traced matvec stream stay small.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np


class Tracer:
    """Records one span per call of each wrapped function.

    ``counters`` maps a span name to a function of the call's positional and
    keyword arguments that returns the work count stored with the span, for
    example the number of kernel evaluations of one ``pairwise`` call.
    """

    def __init__(self, package, counters=None):
        self.package = package
        self.counters = dict(counters or {})
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack: list[int] = []
        self._bindings: list[tuple] = []  # (module, attribute, original, wrapper)
        self._installed = False

    # -- installation -----------------------------------------------------

    def _label(self, fn) -> str:
        module = fn.__module__.rsplit(".", 1)[-1]
        return f"{module}.{fn.__name__}"

    def _modules(self):
        prefix = self.package.__name__
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == prefix or name.startswith(prefix + "."))
        ]

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        if not self._bindings:
            modules = self._modules()
            for export in self.package.__all__:
                fn = getattr(self.package, export, None)
                if not inspect.isfunction(fn):
                    continue
                wrapper = self._wrap(fn, self._label(fn))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._bindings.append((mod, attr, fn, wrapper))
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for mod, attr, fn, _ in reversed(self._bindings):
            setattr(mod, attr, fn)
        self._installed = False

    def _wrap(self, fn, label):
        nid = self._name_ids.setdefault(label, len(self.names))
        if nid == len(self.names):
            self.names.append(label)
        counter = self.counters.get(label)
        names, parent, start, end, work = (
            self.name_id, self.parent, self.start, self.end, self.work,
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            work.append(counter(args, kwargs) if counter is not None else 0.0)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return wrapper

    # -- analysis ---------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; pairs of marks delimit a phase."""
        return len(self.name_id)

    def summary(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per span name over spans [lo, hi): calls, total (inclusive)
        seconds, self seconds and summed work.  Self time is a span's
        duration minus the time its child spans cover."""
        hi = self.mark() if hi is None else hi
        if hi <= lo:
            return {}
        ids = np.frombuffer(self.name_id, dtype=np.int64)[lo:hi]
        par = np.frombuffer(self.parent, dtype=np.int64)[lo:hi]
        dur = (np.frombuffer(self.end, dtype=np.float64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.float64)[lo:hi])
        work = np.frombuffer(self.work, dtype=np.float64)[lo:hi]
        inside = par >= lo
        child = np.bincount(par[inside] - lo, weights=dur[inside], minlength=ids.size)
        own = dur - child
        count = len(self.names)
        calls = np.bincount(ids, minlength=count)
        total = np.bincount(ids, weights=dur, minlength=count)
        self_s = np.bincount(ids, weights=own, minlength=count)
        done = np.bincount(ids, weights=work, minlength=count)
        return {
            self.names[i]: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
                "work": float(done[i]),
            }
            for i in range(count)
            if calls[i]
        }

    def save(self, path) -> None:
        """Write every span (name, parent, start, end, work) to an npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            work=np.frombuffer(self.work, dtype=np.float64),
        )
