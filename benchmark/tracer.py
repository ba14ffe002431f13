"""Span recorder for the traced benchmark run.

The benchmark cannot change the program, so it wraps the program's public
functions from outside: each wrapper is installed under every name its
callers look it up by (the defining module, every module that imported it
with ``from ... import``, and the class for methods).  Spans stay in memory
with their parent ids and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [id, parent, name, item, t0, t1, error]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.item = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def span(self, name: str, fn, args, kwargs, on_return=None):
        sid = len(self.spans)
        rec = [sid, self.stack[-1] if self.stack else None, name, self.item, perf(), None, None]
        self.spans.append(rec)
        self.stack.append(sid)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            rec[6] = type(exc).__name__
            raise
        finally:
            rec[5] = perf()
            self.stack.pop()
        if on_return is not None:
            on_return(self.counts, out)
        return out

    # -- installation -------------------------------------------------------

    def _spanned(self, orig, name: str, on_return):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return self.span(name, orig, args, kwargs, on_return)

        return wrapper

    def wrap_function(self, module, attr: str, name: str, on_return=None) -> None:
        """Replace ``module.attr`` wherever a lindyn module holds that object."""
        orig = getattr(module, attr)
        wrapper = self._spanned(orig, name, on_return)
        for mod in [m for k, m in sys.modules.items() if k == "lindyn" or k.startswith("lindyn.")]:
            self._replace(mod, orig, wrapper)

    def wrap_method(self, cls, attr: str, name: str, on_return=None) -> None:
        orig = cls.__dict__[attr]
        self._replace(cls, orig, self._spanned(orig, name, on_return))

    def count_method(self, cls, attr: str, key: str) -> None:
        """Count calls without a span: for scalar arithmetic a span per call
        would cost more than the call itself."""
        orig = cls.__dict__[attr]
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return orig(*args, **kwargs)

        self._replace(cls, orig, wrapper)

    def _replace(self, owner, orig, wrapper) -> None:
        """Rebind every name of ``owner`` (a module or class) bound to orig."""
        for key, val in list(vars(owner).items()):
            if val is orig:
                self._undo.append((owner, key, val))
                setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its direct children
        cover; nested calls of the same name count once per call.
        """
        child_time = [0.0] * len(self.spans)
        for sid, parent, _, _, t0, t1, _ in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        open_names: dict[int, set] = {}
        for sid, parent, name, _, t0, t1, _ in self.spans:
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child_time[sid]
            # inclusive time counts only outermost spans of a name, so a
            # recursive function's time is not counted twice
            ancestors = open_names.get(parent, set()) if parent is not None else set()
            if name not in ancestors:
                row["s"] += t1 - t0
            open_names[sid] = ancestors | {name}
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "item", "t0", "t1", "error"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
