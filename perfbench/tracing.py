"""In-memory span recording around calls into the package.

The tracer wraps module functions from the outside: `patch` replaces the
function in its defining module and in every loaded module of the package
that imported the same object by name, so the package itself is not edited.

Spans stay in memory.  Process-pool workers started by fork inherit the
patched functions; an at-fork hook gives each worker an empty span list, and
a worker appends its spans to a file of its own whenever its outermost span
(one pool task) closes, so nothing depends on how the pool shuts its workers
down.  `collect` merges the files with the spans of this process.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable

Attrs = Callable[[tuple, dict, Any], dict]


class Tracer:
    def __init__(self, span_dir: Path, package: str):
        self.span_dir = span_dir
        self.package = package
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.absent: list[str] = []
        span_dir.mkdir(parents=True, exist_ok=True)
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.next_id = 0

    def _flush(self) -> None:
        with open(self.span_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")
        self.spans = []

    def wrap(self, fn: Callable, name: str, attrs: Attrs | None = None, cached: bool = False):
        """A wrapper recording one span per call of fn.

        attrs(args, kwargs, result) adds fields to the span of a call that
        returned (none, if it cannot read them); cached=True (for an lru_cache object) records whether the
        call missed the cache, i.e. ran the function body.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            sid = self.next_id
            self.next_id += 1
            self.stack.append(sid)
            misses = fn.cache_info().misses if cached else 0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, parent, name, t0, None)
                raise
            extra = None
            if attrs:
                try:
                    extra = attrs(args, kwargs, result)
                except (LookupError, TypeError, ValueError, AttributeError):
                    # the call's signature changed: keep timing it, and
                    # report its attributes as absent
                    if f"{name} attributes" not in self.absent:
                        self.absent.append(f"{name} attributes")
            if cached:
                extra = dict(extra or {}, miss=fn.cache_info().misses > misses)
            self._close(sid, parent, name, t0, extra)
            return result

        return traced

    def _close(self, sid: int, parent: int | None, name: str, t0: float, extra) -> None:
        t1 = time.perf_counter()
        self.stack.pop()
        self.spans.append((self.pid, sid, parent, name, t0, t1, extra))
        if not self.stack and self.pid != self.main_pid:
            self._flush()

    def patch(self, module: str, attr: str, name: str, attrs: Attrs | None = None, cached: bool = False) -> bool:
        """Wrap module.attr everywhere the package refers to it: module
        attributes bound to the same object, and values of module-level dicts
        (registries such as a table of runner functions).

        Returns False, and records the name as absent, when the attribute
        does not exist (a later version of the package may have removed it).
        """
        mod = sys.modules[f"{self.package}.{module}"]
        original = getattr(mod, attr, None)
        if original is None:
            self.absent.append(f"{module}.{attr}")
            return False
        traced = self.wrap(original, name, attrs, cached)
        for mname, m in list(sys.modules.items()):
            if mname != self.package and not mname.startswith(self.package + "."):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = traced
        return True

    def collect(self) -> list[tuple]:
        """Spans of this process plus those the pool workers wrote."""
        spans = list(self.spans)
        for path in sorted(self.span_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(tuple(json.loads(line)) for line in fh)
            path.unlink()
        return spans
