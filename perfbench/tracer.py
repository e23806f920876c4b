"""Span tracer that wraps the public functions of the ``tsq`` modules from outside.

The program itself has no instrumentation, so the traced run patches it:
every public function of the traced modules, and the constructors and
methods named below, are replaced by a wrapper at every module that imports
them by name (``tsym`` does ``from .qcore import apply``, so patching
``qcore.apply`` alone would miss it).  Spans are kept in memory with their
parent and written out when the run ends; self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time


MODULES = ("qcore", "gf2", "measure", "tsym", "grover", "complexity", "epr", "render", "cli")

# Bit-level GF(2) helpers run on one vector in well under a microsecond and
# are called hundreds of thousands of times per round; a span would cost more
# than the work it measures.  Their time is counted in the calling span.
UNTRACED = {
    "gf2.parity",
    "gf2.rank",
    "gf2.is_independent",
    "gf2.reduced_basis",
    "gf2.span",
    "gf2.mask_to_bits",
    "gf2.bits_to_mask",
}

# Class attributes traced as spans: construction (with its validation) of
# the operator, state and process types, and report serialization.
CLASS_SPANS = {
    ("qcore", "UnitaryOp", "__init__"): "qcore.UnitaryOp",
    ("qcore", "StateVector", "__init__"): "qcore.StateVector",
    ("tsym", "ProcessDescription", "__init__"): "tsym.ProcessDescription",
    ("cli", "Report", "to_json"): "cli.serialize",
    ("cli", "Report", "to_text"): "cli.serialize",
}

# Functions that report under one shared layer span.
GROUPS = {
    "epr.direct_trace": "epr.trace",
    "epr.costa_trace": "epr.trace",
    "epr.ts_trace": "epr.trace",
}

ITEM_SPAN = "bench.item"
SETUP_SPAN = "bench.setup"


def span_name(module: str, function: str) -> str:
    if module == "render" and function.endswith("_table"):
        return "render.table"
    qual = f"{module}.{function}"
    return GROUPS.get(qual, qual)


def nbytes(obj, field: str) -> int:
    """Computed bytes of the array in ``obj.field`` (0 when there is none)."""
    return getattr(getattr(obj, field, None), "nbytes", 0)


def _apply_bytes(args, result) -> int:
    # operator + input vector + output vector of one application
    return nbytes(args[0], "matrix") + nbytes(args[1], "amps") + nbytes(result, "amps")


def _constructed_bytes(args, result) -> int:
    return nbytes(args[0], "matrix")  # ``self`` once __init__ has returned


# computed-bytes counter -> (span it is counted at, bytes of one call)
BYTE_COUNTERS = {
    "qcore.op_bytes": ("qcore.UnitaryOp", _constructed_bytes),
    "qcore.apply.bytes": ("qcore.apply", _apply_bytes),
    "qcore.apply_adjoint.bytes": ("qcore.apply_adjoint", _apply_bytes),
}


class Tracer:
    """Records spans as (name, parent index, start, end) while installed."""

    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []
        self.names: set[str] = set()
        self.bytes = dict.fromkeys(BYTE_COUNTERS, 0)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append((name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, parent, start, _ = self.spans[sid]
        self.spans[sid] = (name, parent, start, end)

    def _wrap(self, fn, name: str):
        self.names.add(name)
        counter = next(((c, f) for c, (s, f) in BYTE_COUNTERS.items() if s == name), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:  # outside any benchmark span: input generation
                return fn(*args, **kwargs)
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if counter is not None:
                self.bytes[counter[0]] += counter[1](args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; layer spans are recorded only inside one."""
        self.names.add(name)
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def install(self, package) -> None:
        """Patch the traced functions of ``package`` wherever they are bound."""
        bound_in = [package] + [
            mod for name, mod in list(sys.modules.items())
            if name.startswith(package.__name__ + ".") and mod is not None
        ]
        for short in MODULES:
            mod = getattr(package, short)
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or f"{short}.{attr}" in UNTRACED
                ):
                    continue
                wrapper = self._wrap(fn, span_name(short, attr))
                for where in bound_in:
                    for key, value in list(vars(where).items()):
                        if value is fn:
                            self._patch(where, key, wrapper)
        for (short, cls_name, attr), name in CLASS_SPANS.items():
            cls = getattr(getattr(package, short), cls_name)
            self._patch(cls, attr, self._wrap(vars(cls)[attr], name))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for sid, (name, _, start, end) in enumerate(self.spans):
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - child_time[sid]
        return out

    def write(self, path) -> None:
        """One JSON line per span: [id, parent, root span id, name, start_s, end_s].

        Spans of one benchmark item share the root span id.
        """
        root = [0] * len(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, start, end) in enumerate(self.spans):
                root[sid] = sid if parent < 0 else root[parent]
                fh.write(json.dumps([sid, parent, root[sid], name, start, end]) + "\n")

