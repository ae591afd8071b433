"""Spans around calls into cplab's public functions, recorded from outside.

`Tracer.install` wraps each target function and rebinds the wrapper at every
name the function is looked up by: the attribute of its own module, every
`from ... import` copy in other cplab modules, and every module-level tuple
that holds it (selfcheck.ALL_CHECKS).
Point constructors are counted through their `__post_init__`, and the two
numpy eigensolvers through their `numpy.linalg` attributes.  `uninstall`
restores every binding it changed.

A span is (name, start, end, parent index, n); spans are kept in memory and
written out by the caller when the run ends.
"""
from __future__ import annotations

import sys
import time

import numpy as np

# (module, function) pairs wrapped with spans; the module is a cplab submodule
SPAN_TARGETS = (
    ("reduction", "reduce"),
    ("reduction", "normalized_diagonalizer"),
    ("reduction", "embed"),
    ("hamiltonians", "matrix_vector_field"),
    ("hamiltonians", "reduced_vector_field"),
    ("hamiltonians", "matrix_hamiltonian"),
    ("hamiltonians", "reduced_hamiltonian"),
    ("traces", "a4_total"),
    ("traces", "trace_power_oracle"),
    ("traces", "tr_q4_closed"),
    ("lax", "lax_pair"),
    ("lax", "char_poly"),
    ("lax", "spectral_match"),
    ("lax", "zero_curvature_residual"),
    ("dynamics", "integrate"),
    ("dynamics", "monitor_invariants"),
    ("dynamics", "equivariance_check"),
    ("confluence", "residual_ratio_sweep"),
    ("mmkdv", "calibrate"),
)

# (module, class) pairs whose constructions are counted
CONSTRUCTOR_TARGETS = (("phase", "MatrixPhasePoint"), ("reduction", "ReducedPoint"))

EIGENSOLVERS = ("eig", "eigvals")

# Lax matrices are 2n x 2n; every other array argument is n x n or length n
_HALF_SIZE = {"lax.char_poly"}


def _size_of(args, half: bool) -> int:
    for a in args:
        n = getattr(a, "n", None)
        if isinstance(n, int):
            return n
        if isinstance(a, np.ndarray) and a.ndim >= 1:
            return a.shape[0] // 2 if half else a.shape[0]
    return 0


class Tracer:
    """Records spans and counters while installed; one instance per run."""

    def __init__(self, extra_targets=()):
        self.targets = tuple(SPAN_TARGETS) + tuple(extra_targets)
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        half = name in _HALF_SIZE
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, _size_of(args, half))

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def reset(self):
        """Drop recorded spans and zero the counters; bindings stay."""
        self.spans.clear()
        self._stack.clear()
        for k in self.counts:
            self.counts[k] = 0

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for mod_name, attr in self.targets:
            mod = sys.modules[f"cplab.{mod_name}"]
            fn = getattr(mod, attr)
            wrappers[fn] = self._wrap(f"{mod_name}.{attr}", fn)
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "cplab" or k.startswith("cplab.")) and m is not None]

        def lookup(value):
            if not callable(value) or isinstance(value, type):
                return None
            try:
                return wrappers.get(value)
            except TypeError:  # unhashable callable
                return None

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, tuple):
                    if any(lookup(v) for v in value):
                        self._set(mod, attr, tuple(lookup(v) or v for v in value))
                elif lookup(value) is not None:
                    self._set(mod, attr, lookup(value))
        for mod_name, cls_name in CONSTRUCTOR_TARGETS:
            cls = getattr(sys.modules[f"cplab.{mod_name}"], cls_name)
            self._set(cls, "__post_init__",
                      self._counter(f"{mod_name}.{cls_name}.constructions",
                                    cls.__post_init__))
        for solver in EIGENSOLVERS:
            self._set(np.linalg, solver,
                      self._counter("numpy.eigensolves", getattr(np.linalg, solver)))
        self.reset()

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, and per-n totals."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, n in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, n) in enumerate(spans):
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "by_n": {}})
            dur = end - start
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
            calls_n, total_n = rec["by_n"].get(n, (0, 0.0))
            rec["by_n"][n] = (calls_n + 1, total_n + dur)
        return out
