"""Spans and counters recorded around fidelion's public functions, from the
outside.

``Tracer.installed`` replaces each traced function at every module attribute
that holds it (``fidelion.classifiers.apply_two_local`` as well as
``fidelion.channels.apply_two_local``), so calls made inside the library are
seen too, and puts the originals back on exit. A span is (name, start, end,
parent); spans stay in memory and ``save`` writes them out at the end. Calls
that are too frequent or too small for a span (numpy eigensolvers, the
optimizer's parameter-to-unitary map) are only counted.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array

import numpy as np

import fidelion
import fidelion.cli  # noqa: F401  (loads every fidelion module the CLI uses)
from fidelion import entropy

#: span name -> (module, attribute) of the function
SPANS = {
    "cli.main": ("fidelion.cli", "main"),
    "states.random_density_matrix": ("fidelion.states", "random_density_matrix"),
    "states.decompose": ("fidelion.states", "decompose"),
    "states.schmidt_state": ("fidelion.states", "schmidt_state"),
    "linalg.partial_trace": ("fidelion.linalg", "partial_trace"),
    "linalg.matrix_log_on_support": ("fidelion.linalg", "matrix_log_on_support"),
    "channels.apply_one_sided": ("fidelion.channels", "apply_one_sided"),
    "channels.apply_two_local": ("fidelion.channels", "apply_two_local"),
    "channels.depolarizing": ("fidelion.channels", "depolarizing"),
    "classifiers.certify": ("fidelion.classifiers", "certify"),
    "classifiers.threshold": ("fidelion.classifiers", "threshold"),
    "fidelity.fidelity_optimize": ("fidelion.fidelity", "fidelity_optimize"),
    "fidelity.r_quantity": ("fidelion.fidelity", "r_quantity"),
    "fidelity.fidelity_two_qubit": ("fidelion.fidelity", "fidelity_two_qubit"),
    "theorems.run_suite": ("fidelion.theorems", "run_suite"),
    "theorems.check_lemma1": ("fidelion.theorems", "check_lemma1"),
    "theorems.check_renyi2_bounds": ("fidelion.theorems", "check_renyi2_bounds"),
    "theorems.check_tsallis_bounds": ("fidelion.theorems", "check_tsallis_bounds"),
    "theorems.check_min_entropy_bounds": ("fidelion.theorems", "check_min_entropy_bounds"),
    "theorems.check_weyl_observations": ("fidelion.theorems", "check_weyl_observations"),
    "theorems.check_relative_entropy_theorem": (
        "fidelion.theorems", "check_relative_entropy_theorem"),
}

#: counter name -> (module, attribute) of each counted function
COUNTS = {
    "linalg.eig": [("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh")],
    "linalg.svd": [("numpy.linalg", "svd")],
    "fidelity.unitary_from_params": [("fidelion.fidelity", "unitary_from_params")],
}

#: the public entropy functionals share one span name, "entropy"
ENTROPY_FUNCTIONS = sorted(
    name for name, fn in vars(entropy).items()
    if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == entropy.__name__
)


class Tracer:
    """Spans and counts of the traced passes of one run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_pass = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []
        self._pass = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name: str, fn, on_result=None):
        nid = self._id(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_pass.append(self._pass)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self._stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                self._stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts = self.counts[self._pass]
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _add_evals(self, result) -> None:
        counts = self.counts[self._pass]
        counts["fidelity.fidelity_optimize.evals"] = (
            counts.get("fidelity.fidelity_optimize.evals", 0) + int(result.iterations))

    @contextlib.contextmanager
    def installed(self, pass_no: int):
        """Trace every call made inside the block as part of pass ``pass_no``."""
        self._pass = pass_no
        self.counts.setdefault(pass_no, {})
        patches: list[tuple[object, str, object]] = []

        def replace(original, wrapper, modules):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

        library = [m for n, m in sys.modules.items()
                   if n == "fidelion" or n.startswith("fidelion.")]
        targets = [(name, sys.modules[mod], attr) for name, (mod, attr) in SPANS.items()]
        targets += [("entropy", entropy, attr) for attr in ENTROPY_FUNCTIONS]
        for name, module, attr in targets:
            original = getattr(module, attr, None)
            if original is None:  # renamed or removed: the layer reads zero
                continue
            hook = self._add_evals if name == "fidelity.fidelity_optimize" else None
            replace(original, self._span(name, original, hook), library)
        for name, sites in COUNTS.items():
            for mod, attr in sites:
                original = getattr(sys.modules[mod], attr, None)
                if original is not None:
                    replace(original, self._counter(name, original), library + [sys.modules[mod]])

        density = fidelion.states.DensityMatrix
        original_post_init = density.__post_init__
        density.__post_init__ = self._span("states.DensityMatrix", original_post_init)
        try:
            yield self
        finally:
            density.__post_init__ = original_post_init
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)
            self._pass = -1

    def _arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        pass_no = np.frombuffer(self.span_pass, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        return name, parent, pass_no, start, end

    def layer_totals(self, pass_no: int, op_starts, op_refs) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self time in reference units) within one pass.

        Self time is a span's duration minus the durations of its direct
        children; it is divided by the reference unit measured during the
        operation the span ran in (the last of ``op_starts`` at or before the
        span's start)."""
        name, parent, pass_of, start, end = self._arrays()
        duration = end - start
        child = parent >= 0
        children = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
        sel = pass_of == pass_no
        op = np.searchsorted(np.asarray(op_starts), start[sel], side="right") - 1
        own = (duration - children)[sel] / np.asarray(op_refs)[np.maximum(op, 0)]
        calls = np.bincount(name[sel], minlength=len(self.names))
        self_ref = np.bincount(name[sel], weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_ref[i])) for i, n in enumerate(self.names)}

    def save(self, path) -> int:
        """Write every span (times relative to the first span) to an .npz."""
        name, parent, pass_no, start, end = self._arrays()
        t0 = start.min() if len(start) else 0.0
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 pass_no=pass_no, start=start - t0, end=end - t0)
        return len(start)
