"""Layer tracing from outside the package: wrap public functions, keep spans.

A layer is a floqlux module and its boundary is a call into one of the
module's public functions listed in ``TARGETS``.  floqlux modules import
functions by name (``diagonalize_static`` is bound in circuit, floquet,
decoherence, polariton, sweeps and the package root), so ``install`` wraps
every binding of the same function object in every loaded floqlux module,
and ``uninstall`` puts every original back.

Spans live in memory as ``[id, parent, name, start, end, request]`` and are
written out once, by ``dump``, after the traced work is over.  A request is
one top-level call (a ``cli.main``, or one library call of a certification);
its spans share its root span's id.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

TARGETS = (
    ("circuit", "diagonalize_static"),
    ("circuit", "transition_spline"),
    ("floquet", "solve_floquet"),
    ("floquet", "monodromy_oracle"),
    ("decoherence", "fourier_operator_elements"),
    ("decoherence", "depolarization_rates"),
    ("decoherence", "pure_dephasing_rate"),
    ("decoherence", "coherence_rates"),
    ("decoherence", "quasienergy_derivatives"),
    ("decoherence", "find_sweet_spots"),
    ("polariton", "rwa_params_from_circuit"),
    ("polariton", "floquet_dipole_coupling"),
    ("polariton", "fit_polariton"),
    ("spectroscopy", "spectroscopy_map"),
    ("config", "parse_config"),
    ("sweeps", "run_sweep"),
    ("sweeps", "export"),
    ("cli", "main"),
)

LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TARGETS)


def _floqlux_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "floqlux" or name.startswith("floqlux."))]


def binding_sites(original):
    """(module, attribute) pairs whose value is ``original``."""
    return [(m, attr) for m in _floqlux_modules()
            for attr, value in list(vars(m).items()) if value is original]


class Tracer:
    """Records a span per wrapped call while installed."""

    def __init__(self, on_return=None):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        # called as on_return(layer_name, result) after each traced call
        self._on_return = on_return

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {f"{mod}.{fn}": getattr(importlib.import_module(f"floqlux.{mod}"), fn)
                     for mod, fn in TARGETS}
        for name, original in originals.items():
            wrapper = self._wrap(name, original)
            for module, attr in binding_sites(original):
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        on_return = self._on_return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            request = spans[parent][5] if parent is not None else sid
            span = [sid, parent, name, time.perf_counter(), None, request]
            spans.append(span)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(name, out)
            return out

        return traced

    def dump(self, path) -> None:
        """Write the spans as JSON lines (id, parent, name, start, end, request)."""
        keys = ("id", "parent", "name", "start", "end", "request")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_totals(self) -> dict:
        """Per layer: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name, so a layer
        reached again below itself is not counted twice.  Self time is a
        span's duration minus its direct children's durations (calls are
        nested and single-threaded, so children never overlap).
        """
        child_time = defaultdict(float)
        for sid, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in LAYER_NAMES}
        for sid, parent, name, start, end, _ in self.spans:
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[sid]
            if not self._has_ancestor(parent, name):
                entry["s"] += end - start
        return totals

    def _has_ancestor(self, sid, name) -> bool:
        while sid is not None:
            if self.spans[sid][2] == name:
                return True
            sid = self.spans[sid][1]
        return False
