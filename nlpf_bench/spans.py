"""Span recorder for the traced benchmark run.

The program is not instrumented.  ``Tracer.installed()`` replaces, for the
duration of a ``with`` block, the module attributes through which each layer
of ``nlpf`` is entered by wrappers that record a span (name, start, end,
parent, attributes) and restores the originals on exit.  Spans stay in memory;
``per_layer_metrics`` folds one iteration's spans into the per-layer metrics
and ``write_jsonl`` dumps them when the benchmark ends.

The wrappers change no arithmetic: the only argument they add is a CG
iteration-counting callback, so traced and untraced runs give bit-identical
fields (checked by the self-tests).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: (module, attribute, span name) of every plain layer entry point wrapped.
PLAIN_ENTRIES = (
    ("stepper", "pdas_step_CH", "pdas.step"),
    ("stepper", "pdas_step_local_obstacle", "pdas.step"),
    ("stepper", "step_temperature", "stepper.step_temperature"),
    ("stepper", "step_phase_local_regular", "stepper.step_phase_local_regular"),
    ("stepper", "convolve", "nonlocal_ops.convolve"),
    ("stepper", "build_grid", "grid.build_grid"),
    ("stepper", "build_stencil", "nonlocal_ops.build_stencil"),
    ("nonlocal_ops", "convolve", "nonlocal_ops.convolve"),
    ("pdas", "convolve", "nonlocal_ops.convolve"),
    ("pdas", "spsolve", "pdas.spsolve"),
    ("repro", "write_field", "fields_io.write"),
    ("repro", "write_vtk", "fields_io.write"),
    ("repro", "interface_width", "metrics.interface_width"),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span list of one traced benchmark iteration."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    # -- wrappers ----------------------------------------------------------

    def _plain(self, original, name):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = original(*args, **kwargs)
            if name == "pdas.step":
                # _pdas_iterate restarts once after max_iters warm sweeps
                max_iters = next(a.max_iters for a in args if hasattr(a, "max_iters"))
                rec.attrs = {"sweeps": out.iters, "converged": out.converged,
                             "restarted": out.iters > max_iters}
            elif name == "fields_io.write":
                rec.attrs = {"bytes": os.path.getsize(args[0])}
            return out
        return traced

    def _cg(self, original):
        def traced(A, b, *args, callback=None, **kwargs):
            iters = 0

            def count(xk):
                nonlocal iters
                iters += 1
                if callback is not None:
                    callback(xk)

            with self.span("pdas.cg") as rec:
                x, info = original(A, b, *args, callback=count, **kwargs)
            rec.attrs = {"iters": iters, "info": int(info)}
            return x, info
        return traced

    def _factorized(self, original, name):
        def traced(A):
            with self.span(name):
                solve = original(A)

            def traced_solve(b):
                with self.span(f"{name}.solve"):
                    return solve(b)
            return traced_solve
        return traced

    @contextmanager
    def installed(self, nlpf_modules: dict):
        """Wrap every layer entry point of ``nlpf_modules`` (name -> module)."""
        saved = []

        def patch(mod_name, attr, make):
            mod = nlpf_modules[mod_name]
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, make(original))

        try:
            for mod_name, attr, name in PLAIN_ENTRIES:
                patch(mod_name, attr, lambda f, n=name: self._plain(f, n))
            patch("pdas", "cg", self._cg)
            patch("pdas", "factorized", lambda f: self._factorized(f, "pdas.factorize"))
            patch("stepper", "factorized",
                  lambda f: self._factorized(f, "stepper.factorize"))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


# --------------------------------------------------------------------------
# folding spans into metrics


def _durations(spans):
    dur = [s.end - s.start for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s.parent is not None:
            child[s.parent] += d
    return dur, [d - c for d, c in zip(dur, child)]


def per_layer_metrics(spans: list, wall_s: float) -> dict:
    """Per-layer seconds and counts of one traced iteration (name -> value)."""
    dur, self_t = _durations(spans)

    def pick(name, parent_name=None):
        return [i for i, s in enumerate(spans) if s.name == name and (
            parent_name is None
            or (s.parent is not None and spans[s.parent].name == parent_name))]

    def total(ids, times=dur):
        return sum(times[i] for i in ids)

    conv = pick("nonlocal_ops.convolve")
    steps = pick("pdas.step")
    cg = pick("pdas.cg")
    direct = pick("pdas.spsolve") + pick("pdas.factorize.solve")
    fact = pick("pdas.factorize")
    writes = pick("fields_io.write")
    roots = [i for i, s in enumerate(spans) if s.parent is None]
    run_ids = pick("stepper.run")
    sweeps = sum(spans[i].attrs["sweeps"] for i in steps)
    cg_iters = sum(spans[i].attrs["iters"] for i in cg)
    return {
        "nonlocal_ops.convolve_s": total(conv),
        "nonlocal_ops.convolve_calls": len(conv),
        "nonlocal_ops.convolve_ms_per_call": 1e3 * total(conv) / max(len(conv), 1),
        "nonlocal_ops.build_stencil_s": total(pick("nonlocal_ops.build_stencil")),
        "pdas.step_s": total(steps),
        "pdas.self_s": total(steps, self_t),
        "pdas.steps": len(steps),
        "pdas.sweeps": sweeps,
        "pdas.sweeps_per_step": sweeps / max(len(steps), 1),
        "pdas.restarts": sum(spans[i].attrs["restarted"] for i in steps),
        "pdas.nonconverged_steps": sum(not spans[i].attrs["converged"] for i in steps),
        "pdas.cg_s": total(cg),
        "pdas.cg_calls": len(cg),
        "pdas.cg_iters": cg_iters,
        "pdas.cg_iters_per_call": cg_iters / max(len(cg), 1),
        "pdas.cg_failures": sum(spans[i].attrs["info"] != 0 for i in cg),
        "pdas.direct_s": total(direct),
        "pdas.direct_calls": len(direct),
        "pdas.factorize_s": total(fact),
        "pdas.factorize_calls": len(fact),
        "stepper.run_s": total(run_ids),
        "stepper.self_s": total(run_ids, self_t),
        "stepper.heat_s": total(pick("stepper.step_temperature")),
        "stepper.heat_factorize_s": total(
            pick("stepper.factorize", "stepper.step_temperature")),
        "stepper.phase_regular_s": total(pick("stepper.step_phase_local_regular")),
        "grid.build_s": total(pick("grid.build_grid")),
        "fields_io.write_s": total(writes),
        "fields_io.files": len(writes),
        "fields_io.bytes": sum(spans[i].attrs["bytes"] for i in writes),
        "repro.write_snapshots_s": total(pick("repro.write_snapshots")),
        "fields_io.report_s": total(pick("fields_io.build_report")
                                    + pick("fields_io.write_report")),
        "metrics.interface_width_s": total(pick("metrics.interface_width")),
        "trace.uncovered_s": wall_s - total(roots),
        "trace.spans": len(spans),
    }


def write_jsonl(path: str, header: dict, iterations: list) -> None:
    """One header line, then one line per span (iteration, id, parent, ...)."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for it, spans in enumerate(iterations):
            for sid, s in enumerate(spans):
                fh.write(json.dumps({
                    "iteration": it, "id": sid, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, **s.attrs}) + "\n")
