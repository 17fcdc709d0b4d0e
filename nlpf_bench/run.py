"""nlpf benchmark: time to solution of the reference experiments, by layer.

Run from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``):

    python3 nlpf_bench/run.py --workload nonlocal2d --seed 0 --seconds 55 --trace 0

One process, one BLAS thread, one caller: the workload's runs go back to back
in a closed loop, repeated while another repetition still fits in
``--seconds`` (at least once).
Each iteration is checked by ``workloads.check_run``/``check_workload``,
which recompute the invariants instead of reading ``report.json``.

``--trace 0`` prints the end-to-end metrics (medians over the iterations);
``--trace 1`` alternates untraced and traced iterations and prints the
per-layer metrics instead (see README.md for the layer -> metric -> workload
map).  Metric names and units are those BENCHMARK.json lists.  The last
stdout line is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``, where ``attempted`` and ``failed`` count single runs (configs),
so ``failed`` is ``failed_runs``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Pin the BLAS/OpenMP pools before numpy is imported (as `nlpf --threads 1`).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".nlpf_bench")

#: Units of metrics whose values must repeat exactly between traced iterations.
COUNT_UNITS = ("count", "bytes", "sweeps/step", "iters/call")

#: Setup is repeated until both limits are reached; its median is reported.
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 1.0


def metric_units(trace: bool) -> dict:
    """name -> unit of every metric BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def load_nlpf() -> dict:
    """Import ``nlpf`` from this checkout's ``src/``; exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "nlpf", "__init__.py")):
        print(f"error: no nlpf sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import nlpf

    if not os.path.abspath(nlpf.__file__).startswith(SRC + os.sep):
        print(f"error: imported nlpf from {nlpf.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    from nlpf import fields_io, nonlocal_ops, pdas, repro, stepper

    return {"fields_io": fields_io, "nonlocal_ops": nonlocal_ops, "pdas": pdas,
            "repro": repro, "stepper": stepper}


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# --------------------------------------------------------------------------
# one iteration: every config of the workload, run and written


@dataclass
class Iteration:
    wall_s: float = 0.0
    run_s: float = 0.0
    results: dict = field(default_factory=dict)  # label -> (result, manifest, dir)
    errors: dict = field(default_factory=dict)  # label -> message


def run_iteration(workload, outdir: str, mods: dict, tracer=None) -> Iteration:
    """Run and write every config; ``wall_s`` ends with the last report on disk."""
    stepper, repro, fields_io = mods["stepper"], mods["repro"], mods["fields_io"]
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    it = Iteration()
    t0 = time.perf_counter()
    for cfg in workload.configs:
        path = os.path.join(outdir, cfg.label)
        try:
            r0 = time.perf_counter()
            with span("stepper.run"):
                res = stepper.run(cfg)
            r1 = time.perf_counter()
            with span("repro.write_snapshots"):
                manifest = repro.write_snapshots(res, path)
            with span("fields_io.build_report"):
                report = fields_io.build_report(result=res, snapshots_manifest=manifest)
            with span("fields_io.write_report"):
                fields_io.write_report(os.path.join(path, "report.json"), report)
        except Exception as exc:  # a failed run is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            it.errors[cfg.label] = f"raised {type(exc).__name__}: {exc}"
            continue
        it.run_s += r1 - r0
        it.results[cfg.label] = (res, manifest, path)
    it.wall_s = time.perf_counter() - t0
    return it


def check_iteration(workload, it: Iteration) -> dict:
    """label -> problems, for every run of the iteration that is not correct."""
    from workloads import check_run, check_workload

    problems = {label: [msg] for label, msg in it.errors.items()}
    for label, (res, manifest, path) in it.results.items():
        found = check_run(res, manifest, path)
        if found:
            problems[label] = found
    cross = check_workload(workload, {lbl: r[0] for lbl, r in it.results.items()})
    for label, found in cross.items():
        problems.setdefault(label, []).extend(found)
    for label, found in problems.items():
        print(f"check failed: {workload.name}/{label}: {'; '.join(found)}",
              file=sys.stderr)
    return problems


def measure_setup(workload, stepper) -> float:
    """Median over repetitions of grid + stencil + initial state, all configs."""
    samples = []
    start = time.perf_counter()
    while (len(samples) < SETUP_MIN_REPS
           or time.perf_counter() - start < SETUP_MIN_SECONDS):
        t0 = time.perf_counter()
        for cfg in workload.configs:
            grid = stepper.build_grid(cfg.dim, cfg.h, cfg.delta if cfg.is_nonlocal else 0.0)
            stencil = (stepper.build_stencil(grid, cfg.kernel_spec())
                       if cfg.is_nonlocal else None)
            stepper.initial_state(cfg, grid, stencil)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def final_fields(it: Iteration) -> dict:
    return {label: r[0].states[-1] for label, r in it.results.items()}


def same_fields(a: dict, b: dict) -> bool:
    import numpy as np

    def arrays(st):
        return [x for x in (st.theta, st.u, st.w, st.lam) if x is not None]

    return a.keys() == b.keys() and all(
        len(arrays(a[k])) == len(arrays(b[k]))
        and all(np.array_equal(x, y, equal_nan=True)
                for x, y in zip(arrays(a[k]), arrays(b[k])))
        for k in a)


# --------------------------------------------------------------------------


@dataclass
class Measurement:
    metrics: dict
    iterations: int
    attempted: int = 0
    failed: int = 0
    ok: bool = True
    spans: list = field(default_factory=list)  # one span list per traced iteration


def measure(workload, seconds: float, trace: bool, mods: dict, outdir: str,
            counts=()) -> Measurement:
    """Closed loop of whole-workload iterations within ``seconds``.

    ``counts`` names the per-layer metrics that must repeat exactly.
    """
    from spans import Tracer, per_layer_metrics

    untraced, traced = [], []
    attempted = failed = 0
    ok = True
    setup_s = measure_setup(workload, mods["stepper"])
    deadline = time.perf_counter() + seconds
    lap_s = []
    peak_rss_mb = None
    while True:
        lap_start = time.perf_counter()
        fields = []
        for tracer in [None] + ([Tracer()] if trace else []):
            with tracer.installed(mods) if tracer is not None else nullcontext():
                it = run_iteration(workload, outdir, mods, tracer)
            attempted += len(workload.configs)
            failed += len(check_iteration(workload, it))
            fields.append(final_fields(it))
            it.results.clear()  # keep one iteration's fields in memory at a time
            if tracer is None:
                untraced.append(it)
            else:
                traced.append((it, tracer.spans))
        if trace and not same_fields(*fields):
            print("check failed: traced and untraced final fields differ",
                  file=sys.stderr)
            ok = False
        # no lap that would end past the deadline: a run lasts at most
        # ``seconds`` (plus set-up), unless a single lap is longer
        now = time.perf_counter()
        lap_s.append(now - lap_start)
        if peak_rss_mb is None:  # set-up and one lap: later laps add heap slack
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if now + statistics.median(lap_s) > deadline:
            break

    med = statistics.median
    if not trace:
        for name in ("wall_s", "run_s"):
            values = [getattr(it, name) for it in untraced]
            print(f"{name} per iteration: " + ", ".join(f"{v:.4f}" for v in values),
                  file=sys.stderr)
        metrics = {
            "wall_s": med(it.wall_s for it in untraced),
            "run_s": med(it.run_s for it in untraced),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        return Measurement(metrics, len(untraced), attempted, failed, ok)

    per_it = [per_layer_metrics(spans, it.wall_s) for it, spans in traced]
    for name in counts:
        values = {m[name] for m in per_it}
        if len(values) > 1:
            print(f"check failed: count {name} differs between traced "
                  f"iterations: {sorted(values)}", file=sys.stderr)
            ok = False
    metrics = {name: per_it[0][name] if name in counts else med(m[name] for m in per_it)
               for name in per_it[0]}
    metrics["trace.wall_s"] = med(it.wall_s for it, _ in traced)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - med(it.wall_s for it in untraced))
    return Measurement(metrics, len(traced), attempted, failed, ok,
                       [s for _, s in traced])


#: Disjoint per-layer times whose shares of the traced wall time are printed.
SHARE_OF_WALL = (
    "pdas.cg_s", "pdas.direct_s", "pdas.factorize_s", "pdas.self_s",
    "nonlocal_ops.convolve_s", "stepper.heat_s", "stepper.phase_regular_s",
    "stepper.self_s", "fields_io.write_s", "fields_io.report_s",
    "metrics.interface_width_s", "trace.uncovered_s",
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    mods = load_nlpf()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from spans import write_jsonl
    from workloads import WORKLOADS, build_workload, seed_shift

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {WORKLOADS}",
              file=sys.stderr)
        return 2
    units = metric_units(bool(args.trace))
    workload = build_workload(args.workload, args.seed)
    machine = machine_info()
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"workload: {workload.name} seed {args.seed} (geometry shifted by "
          f"{seed_shift(args.seed)} cells), runs: "
          + ", ".join(c.label for c in workload.configs))

    outdir = os.path.join(WORKDIR, f"out-{workload.name}-{os.getpid()}")
    # a terminated run still removes its work files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        m = measure(workload, args.seconds, bool(args.trace), mods, outdir,
                    counts=[n for n, u in units.items() if u in COUNT_UNITS])
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    metrics = {name: m.metrics[name] for name in units}
    print(f"{m.iterations} {'traced' if args.trace else 'untraced'} iteration(s); "
          f"{m.attempted} runs attempted, {m.failed} failed (failed_runs = {m.failed})")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if args.trace:
        wall = metrics["trace.wall_s"]
        shares = sorted(((metrics[k] / wall, k) for k in SHARE_OF_WALL), reverse=True)
        print("share of traced wall_s: "
              + ", ".join(f"{k} {100 * f:.1f}%" for f, k in shares if f >= 0.005))
        trace_path = os.path.join(
            WORKDIR, f"trace-{workload.name}-seed{args.seed}.jsonl")
        write_jsonl(trace_path, {"machine": machine, "workload": workload.name,
                                 "seed": args.seed}, m.spans)
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    print(json.dumps({
        "correct": bool(m.ok and m.failed == 0),
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
