"""Self-tests of the nlpf benchmark, on the tiny 1D workload ``tiny1d``.

    python3 nlpf_bench/selftest.py        # from the repository root

Checks that every metric named in BENCHMARK.json prints exactly once with its
unit, that a NaN in the initial field counts as a failed run, that traced and
untraced runs give bit-identical final fields, that seed 0 gives the preset
configs unchanged, and that the command fails without printing a result in a
directory holding only the benchmark's own files.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import run as bench  # pins the BLAS threads before numpy loads

MODS = bench.load_nlpf()

import numpy as np  # noqa: E402
from nlpf import presets  # noqa: E402
from nlpf.config import InitSpec  # noqa: E402
from nlpf.fields_io import write_field  # noqa: E402
from nlpf.grid import build_grid  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, build_workload  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SCRATCH = os.path.join(bench.WORKDIR, "selftest")
with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run_cli(trace: int, cwd: str = bench.ROOT):
    cmd = [sys.executable, os.path.join(cwd, "nlpf_bench", "run.py"), "--workload",
           "tiny1d", "--seed", "1", "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_every_metric_prints_once_with_its_unit():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run_cli(trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected, (trace, sorted(set(got) ^ set(expected)))
        for name, unit in expected.items():
            printed = [ln for ln in lines[:-1] if ln.split(" = ")[0] == name]
            assert len(printed) == 1 and printed[0].endswith(f" {unit}"), (name, printed)


def test_nan_initial_field_counts_as_failed_run():
    workload = build_workload("tiny1d", 0)
    os.makedirs(SCRATCH, exist_ok=True)
    configs = []
    for cfg in workload.configs:
        grid = build_grid(cfg.dim, cfg.h, cfg.delta if cfg.is_nonlocal else 0.0)
        u0 = (grid.coords()[grid.interior_ids, 0] <= 0.2).astype(float)
        u0[grid.n_interior // 2] = np.nan
        path = os.path.join(SCRATCH, f"nan_{cfg.label}.csv")
        write_field(path, grid, u0, region="interior")
        configs.append(replace(cfg, init=InitSpec(kind="file", path=path)))
    workload = replace(workload, configs=configs)
    it = bench.run_iteration(workload, os.path.join(SCRATCH, "nan"), MODS)
    failed = bench.check_iteration(workload, it)
    assert set(failed) == {c.label for c in configs}, failed


def test_traced_and_untraced_fields_are_bit_identical():
    workload = build_workload("tiny1d", 1)
    originals = {name: dict(vars(mod)) for name, mod in MODS.items()}
    plain = bench.run_iteration(workload, os.path.join(SCRATCH, "plain"), MODS)
    tracer = Tracer()
    with tracer.installed(MODS):
        traced = bench.run_iteration(workload, os.path.join(SCRATCH, "traced"), MODS,
                                     tracer)
    assert tracer.spans and not plain.errors and not traced.errors
    assert bench.same_fields(bench.final_fields(plain), bench.final_fields(traced))
    for name, mod in MODS.items():  # every wrapped attribute is restored
        assert all(vars(mod)[k] is v for k, v in originals[name].items()), name


def test_seed0_reproduces_the_presets():
    preset = {
        "ex3_nonlocal_CH": presets.example3_config("nonlocal_CH"),
        "ex3_nonlocal_AC": presets.example3_config("nonlocal_AC"),
        "ex3_local_obstacle": presets.example3_config("local_obstacle"),
        "ex3_local_regular": presets.example3_config("local_regular"),
        "ex1_nonlocal_CH": presets.example1_config("nonlocal_CH"),
        "ex1_local_obstacle": presets.example1_config("local_obstacle"),
        "ex2_local_obstacle": presets.example2_config(variant="local_obstacle"),
    }
    for d in presets.EX2_DELTAS:
        cfg = presets.example2_config(delta=d)
        preset[cfg.label] = cfg
    for name in WORKLOADS:
        for cfg in build_workload(name, 0).configs:
            ref = preset[cfg.label]
            assert replace(cfg, T_final=ref.T_final, snapshots=ref.snapshots) == ref
            assert cfg.init.params == ref.init.params  # bit for bit
        for seed in (1, 2, 9):
            for cfg in build_workload(name, seed).configs:
                ref = preset[cfg.label]
                cell = 1.0 / round(1.0 / cfg.h)
                cells = {round((p - q) / cell, 9)
                         for p, q in zip(cfg.init.params, ref.init.params)}
                assert len(cells) == 1 and float(cells.pop()).is_integer()


def test_fails_without_the_program_sources():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "nlpf_bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
    proc = _run_cli(0, cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main() -> int:
    tests = [obj for name, obj in globals().items() if name.startswith("test_")]
    n_fail = 0
    try:
        for test in tests:
            try:
                test()
            except AssertionError as exc:
                n_fail += 1
                print(f"FAIL  {test.__name__}: {exc!r}")
            else:
                print(f"PASS  {test.__name__}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(tests) - n_fail}/{len(tests)} self-tests passed")
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
