"""Dump the outputs of the reference runs, and compare two dumps.

    python tests/outputs.py dump DIR [--part NAME]
    python tests/outputs.py compare A B [--bound 1e-12]

``dump`` runs every config of the two benchmark workloads (the parts ch2d,
ac2d, local2d and fronts1d of ``nlpf_bench/workloads.py``) at every cell
shift of ``SHIFT_CELLS``, plus ex1 ``nonlocal_CH`` with implicit convolution:
41 runs, on the order of a minute with one BLAS thread.  ``--part`` runs one
part of ``workloads.py`` at shift 0 instead (``tiny1d`` for a quick check).
Per run it stores one ``.npz`` with every snapshot's u, theta, w and lam and
every diagnostics array.

``compare`` prints, per run, "bit-identical" when every array of the two
dumps is equal bit for bit, or else the largest absolute difference per
field and each step whose ``pdas_iters`` or ``cg_iters`` changed.  It exits
1 when a difference exceeds ``--bound`` or the two dumps do not hold the
same runs and arrays.  Make the two dumps from checkouts of the two commits.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "nlpf_bench")]

from nlpf import THREAD_VARS  # noqa: E402  (the package's __init__ imports no numpy)

for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from nlpf import presets  # noqa: E402
from nlpf.stepper import run  # noqa: E402

#: The parts whose configs make up the benchmark workloads.
PARTS = tuple(part for parts in workloads.COMPOSITES.values() for part in parts)
#: Per-step counts whose changed steps ``compare`` lists.
COUNTS = ("pdas_iters", "cg_iters")


def run_list(part: str | None = None) -> list:
    """(name, config) of every run to dump: the 41-run list, or one part at shift 0."""
    if part is not None:
        return [(f"{cfg.label}.shift+0", cfg) for cfg in workloads._part(part, 0).configs]
    runs = [(f"{cfg.label}.shift{cells:+d}", cfg)
            for cells in workloads.SHIFT_CELLS for name in PARTS
            for cfg in workloads._part(name, cells).configs]
    runs.append(("ex1_nonlocal_CH.implicit", presets.example1_config("nonlocal_CH", "implicit")))
    return runs


def arrays_of(result) -> dict:
    """Every snapshot field and every diagnostics array of a run, by name."""
    out = {f"diag.{name}": np.asarray(value) for name, value in result.diagnostics.items()}
    for st in result.states:
        for field in ("u", "theta", "w", "lam"):
            value = getattr(st, field)
            if value is not None:
                out[f"step{st.k}.{field}"] = value
    return out


def dump(directory: Path, part: str | None = None) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, cfg in run_list(part):
        np.savez(directory / f"{name}.npz", **arrays_of(run(cfg)))
        print(f"{name}: dumped", flush=True)


def difference(a: np.ndarray, b: np.ndarray) -> float:
    """Largest absolute difference of two arrays; NaN against NaN is 0, else inf."""
    if a.shape != b.shape:
        return math.inf
    a, b = a.astype(float), b.astype(float)
    both_nan = np.isnan(a) & np.isnan(b)
    diff = np.where(both_nan, 0.0, np.abs(a - b))
    return float(np.nan_to_num(diff, nan=math.inf).max(initial=0.0))


def compare(a_dir: Path, b_dir: Path, bound: float) -> bool:
    """Print the comparison of two dumps run by run; True if it is within ``bound``."""
    names_a = {p.stem for p in a_dir.glob("*.npz")}
    names_b = {p.stem for p in b_dir.glob("*.npz")}
    ok = bool(names_a) and names_a == names_b
    for name in sorted(names_a ^ names_b):
        print(f"{name}: only in {a_dir if name in names_a else b_dir}")
    for name in sorted(names_a & names_b):
        with np.load(a_dir / f"{name}.npz") as fa, np.load(b_dir / f"{name}.npz") as fb:
            A, B = dict(fa), dict(fb)
        missing = sorted(set(A) ^ set(B))
        lines = [f"  {key}: only in one dump" for key in missing]
        worst = {}  # field (snapshot fields merged over the steps) -> largest difference
        identical = not missing
        for key in sorted(set(A) & set(B)):
            x, y = A[key], B[key]
            if x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes():
                continue
            identical = False
            field = key if key.startswith("diag.") else key.split(".", 1)[1]
            worst[field] = max(worst.get(field, 0.0), difference(x, y))
            if key.removeprefix("diag.") in COUNTS and x.shape == y.shape:
                steps = np.flatnonzero(x != y) + 1
                lines.append(f"  {key} changed at steps {steps.tolist()}: "
                             f"{x[steps - 1].tolist()} -> {y[steps - 1].tolist()}")
        lines += [f"  {field}: max |diff| {value:.3g}" for field, value in sorted(worst.items())]
        if identical:
            print(f"{name}: bit-identical")
            continue
        ok = ok and not missing and all(v <= bound for v in worst.values())
        print(f"{name}: differs")
        print("\n".join(lines))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="run the list and store one .npz per run")
    p_dump.add_argument("directory", type=Path)
    p_dump.add_argument("--part",
                        choices=[w for w in workloads.WORKLOADS if w not in workloads.COMPOSITES],
                        help="one part of nlpf_bench/workloads.py at shift 0")
    p_cmp = sub.add_parser("compare", help="compare two dumps")
    p_cmp.add_argument("a", type=Path)
    p_cmp.add_argument("b", type=Path)
    p_cmp.add_argument("--bound", type=float, default=1e-12)
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.directory, args.part)
        return 0
    return 0 if compare(args.a, args.b, args.bound) else 1


if __name__ == "__main__":
    sys.exit(main())
