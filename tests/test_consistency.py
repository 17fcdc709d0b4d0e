"""Cross-scheme and packaging consistency checks."""

import ast
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlpf import config
from nlpf.config import InitSpec, RunConfig
from nlpf.grid import build_grid, mass_plus_stiffness
from nlpf.metrics import field_distance
from nlpf import pdas, stepper
from nlpf.pdas import PdasConfig
from nlpf.physics import ModelParams
from nlpf.presets import example1_config
from nlpf.stepper import run


def _ch_cfg(tau, mode):
    return RunConfig(
        model=ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.02),
        variant="nonlocal_CH",
        dim=1,
        h=1 / 100,
        tau=tau,
        T_final=3e-3,
        epsilon=0.02,
        delta=0.08,
        snapshots=(3e-3,),
        pdas=PdasConfig(convolution_mode=mode),
        init=InitSpec(kind="step", params=(0.3,), theta0=0.0),
    ).validate()


def test_explicit_and_implicit_modes_converge_together():
    # lagging the convolution is a first-order perturbation: the gap between
    # the two modes at fixed final time shrinks ~linearly in tau
    gaps = []
    for tau in (3e-4, 1.5e-4, 7.5e-5):
        res_e = run(_ch_cfg(tau, "explicit"))
        res_i = run(_ch_cfg(tau, "implicit"))
        g = res_e.grid
        gaps.append(
            field_distance(g, res_e.states[-1].u[g.interior_ids],
                           res_i.states[-1].u[g.interior_ids])
        )
    assert gaps[1] <= 0.75 * gaps[0]
    assert gaps[2] <= 0.75 * gaps[1]
    assert gaps[2] <= 0.05


def test_2d_stiffness_consistent_with_laplacian():
    # K u ~ -m * Lap(u) for a smooth Neumann-compatible field, interior nodes
    g = build_grid(2, 1 / 48, 0.0)
    K = mass_plus_stiffness(g, 0.0, 1.0)
    coords = g.coords()[g.interior_ids]
    x, y = coords[:, 0], coords[:, 1]
    u = np.cos(np.pi * x) * np.cos(2 * np.pi * y)
    lap = -(np.pi**2 + 4 * np.pi**2) * u
    resid = K @ u + g.mass_interior * lap
    inner = (
        (x > 0.1) & (x < 0.9) & (y > 0.1) & (y < 0.9)
    )
    scale = np.abs(g.mass_interior * lap).max()
    assert np.abs(resid[inner]).max() <= 5e-3 * scale
    # refined grid: quadratic decay of the consistency error
    g2 = build_grid(2, 1 / 96, 0.0)
    K2 = mass_plus_stiffness(g2, 0.0, 1.0)
    c2 = g2.coords()[g2.interior_ids]
    u2 = np.cos(np.pi * c2[:, 0]) * np.cos(2 * np.pi * c2[:, 1])
    lap2 = -(5 * np.pi**2) * u2
    resid2 = K2 @ u2 + g2.mass_interior * lap2
    inner2 = (
        (c2[:, 0] > 0.1) & (c2[:, 0] < 0.9) & (c2[:, 1] > 0.1) & (c2[:, 1] < 0.9)
    )
    r1 = np.abs(resid[inner]).max() / g.mass_interior.max()
    r2 = np.abs(resid2[inner2]).max() / g2.mass_interior.max()
    assert r1 / r2 >= 3.0  # observed order ~2 under h -> h/2


def test_run_report_manifest_files_exist(tmp_path):
    from nlpf.fields_io import build_report
    from nlpf.repro import write_snapshots

    res = run(_ch_cfg(3e-4, "explicit"))
    manifest = write_snapshots(res, str(tmp_path))
    report = build_report(result=res, snapshots_manifest=manifest)
    assert report["snapshots"]
    for snap in report["snapshots"]:
        for fname in snap["files"].values():
            assert os.path.exists(tmp_path / fname)
    json.dumps(report)  # JSON-serializable end to end


def test_lazy_package_import():
    import nlpf

    importlib.reload(nlpf)
    assert nlpf.kernel.c_gamma_closed_form is not None
    assert "stepper" in dir(nlpf)
    with pytest.raises(AttributeError):
        nlpf.not_a_module


def test_every_public_name_has_a_caller_in_the_package():
    # a public name of nlpf that only tests use is a test oracle and belongs
    # in tests/oracles.py
    used, exported = set(), {}
    package = Path(__file__).resolve().parents[1] / "src" / "nlpf"
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                exported[path.stem] = ast.literal_eval(node.value)
    assert "kernel" in exported and "stepper" in exported
    unused = {f"{mod}.{name}" for mod, names in exported.items()
              for name in names if name not in used}
    assert not unused, sorted(unused)


def test_no_module_imports_another_modules_private_name():
    # a name two modules share is public: it goes in __all__, where the
    # caller rule above sees it
    package = Path(__file__).resolve().parents[1] / "src" / "nlpf"
    paths, private = sorted(package.glob("*.py")), set()
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "nlpf"):
                private |= {f"{path.stem}: {node.module}.{a.name}" for a in node.names
                            if a.name.startswith("_")}
    assert not private, sorted(private)


def test_only_grid_imports_scipy_linalg():
    # grid is the one home of the dense and banded factorizations (LAPACK
    # ?pbtrf/?pbtrs, cho_factor): every other module solves through it
    package = Path(__file__).resolve().parents[1] / "src" / "nlpf"
    paths, importers = sorted(package.glob("*.py")), set()
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            if any(m == "scipy.linalg" or m.startswith("scipy.linalg.") for m in modules):
                importers.add(path.stem)
    assert importers == {"grid"}, sorted(importers)


def _documented_keys(lines):
    """{(section, key): required} of a config-format block.

    Each section is a line ``[section]  key*, key = value | value, ...`` with
    optional indented continuation lines; ``#`` comments, parenthesized and
    bracketed text are notes, and ``or`` separates keys like a comma.
    """
    text, section = {}, None
    for line in lines:
        line = line.partition("#")[0]
        m = re.match(r"\s*\[(\w+)\]\s+(.*)", line)
        if m:
            section = m.group(1)
            text[section] = m.group(2)
        else:
            text[section] += " " + line
    keys = {}
    for section, body in text.items():
        body = re.sub(r"\([^)]*\)|\[[^\]]*\]", "", body)
        for chunk in re.split(r"[,;]|\bor\b", body):
            key = chunk.partition("=")[0].strip()
            if key:
                keys[section, key.rstrip("*")] = key.endswith("*")
    return keys


@pytest.mark.parametrize("where", ["README.md", "nlpf.config"])
def test_config_docs_name_exactly_the_format_keys(where):
    if where == "README.md":
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.partition("```ini\n")[2].partition("```")[0].splitlines()
    else:
        doc = config.__doc__.splitlines()
        start = next(i for i, line in enumerate(doc) if line.strip().startswith("[model]"))
        block = doc[start:doc.index("", start)]
    assert _documented_keys(block) == {
        key: required for key, (_, _, required) in config._FORMAT.items()}


def test_benchmark_tracer_patches_existing_entry_points(monkeypatch):
    # nlpf_bench/spans.py wraps nlpf functions by module attribute name and
    # reads their arguments and results; a renamed entry point or a changed
    # call shape would otherwise surface only in a traced benchmark
    tree = ast.parse((Path(__file__).resolve().parents[1] / "nlpf_bench" / "spans.py")
                     .read_text())
    targets = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "PLAIN_ENTRIES" for t in node.targets):
            targets |= {(mod, attr) for mod, attr, _ in ast.literal_eval(node.value)}
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "patch"
              and all(isinstance(a, ast.Constant) for a in node.args[:2])):
            targets.add((node.args[0].value, node.args[1].value))
    assert {("pdas", "cg"), ("pdas", "factorized"), ("stepper", "factorized"),
            ("stepper", "pdas_step_local_obstacle")} <= targets
    for mod, attr in sorted(targets):
        assert callable(getattr(importlib.import_module(f"nlpf.{mod}"), attr, None)), \
            f"nlpf.{mod}.{attr}"

    # the active-set steps are entered through stepper's attributes, with the
    # PdasConfig positional and a result carrying the counters spans reads
    calls = {}

    def record(name, original):
        def wrapped(*args, **kwargs):
            out = original(*args, **kwargs)
            calls.setdefault(name, []).append((args, out))
            return out
        return wrapped

    for name in ("pdas_step_CH", "pdas_step_local_obstacle"):
        monkeypatch.setattr(stepper, name, record(name, getattr(stepper, name)))
    for variant in ("nonlocal_CH", "local_obstacle"):
        cfg = example1_config(variant)
        run(dataclasses.replace(cfg, T_final=3 * cfg.tau, snapshots=()))
    assert {name: len(c) for name, c in calls.items()} == {
        "pdas_step_CH": 3, "pdas_step_local_obstacle": 3}
    for args, out in (call for c in calls.values() for call in c):
        assert sum(hasattr(a, "max_iters") for a in args) == 1
        for attr in ("iters", "converged", "sets"):
            assert hasattr(out, attr), attr


@pytest.mark.parametrize("variant", ["nonlocal_CH", "local_obstacle"])
def test_benchmark_tracer_sees_every_1d_sweep_factorization(variant, monkeypatch):
    # nlpf_bench/spans.py times the 1D direct solves through pdas.factorized:
    # a 1D CH sweep factors its w-system there, and a local-obstacle sweep
    # its reduced system unless no node is inactive (these three steps have
    # inactive nodes in every sweep; test_pdas pins the empty case)
    factored, inactive = [], []
    factorize, iterate = pdas.factorized, pdas._pdas_iterate
    monkeypatch.setattr(pdas, "factorized", lambda bands: factored.append(bands) or
                        factorize(bands))

    def recording(grid, u_prev_I, system, *args, **kwargs):
        def recorded(sets):
            inactive.append(bool(sets.inactive.any()))
            return system(sets)
        return iterate(grid, u_prev_I, recorded, *args, **kwargs)

    monkeypatch.setattr(pdas, "_pdas_iterate", recording)
    cfg = example1_config(variant)
    res = run(dataclasses.replace(cfg, T_final=3 * cfg.tau, snapshots=()))
    assert len(inactive) == res.diagnostics["pdas_iters"].sum()  # a system per sweep
    if variant == "nonlocal_CH":
        assert len(factored) == len(inactive)
    else:
        assert len(factored) == sum(inactive)


def test_benchmark_selftest_passes():
    # the traced benchmark run and its bit-identity to the untraced run,
    # beyond the static entry-point check above
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "nlpf_bench/selftest.py"], cwd=repo,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_readme_library_examples_run_and_list_the_stepout_fields(tmp_path, monkeypatch):
    # the README's Python blocks are one session: the second uses the first's imports
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)  # the first block writes its output below the cwd
    session = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), session)
    assert isinstance(session["out"], pdas.StepOut)
    listed = re.search(r"StepOut\(([^)]*)\)", readme).group(1)
    assert [name.strip() for name in listed.split(",")] == [
        f.name for f in dataclasses.fields(pdas.StepOut)]
