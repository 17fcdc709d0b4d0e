import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlpf import THREAD_VARS, cli
from nlpf.cli import main as cli_main
from nlpf.config import (ConfigError, InitSpec, config_as_dict, parse_config_file,
                         parse_config_text)
from nlpf.fields_io import (build_report, field_on_grid, format_values, read_field,
                            write_field, write_report, write_vtk)
from nlpf.grid import build_grid
from nlpf.pdas import PdasConfig
from nlpf.presets import example1_config, example2_config, example3_config
from nlpf.stepper import initial_state, run

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "src" / "nlpf" / "configs"

MINI_CFG = """
[model]
mu = 0.0012
L = 0.5
D = 1.0
beta = 0.0
alpha = 0.9
rho = 20.0
theta_e = 1.0

[kernel]
epsilon = 0.02
delta = 0.1

[grid]
dim = 1
h = 0.025

[time]
tau = 0.0003
T = 0.0015
snapshots = 0.0, 0.0015

[variant]
name = nonlocal_AC

[init]
preset = step(0.3)
"""


def test_parse_minimal_config():
    cfg = parse_config_text(MINI_CFG)
    assert cfg.variant == "nonlocal_AC"
    assert cfg.model.beta == 0.0
    assert cfg.delta == 0.1
    assert cfg.snapshots == (0.0, 0.0015)
    assert cfg.init.kind == "step" and cfg.init.params == (0.3,)
    assert cfg.model.c_F == pytest.approx(1 / 6)  # default


def test_parse_errors_name_the_key():
    missing_delta = MINI_CFG.replace("delta = 0.1\n", "")
    with pytest.raises(ConfigError, match=r"\[kernel\] delta"):
        parse_config_text(missing_delta)
    with pytest.raises(ConfigError, match=r"\[model\] mu"):
        parse_config_text(MINI_CFG.replace("mu = 0.0012\n", ""))
    with pytest.raises(ConfigError, match="preset"):
        parse_config_text(MINI_CFG.replace("step(0.3)", "blob(1)"))
    with pytest.raises(ConfigError, match=r"\[model\].*mu must be > 0"):
        parse_config_text(MINI_CFG.replace("mu = 0.0012", "mu = -1"))
    with pytest.raises(ConfigError, match=r"\[grid\] dim"):
        parse_config_text(MINI_CFG.replace("dim = 1", "dim = 1.7"))
    with pytest.raises(ConfigError, match="beta"):
        parse_config_text(MINI_CFG.replace("name = nonlocal_AC",
                                           "name = nonlocal_CH"))


def test_unknown_sections_and_keys_are_errors(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown section \[outptu\]"):
        parse_config_text(MINI_CFG + "\n[outptu]\ndirectory = x\n")
    with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
        parse_config_text("[DEFAULT]\n" + MINI_CFG)
    path = tmp_path / "c.cfg"
    path.write_text(MINI_CFG)
    # the active-set solver's constants are not keys either
    for key, value in (("lin_tolerance", "1e-3"), ("pdas_c", "1.0"),
                       ("pdas_max_iters", "50"), ("lin_tol", "1e-12")):
        with pytest.raises(ConfigError, match=rf"unknown key \[solver\] {key}$"):
            parse_config_text(MINI_CFG + f"\n[solver]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"unknown key \[solver\] {key}$"):
            parse_config_file(str(path), overrides=[f"solver.{key}={value}"])
    with pytest.raises(ConfigError, match=r"unknown key \[time\] taux"):
        parse_config_file(str(path), overrides=["time.taux=1"])
    # the grid decides the output files: no key chooses formats
    with pytest.raises(ConfigError, match=r"unknown key \[output\] formats$"):
        parse_config_text(MINI_CFG + "\n[output]\nformats = csv\n")
    with pytest.raises(ConfigError, match=r"unknown key \[output\] formats$"):
        parse_config_file(str(path), overrides=["output.formats=csv"])
    with pytest.raises(ConfigError, match=r"unknown section \[outptu\]"):
        parse_config_file(str(path), overrides=["outptu.formats=csv"])


SHIPPED_PRESETS = {
    "ex1_nonlocal_CH": lambda: example1_config("nonlocal_CH"),
    "ex1_local_obstacle": lambda: example1_config("local_obstacle"),
    "ex2_nonlocal_CH": lambda: example2_config(),
    **{f"ex3_{v}": (lambda v=v: example3_config(v))
       for v in ("nonlocal_CH", "nonlocal_AC", "local_obstacle", "local_regular")},
}


def test_shipped_configs_parse_and_match_presets(monkeypatch):
    """Each shipped file is read by its one preset, and ``nlpf run`` of it runs that preset."""
    read = []
    read_text = Path.read_text
    monkeypatch.setattr(Path, "read_text",
                        lambda self, *a, **kw: read.append(self.name) or read_text(self, *a, **kw))
    assert sorted(SHIPPED_PRESETS) == sorted(p.stem for p in CONFIGS.glob("*.cfg"))
    for name, preset in SHIPPED_PRESETS.items():
        read.clear()
        ref = preset()
        assert read == [f"{name}.cfg"]
        assert ref.output_dir is None
        cfg = parse_config_file(str(CONFIGS / f"{name}.cfg"))
        assert cfg.output_dir == name
        assert dataclasses.replace(cfg, output_dir=None, label=ref.label) == ref, name


def test_built_package_ships_the_configs_of_its_presets(tmp_path):
    """``build_py`` of the project copies the config files that the presets read."""
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    shutil.copy(REPO / "pyproject.toml", tmp_path)
    shutil.copytree(REPO / "src", tmp_path / "src", ignore=ignore)
    out = tmp_path / "out"
    subprocess.run([sys.executable, "-c", "from setuptools import setup; setup()",
                    "build_py", "-d", str(out)], cwd=tmp_path, check=True,
                   capture_output=True)
    calls = ('example1_config("nonlocal_CH")', 'example1_config("local_obstacle")',
             "example2_config()", 'example2_config(variant="local_obstacle")',
             'example3_config("nonlocal_AC")')
    script = ("import nlpf\nfrom nlpf.presets import *\nprint(nlpf.__file__)\n"
              + "".join(f"print(repr({call}))\n" for call in calls))
    env = {**os.environ, "PYTHONPATH": str(out)}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    origin, *reprs = proc.stdout.splitlines()
    assert Path(origin).is_relative_to(out)
    import nlpf.presets
    assert reprs == [repr(eval(call, vars(nlpf.presets))) for call in calls]


def test_resolved_config_of_shipped_ex1():
    cfg = parse_config_file(str(CONFIGS / "ex1_nonlocal_CH.cfg"))
    assert config_as_dict(cfg) == {
        "variant": "nonlocal_CH",
        "label": "ex1_nonlocal_CH",
        "model": {"mu": 0.0012, "L": 0.5, "D": 1.0, "beta": 0.02,
                  "c_F": 0.16666666666666666, "alpha": 0.9, "rho": 20.0,
                  "theta_e": 1.0},
        "kernel": {"epsilon": 0.02, "delta": 0.154},
        "grid": {"dim": 1, "h": 0.0024},
        "time": {"tau": 0.0003, "T": 0.05, "snapshots": [0.0, 0.0013, 0.0163]},
        "solver": {"convolution_mode": "explicit"},
        "init": {"kind": "step", "params": [0.2], "path": None, "theta0": 0.0},
        "output": {"directory": "ex1_nonlocal_CH"},
    }


def test_overrides(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(MINI_CFG)
    cfg = parse_config_file(str(path), overrides=["time.tau=0.0001",
                                                  "grid.h=0.05"])
    assert cfg.tau == 0.0001
    assert cfg.h == 0.05
    with pytest.raises(ConfigError, match="override"):
        parse_config_file(str(path), overrides=["nonsense"])


def test_field_round_trip_including_exterior(tmp_path):
    g = build_grid(1, 1 / 12, 0.2)
    rng = np.random.default_rng(33)
    vals = rng.standard_normal(g.n_nodes)
    p = tmp_path / "f.csv"
    write_field(str(p), g, vals, region="union")
    coords, back = read_field(str(p))
    assert np.array_equal(back, vals)  # bit-faithful
    assert np.array_equal(coords[:, 0], g.coords()[:, 0])


def test_field_round_trip_2d_rows(tmp_path):
    g = build_grid(2, 1 / 2, 0.0)  # 3x3 interior
    vals = np.arange(9, dtype=float)
    p = tmp_path / "f.csv"
    write_field(str(p), g, vals, region="interior")
    text = p.read_text().strip().splitlines()
    assert text[0] == "x,y,value"
    assert len(text) == 10  # header + 9 data rows
    _, back = read_field(str(p))
    assert np.array_equal(back, vals)


def test_field_size_mismatch(tmp_path):
    g = build_grid(1, 1 / 4, 0.0)
    with pytest.raises(ValueError):
        write_field(str(tmp_path / "x.csv"), g, np.zeros(3), region="interior")


@pytest.mark.parametrize("dim, h, delta", [
    (1, 1 / 12, 0.0), (1, 1 / 12, 0.2), (2, 1 / 6, 0.0), (2, 1 / 6, 0.34)])
def test_field_on_grid_takes_back_both_regions_of_write_field(tmp_path, dim, h, delta):
    g = build_grid(dim, h, delta)
    u = np.random.default_rng(5).standard_normal(g.n_nodes)
    for region, given in (("interior", u[g.interior_ids]), ("union", u)):
        path = tmp_path / f"{region}.csv"
        write_field(str(path), g, given, region=region)
        got = field_on_grid(*read_field(str(path)), g, str(path))
        assert np.array_equal(got, u[g.interior_ids]), region


def _shuffled_rows(path, seed=0):
    """Rewrite a field CSV with its data rows in a random order."""
    header, *rows = path.read_text().splitlines(keepends=True)
    order = np.random.default_rng(seed).permutation(len(rows))
    path.write_text(header + "".join(rows[i] for i in order))


def test_field_on_grid_rejects_the_file_of_another_grid(tmp_path):
    def written(grid, name):
        path = tmp_path / name
        write_field(str(path), grid, np.linspace(0.0, 1.0, grid.n_nodes), region="union")
        return path

    line = build_grid(1, 1 / 120, 0.0)  # 121 nodes, as many as an 11 x 11 square
    square = written(build_grid(2, 1 / 10, 0.0), "square.csv")
    with pytest.raises(ValueError,
                       match=r"square\.csv \(121 rows, 2D\) does not hold the nodes of the 1D"):
        field_on_grid(*read_field(str(square)), line, str(square))
    g = build_grid(1, 1 / 14, 0.0)  # 15 nodes, as many as h = 1/10 with a 2-node layer
    other = written(build_grid(1, 1 / 10, 0.2), "other.csv")
    with pytest.raises(ValueError, match="does not hold the nodes"):
        field_on_grid(*read_field(str(other)), g, str(other))
    shuffled = written(g, "shuffled.csv")
    _shuffled_rows(shuffled)
    with pytest.raises(ValueError, match="does not hold the nodes"):
        field_on_grid(*read_field(str(shuffled)), g, str(shuffled))
    short = written(build_grid(1, 1 / 13, 0.0), "short.csv")
    with pytest.raises(ValueError, match=r"\(14 rows, 1D\)"):
        field_on_grid(*read_field(str(short)), g, str(short))


def test_run_checks_its_init_and_theta0_files_against_the_grid(tmp_path):
    cfg = parse_config_text(MINI_CFG)  # 1D, h = 1/40 and a 4-node layer: 49 nodes
    g = build_grid(cfg.dim, cfg.h, cfg.delta)
    foreign = tmp_path / "foreign.csv"  # 49 nodes of a grid without a layer
    write_field(str(foreign), build_grid(1, 1 / 48, 0.0), np.full(49, 0.5))
    for init in (InitSpec(kind="file", path=str(foreign)), InitSpec(theta0=str(foreign))):
        with pytest.raises(ValueError,
                           match=r"foreign\.csv \(49 rows, 1D\) does not hold the nodes of the 1D"):
            run(dataclasses.replace(cfg, init=init))
    # a theta0 file, like an [init] file, may hold every node
    theta = np.random.default_rng(3).random(g.n_nodes)
    write_field(str(tmp_path / "theta0.csv"), g, theta, region="union")
    state = initial_state(dataclasses.replace(cfg, init=InitSpec(
        theta0=str(tmp_path / "theta0.csv"))), g, None)
    assert np.array_equal(state.theta, theta[g.interior_ids])


def test_vtk_header_and_blocks(tmp_path):
    g = build_grid(2, 1 / 4, 0.0)
    p = tmp_path / "f.vtk"
    write_vtk(str(p), g, {"u": np.zeros(25), "theta": np.ones(25)})
    lines = p.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert "DATASET STRUCTURED_POINTS" in lines
    assert "DIMENSIONS 5 5 1" in lines
    assert sum(1 for ln in lines if ln.startswith("SCALARS")) == 2
    with pytest.raises(ValueError):
        write_vtk(str(tmp_path / "y.vtk"), build_grid(1, 1 / 4, 0.0), {"u": np.zeros(5)})


def _parent_csv(grid, values, region):
    """A field CSV by the writer's first formula: ``repr`` of every coordinate of every row."""
    ids = grid.interior_ids if region == "interior" else np.arange(grid.n_nodes)
    values = np.asarray(values, dtype=float)
    if values.shape == (grid.n_nodes,):
        values = values[ids]
    rows = np.column_stack([grid.coords()[ids], values])
    header = "x,value" if grid.dim == 1 else "x,y,value"
    return header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist())


def _parent_vtk(grid, fields):
    n_ax = grid.n_axis_interior
    text = ("# vtk DataFile Version 3.0\nnlpf field export\nASCII\n"
            f"DATASET STRUCTURED_POINTS\nDIMENSIONS {n_ax} {n_ax} 1\n"
            f"ORIGIN 0.0 0.0 0.0\nSPACING {grid.h} {grid.h} 1.0\nPOINT_DATA {n_ax * n_ax}\n")
    for name, values in fields.items():
        values = np.asarray(values, dtype=float)
        if values.shape == (grid.n_nodes,):
            values = values[grid.interior_ids]
        text += f"SCALARS {name} double 1\nLOOKUP_TABLE default\n"
        text += "\n".join(map(repr, values.tolist())) + "\n"
    return text


def _awkward_values(n, seed):
    """Random normals with the floats whose ``repr`` is least regular spread over them."""
    values = np.random.default_rng(seed).standard_normal(n)
    special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e22, 0.1 + 0.2, -1e-300]
    values[np.linspace(0, n - 1, len(special)).astype(int)] = special
    return values


@pytest.mark.parametrize("dim, h, delta, regions", [
    (1, 1 / 12, 0.2, ("union", "interior")),
    (2, 1 / 6, 0.0, ("interior", "union")),
    (2, 1 / 6, 0.34, ("union", "interior")),
])
def test_writers_match_the_per_row_repr_formula_byte_for_byte(tmp_path, dim, h, delta, regions):
    g = build_grid(dim, h, delta)
    u = _awkward_values(g.n_nodes, 1)
    theta = _awkward_values(g.n_interior, 2)
    for region in regions:
        ids = g.interior_ids if region == "interior" else np.arange(g.n_nodes)
        expected = _parent_csv(g, u, region).encode()
        # full-length or region-length, as an array or as formatted text
        for given in (u, u[ids], format_values(u), format_values(u[ids])):
            path = tmp_path / f"{region}.csv"
            write_field(str(path), g, given, region=region)
            assert path.read_bytes() == expected, region
    if dim == 2:
        expected = _parent_vtk(g, {"u": u, "theta": theta}).encode()
        for fields in ({"u": u, "theta": theta},
                       {"u": format_values(u), "theta": format_values(theta)},
                       {"u": u[g.interior_ids], "theta": format_values(theta)}):
            path = tmp_path / "f.vtk"
            write_vtk(str(path), g, fields)
            assert path.read_bytes() == expected
    with pytest.raises(ValueError, match="field has 3 values"):
        write_field(str(tmp_path / "x.csv"), g, format_values(u[:3]))


def test_snapshot_values_are_formatted_once(tmp_path, monkeypatch):
    import nlpf.fields_io as fields_io
    import nlpf.repro as repro

    cfg = example3_config("nonlocal_CH")
    cfg = dataclasses.replace(cfg, h=1 / 8, epsilon=0.05, delta=0.25, T_final=2 * cfg.tau,
                              snapshots=(cfg.tau, 2 * cfg.tau))
    res = run(cfg)
    g = res.grid
    assert g.n_axis_interior == 9 and g.layer > 0
    sizes = []
    original = fields_io.format_values

    def counting(values):
        sizes.append(np.size(values))
        return original(values)

    monkeypatch.setattr(fields_io, "format_values", counting)
    monkeypatch.setattr(repro, "format_values", counting)
    manifest = repro.write_snapshots(res, str(tmp_path))
    assert len(manifest) == 2
    expected = []
    for snap in manifest:
        files = snap["files"]
        assert {"theta", "u", "vtk"} <= set(files)
        # theta and u once each for their CSV and the VTK file, w and lambda once
        expected += [g.n_interior, g.n_nodes]
        expected += [g.n_interior] * (("w" in files) + ("lambda" in files))
        # the coordinates once per CSV file, along one axis: u's is the union axis
        expected += [g.n_axis] + [g.n_axis_interior] * (len(files) - 2)
    assert sorted(sizes) == sorted(expected)


def test_cli_run_writes_report_and_is_deterministic(tmp_path):
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(MINI_CFG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli_main(["run", str(cfg_path), "--output-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "ok"
        assert report["invariants"]["enthalpy"]
        snap_files = sorted(os.listdir(out))
        assert any(f.startswith("u_") for f in snap_files)
        assert not any(f.endswith(".vtk") for f in snap_files)  # 1D: CSV only
        outs.append(out)
    for fname in sorted(os.listdir(outs[0])):
        if fname.endswith(".csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_python_m_nlpf_runs_the_cli():
    # the package runs as a module, also from a checkout without the console script
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "nlpf", "--help"], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: nlpf")


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_rejects_a_thread_count_below_one(threads, monkeypatch, capsys):
    # one error line and exit 1, before any pool size is exported or a command runs
    def no_command(args):
        raise AssertionError("no command may run")

    for var in THREAD_VARS:
        monkeypatch.setenv(var, "unset")
    for name in ("cmd_run", "cmd_repro", "cmd_metrics"):
        monkeypatch.setattr(cli, name, no_command)
    assert cli_main(["--threads", threads, "metrics", "x.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --threads must be >= 1, got {threads}\n"
    assert captured.out == ""
    assert all(os.environ[var] == "unset" for var in THREAD_VARS)


def test_cli_run_override_reflected_in_report(tmp_path):
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(MINI_CFG)
    out = tmp_path / "o"
    rc = cli_main(["run", str(cfg_path), "--output-dir", str(out),
                   "--override", "time.tau=0.00015"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["resolved_config"]["time"]["tau"] == 0.00015


def test_report_records_the_thread_pool_variables(tmp_path, monkeypatch):
    # as the process sees them, null when unset, on the failure path too; the
    # CLI pins all four (--threads, default 1) before numpy's pools start
    for var in THREAD_VARS:  # set first, so that monkeypatch restores what the CLI sets
        monkeypatch.setenv(var, "3")
        if var != "OPENBLAS_NUM_THREADS":
            monkeypatch.delenv(var)
    rep = build_report(config=example1_config("nonlocal_CH"), status="error", error="boom")
    assert rep["threads"] == {"OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": "3",
                              "MKL_NUM_THREADS": None, "NUMEXPR_NUM_THREADS": None}
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(MINI_CFG)
    out = tmp_path / "o"
    assert cli_main(["--threads", "2", "run", str(cfg_path), "--output-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["threads"] == dict.fromkeys(THREAD_VARS, "2")


def test_cli_run_config_error_is_reported(tmp_path):
    cfg_path = tmp_path / "broken.cfg"
    cfg_path.write_text(MINI_CFG.replace("delta = 0.1\n", ""))
    rc = cli_main(["run", str(cfg_path), "--output-dir", str(tmp_path / "x")])
    assert rc == 1


def test_cli_run_unknown_override_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(MINI_CFG)
    rc = cli_main(["run", str(cfg_path), "--output-dir", str(tmp_path / "x"),
                   "--override", "time.taux=1"])
    assert rc == 1
    assert "[time] taux" in capsys.readouterr().err


def test_init_preset_and_file_together_are_an_error(tmp_path, capsys):
    both = MINI_CFG.replace("preset = step(0.3)", "preset = step(0.3)\nfile = u0.csv")
    with pytest.raises(ConfigError, match=r"\[init\] preset and \[init\] file"):
        parse_config_text(both)
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(MINI_CFG)
    rc = cli_main(["run", str(cfg_path), "--output-dir", str(tmp_path / "x"),
                   "--override", "init.file=u0.csv"])
    assert rc == 1
    assert "[init] file" in capsys.readouterr().err


def test_cli_metrics_on_saved_field(tmp_path, capsys):
    cfg = example1_config("nonlocal_CH")
    cfg = dataclasses.replace(cfg, T_final=0.0012, snapshots=(0.0012,))
    res = run(cfg)
    p = tmp_path / "u.csv"
    write_field(str(p), res.grid, res.states[-1].u, region="union")
    rc = cli_main(["metrics", str(p)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "interface width" in out


@pytest.mark.parametrize("args, message", [
    (["--tol", "0.7"], "tol"),
    (["--tol", "0.5"], "tol"),
    (["--tol", "-1"], "tol"),
    (["--tol", "nan"], "tol"),
    ([], "2 nodes per axis"),
])
def test_cli_metrics_rejects_bad_tol_and_single_node_field(args, message, tmp_path,
                                                           capsys):
    g = build_grid(1, 0.1, 0.0)
    p = tmp_path / "u.csv"
    write_field(str(p), g, (g.coords()[:, 0] <= 0.5).astype(float))
    if not args:  # one node inside the unit domain
        p.write_text("x,value\n0.5,0.3\n")
    assert cli_main(["metrics", str(p), *args]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("content, message", [
    (None, "No such file"),
    ("x,y,z,value\n0.0,0.0,0.0,0.3\n", "unrecognized field header"),
], ids=["missing", "bad-header"])
def test_cli_metrics_on_unreadable_field(content, message, tmp_path, capsys):
    # one error line and exit 1, as `nlpf run` gives for a bad config path
    p = tmp_path / "u.csv"
    if content is not None:
        p.write_text(content)
    assert cli_main(["metrics", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_cli_metrics_rejects_a_shuffled_field(tmp_path, capsys):
    # read in file order, the shuffled rows of a one-cell front give wrong runs
    g = build_grid(1, 0.1, 0.0)
    p = tmp_path / "u.csv"
    write_field(str(p), g, (g.coords()[:, 0] <= 0.5).astype(float))
    _shuffled_rows(p)
    assert cli_main(["metrics", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: field ") and "node order" in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_cli_metrics_on_one_cell_field(tmp_path, capsys):
    p = tmp_path / "u.csv"
    p.write_text("x,value\n0.0,0.3\n1.0,0.4\n")
    assert cli_main(["metrics", str(p)]) == 0
    captured = capsys.readouterr()
    assert "widths: [1]" in captured.out and captured.err == ""
    # a run still needs h < 1; only the grid of a saved field may be one cell
    with pytest.raises(ConfigError, match=r"\[grid\] h"):
        dataclasses.replace(example1_config("nonlocal_CH"), h=1.0).validate()


def test_report_emitted_without_result():
    rep = build_report(config=example1_config("nonlocal_CH"), status="error",
                       error="boom")
    assert rep["status"] == "error"
    assert rep["error"] == "boom"
    assert rep["resolved_config"]["variant"] == "nonlocal_CH"


def test_cli_run_rejects_nan_init_file(tmp_path):
    g = build_grid(1, 0.025, 0.1)
    u0 = (g.coords()[g.interior_ids, 0] <= 0.3).astype(float)
    u0[5] = np.nan
    write_field(str(tmp_path / "u0.csv"), g, u0)
    cfg_path = tmp_path / "nan.cfg"
    cfg_path.write_text(MINI_CFG.replace("preset = step(0.3)",
                                         f"file = {tmp_path / 'u0.csv'}"))
    out = tmp_path / "o"
    assert cli_main(["run", str(cfg_path), "--output-dir", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "error" and "non-finite" in report["error"]


def test_report_fails_invariant_on_nonfinite_diagnostic(tmp_path, monkeypatch):
    import nlpf.repro as repro

    res = run(parse_config_text(MINI_CFG))
    assert build_report(result=res)["status"] == "ok"
    res.diagnostics["enthalpy_drift"][3] = np.nan
    report = build_report(result=res)
    assert report["status"] == "invariant-failure"
    assert report["invariants"]["enthalpy"] is False
    # the same result through `nlpf run` exits 2
    monkeypatch.setattr(repro, "run", lambda cfg: res)
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(MINI_CFG)
    assert cli_main(["run", str(cfg_path), "--output-dir", str(tmp_path / "o")]) == 2


def test_ex2_local_obstacle_first_step_starts_all_inactive():
    # ex2's 0/1 initial field has every node on a bound; the first step starts
    # from the all-inactive estimate instead and converges in 7 sweeps, and
    # every step fits in one attempt of max_iters sweeps
    res = run(example2_config(variant="local_obstacle"))
    iters = res.diagnostics["pdas_iters"]
    assert iters[0] == 7 and iters.max() <= PdasConfig.max_iters
    report = build_report(result=res)
    assert report["diagnostics_summary"]["pdas_iters_max"] == iters.max()
    assert report["status"] == "ok"


def test_report_with_nonfinite_diagnostic_is_strict_json(tmp_path):
    res = run(parse_config_text(MINI_CFG))
    res.diagnostics["enthalpy_drift"][3] = np.nan
    path = tmp_path / "report.json"
    write_report(str(path), build_report(result=res))

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    report = json.loads(path.read_text(), parse_constant=reject)
    assert report["diagnostics_summary"]["enthalpy_drift_max"] is None
    assert report["invariants"]["enthalpy"] is False
    assert report["status"] == "invariant-failure"


@pytest.mark.parametrize("override", [
    "model.mu=nan", "model.D=inf", "model.c_F=-inf", "time.tau=nan", "kernel.epsilon=nan",
    "kernel.delta=nan", "time.snapshots=0.0, nan", "init.theta0=nan",
    "init.preset=step(inf)",
])
def test_config_rejects_nonfinite_numbers(override, tmp_path, capsys):
    section, key = override.partition("=")[0].split(".")
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
        parse_config_text(MINI_CFG, overrides=[override])
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(MINI_CFG)
    out = tmp_path / "o"
    assert cli_main(["run", str(cfg_path), "--output-dir", str(out),
                     "--override", override]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_cli_run_rejects_bad_C_I_before_the_run(value, tmp_path, capsys):
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(MINI_CFG)
    out = tmp_path / "o"
    assert cli_main(["run", str(cfg_path), "--output-dir", str(out),
                     f"--C-I={value}"]) == 1
    assert "--C-I" in capsys.readouterr().err
    assert not out.exists()


def test_write_report_leaves_no_file_on_a_nonfinite_value(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError):
        write_report(str(path), {"status": "ok", "value": float("nan")})
    assert not path.exists()


def test_local_obstacle_is_beta_zero_only(tmp_path, capsys):
    path = CONFIGS / "ex1_local_obstacle.cfg"
    with pytest.raises(ConfigError, match=r"local_obstacle requires \[model\] beta = 0"):
        parse_config_text(path.read_text(), overrides=["model.beta=0.05"])
    out = tmp_path / "o"
    assert cli_main(["run", str(path), "--output-dir", str(out),
                     "--override", "model.beta=0.05"]) == 1
    assert "[model] beta" in capsys.readouterr().err
    assert not out.exists()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("change, key", [
    ({"tau": NAN}, r"\[time\] tau"),
    ({"tau": INF}, r"\[time\] tau"),
    ({"T_final": NAN}, r"\[time\] T"),
    ({"T_final": INF}, r"\[time\] T"),
    ({"snapshots": (NAN,)}, r"\[time\] snapshots"),
    ({"epsilon": NAN}, r"\[kernel\] epsilon"),
    ({"delta": NAN}, r"\[kernel\] delta"),
    ({"init": InitSpec(params=(NAN,))}, r"\[init\] preset"),
    ({"init": InitSpec(params=(INF,))}, r"\[init\] preset"),
    ({"init": InitSpec(kind="box", params=(0.2, -INF))}, r"\[init\] preset"),
    ({"init": InitSpec(theta0=NAN)}, r"\[init\] theta0"),
    ({"init": InitSpec(theta0=-INF)}, r"\[init\] theta0"),
])
def test_config_built_in_code_rejects_nonfinite_numbers(change, key):
    cfg = dataclasses.replace(example1_config("local_obstacle"), **change)
    with pytest.raises(ConfigError, match=key):
        cfg.validate()
    with pytest.raises(ConfigError, match=key):
        run(cfg)


@pytest.mark.parametrize("init", [
    InitSpec(kind="blob"),
    InitSpec(kind="box", params=(0.2,)),
    InitSpec(kind="step", params=(0.2, 0.4)),
    InitSpec(kind="file", params=()),
])
def test_config_built_in_code_rejects_bad_init(init):
    cfg = dataclasses.replace(example1_config("local_obstacle"), init=init)
    with pytest.raises(ConfigError, match=r"\[init\] (preset|file)"):
        cfg.validate()


@pytest.mark.parametrize("key", ["mu", "L", "D", "beta", "c_F", "alpha", "rho", "theta_e"])
@pytest.mark.parametrize("value", [NAN, INF])
def test_model_params_reject_nonfinite_numbers(key, value):
    model = example1_config("local_obstacle").model
    with pytest.raises(ValueError, match=rf"^{key} must"):
        dataclasses.replace(model, **{key: value})


def _run_with_step_1_unconverged(cfg):
    res = run(cfg)
    res.diagnostics["pdas_converged"][0] = False
    return res


def test_repro_fails_on_a_report_that_is_not_ok(tmp_path, monkeypatch, capsys):
    import nlpf.repro as repro

    monkeypatch.setattr(repro, "run", _run_with_step_1_unconverged)
    summary = repro.repro_ex1(str(tmp_path / "a"))
    assert not summary["ok"]
    failed = [(name, detail) for name, ok, detail in summary["checks"] if not ok]
    assert failed == [
        ("ex1_nonlocal_CH report status ok", "status = invariant-failure"),
        ("ex1_local_obstacle report status ok", "status = invariant-failure"),
    ]
    assert cli_main(["repro", "ex1", "--output-dir", str(tmp_path / "b")]) == 2
    assert "FAIL  ex1_nonlocal_CH report status ok" in capsys.readouterr().out


def test_cli_run_write_failure_leaves_an_error_report(tmp_path, monkeypatch, capsys):
    import nlpf.repro as repro

    def broken_write(result, outdir):
        raise OSError("disk full")

    monkeypatch.setattr(repro, "write_snapshots", broken_write)
    out = tmp_path / "o"
    assert cli_main(["run", str(CONFIGS / "ex1_local_obstacle.cfg"),
                     "--output-dir", str(out)]) == 1
    assert "error: disk full" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "error" and report["error"] == "disk full"


def test_cli_repro_reports_a_raised_run(tmp_path, monkeypatch, capsys):
    import nlpf.repro as repro

    def broken_run(cfg):
        raise RuntimeError("solver blew up")

    monkeypatch.setattr(repro, "run", broken_run)
    out = tmp_path / "o"
    assert cli_main(["repro", "ex1", "--output-dir", str(out)]) == 1
    assert "error: solver blew up" in capsys.readouterr().err
    report = json.loads((out / "ex1_nonlocal_CH" / "report.json").read_text())
    assert report["status"] == "error"


def test_run_and_repro_write_the_same_report_keys(tmp_path):
    from nlpf.repro import repro_ex1

    assert cli_main(["run", str(CONFIGS / "ex1_nonlocal_CH.cfg"),
                     "--output-dir", str(tmp_path / "run")]) == 0
    assert repro_ex1(str(tmp_path / "repro"))["ok"]
    run_report = json.loads((tmp_path / "run" / "report.json").read_text())
    repro_report = json.loads(
        (tmp_path / "repro" / "ex1_nonlocal_CH" / "report.json").read_text())
    assert "admissibility" in run_report
    assert set(run_report) == set(repro_report)
    assert run_report["admissibility"] == repro_report["admissibility"]


def test_report_gates_the_kkt_residual_and_counts_cg_iterations():
    cfg = example1_config("local_obstacle")
    res = run(dataclasses.replace(cfg, T_final=5 * cfg.tau, snapshots=()))
    report = build_report(result=res)
    summary = report["diagnostics_summary"]
    assert report["invariants"]["kkt_residual"] and summary["kkt_residual_max"] <= 1e-9
    assert summary["cg_iters_total"] == 0  # the 1D sweeps are direct solves
    for bad in (1e-6, np.nan):
        res.diagnostics["kkt_residual"][2] = bad
        report = build_report(result=res)
        assert report["invariants"]["kkt_residual"] is False
        assert report["status"] == "invariant-failure"
    assert report["diagnostics_summary"]["kkt_residual_max"] is None  # NaN

    cfg = example3_config("local_obstacle")
    res = run(dataclasses.replace(cfg, T_final=2 * cfg.tau, snapshots=()))
    summary = build_report(result=res)["diagnostics_summary"]
    assert summary["cg_iters_total"] == res.diagnostics["cg_iters"].sum() > 0
    assert summary["kkt_residual_max"] <= 1e-9

    # the projection step solves nothing: no residual, no gate
    report = build_report(result=run(parse_config_text(MINI_CFG)))
    assert report["diagnostics_summary"]["kkt_residual_max"] is None
    assert "kkt_residual" not in report["invariants"]


def test_cli_run_exits_2_on_an_invariant_failure_without_a_waiver(tmp_path, monkeypatch):
    import nlpf.repro as repro

    def run_with_nan_residual(cfg):
        res = run(cfg)
        res.diagnostics["kkt_residual"][0] = np.nan
        return res

    monkeypatch.setattr(repro, "run", run_with_nan_residual)
    cfg_path = str(CONFIGS / "ex1_local_obstacle.cfg")
    out = tmp_path / "o"
    assert cli_main(["run", cfg_path, "--output-dir", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "invariant-failure"
    assert report["invariants"]["kkt_residual"] is False
    # no flag turns a failed invariant into exit 0
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", cfg_path, "--allow-warnings", "--output-dir", str(out)])
    assert exc.value.code == 2
