import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import factorized

from nlpf import grid as grid_module, pdas, stepper
from nlpf.config import InitSpec, RunConfig
from nlpf.fields_io import build_report, read_field, write_field
from nlpf.grid import build_grid, exact_solver, mass_plus_stiffness
from nlpf.metrics import interface_width
from nlpf.kernel import KernelSpec
from nlpf.nonlocal_ops import build_stencil
from nlpf.pdas import PdasConfig, WSolver, pdas_step_CH, w_matrix
from nlpf.physics import ModelParams, coupling_m, regular_potential_dF
from nlpf.presets import example1_config, example3_config
from nlpf.repro import write_snapshots
from nlpf.stepper import (
    LocalRegularStep,
    NonlocalACStep,
    NonlocalCHStep,
    initial_state,
    run,
    step_temperature,
    timestep_admissibility,
)
from oracles import dense_stiffness_1d, initial_field_from_coords, pdas_step_AC_nonlocal


def _heat(g, p, tau):
    return exact_solver(g, 1.0, tau * p.D)


def test_temperature_equilibrium():
    g = build_grid(1, 1 / 16, 0.0)
    p = ModelParams(mu=1.0, L=0.5, D=1.0)
    theta = np.full(g.n_interior, 0.7)
    u = np.full(g.n_interior, 0.3)
    out = step_temperature(_heat(g, p, 1e-3), g, p, theta, u, u)
    assert np.abs(out - 0.7).max() <= 1e-13


def test_temperature_eigen_decay():
    # cos(pi x) is an exact discrete eigenvector of the lumped Neumann pair
    g = build_grid(1, 1 / 63, 0.0)  # 64 nodes
    p = ModelParams(mu=1.0, L=0.0, D=1.0)
    tau = 1e-4
    x = g.coords()[g.interior_ids, 0]
    theta = np.cos(np.pi * x)
    lam_h = (2.0 / g.h**2) * (1.0 - math.cos(math.pi * g.h))
    u = np.zeros(g.n_interior)
    heat = _heat(g, p, tau)
    for k in range(1, 26):
        theta = step_temperature(heat, g, p, theta, u, u)
        expected = (1.0 + tau * lam_h) ** (-k) * np.cos(np.pi * x)
        assert np.abs(theta - expected).max() <= 1e-6


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n_cells", [1, 2, 7, 30])
def test_exact_solver_matches_factorized_and_conserves_the_sum(dim, n_cells):
    # delta = 0.1: a grid with a layer, whose interior mass is h^dim on the
    # boundary ring too (in 2D at n_cells 1 and 2 the ring is all interior
    # nodes, or all but one)
    p, tau, eps = ModelParams(mu=0.0012, L=0.5, D=1.0), 3e-4, 0.04
    rng = np.random.default_rng(10 * n_cells + dim)
    for delta in (0.0, 0.1):
        g = build_grid(dim, 1.0 / n_cells, delta)
        K = mass_plus_stiffness(g, 0.0, 1.0)
        M = sp.diags_array(g.mass_interior)
        for a, b in ((1.0, tau * p.D), (p.mu / tau, eps**2), (1.0, 0.0)):
            A = (a * M + b * K).tocsc()
            r = rng.standard_normal(g.n_interior)
            x = exact_solver(g, a, b)(r)
            ref = factorized(A)(r)
            assert np.abs(x - ref).max() <= 1e-13 * np.abs(ref).max()
            assert abs((A @ x - r).sum()) <= 1e-14 * np.abs(r).sum()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("delta", [0.0, 0.1])
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 1.0), (1.0, -1e-3), (math.nan, 1.0),
                                  (1.0, math.inf), (math.inf, 0.0)])
def test_exact_solver_rejects_nonpositive_or_nonfinite_coefficients(dim, delta, a, b):
    g = build_grid(dim, 1 / 8, delta)
    with pytest.raises(ValueError, match="a > 0 and b >= 0"):
        exact_solver(g, a, b)


def test_temperature_enthalpy_identity():
    g = build_grid(1, 1 / 20, 0.0)
    p = ModelParams(mu=1.0, L=0.7, D=2.0)
    rng = np.random.default_rng(6)
    theta = rng.random(g.n_interior)
    u_prev = rng.random(g.n_interior)
    u_new = rng.random(g.n_interior)
    out = step_temperature(_heat(g, p, 5e-3), g, p, theta, u_new, u_prev)
    m = g.mass_interior
    before = (m * (theta - p.L * u_prev)).sum()
    after = (m * (out - p.L * u_new)).sum()
    assert abs(after - before) <= 1e-12 * (1 + abs(before))


def _ac_setup():
    g = build_grid(1, 1 / 30, 0.12)
    spec = KernelSpec(0.25, 0.12, 1)
    return g, build_stencil(g, spec)


def test_ac_pure_phases_stationary():
    g, stn = _ac_setup()
    p = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.0)
    theta_eq = np.full(g.n_interior, p.theta_e)
    ac = NonlocalACStep(g, stn, p, 3e-4)
    for val in (0.0, 1.0):
        out = ac.step(np.full(g.n_nodes, val), theta_eq)
        assert np.abs(out.u - val).max() == 0.0


def test_ac_fast_path_equals_pdas_route():
    g, stn = _ac_setup()
    p = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.0)
    rng = np.random.default_rng(17)
    cfg = PdasConfig()
    ac = NonlocalACStep(g, stn, p, 3e-4)
    for _ in range(10):
        u_prev = np.clip(rng.random(g.n_nodes), 0.0, 1.0)
        theta = rng.normal(1.0, 0.7, g.n_interior)
        fast = ac.step(u_prev, theta)
        res = pdas_step_AC_nonlocal(g, stn, p, 3e-4, u_prev,
                                    coupling_m(p, theta), cfg)
        assert res.converged
        assert np.abs(fast.u - res.u).max() <= 1e-10
        assert np.abs(fast.lam - res.lam).max() <= 1e-10


def test_ac_rejects_nonpositive_denominator():
    g = build_grid(1, 1 / 30, 0.12)
    stn = build_stencil(g, KernelSpec(0.01, 0.12, 1))  # c_gamma ~ 0.007
    p = ModelParams(mu=1e-6, L=0.0, D=1.0, beta=0.0)  # mu/tau tiny
    with pytest.raises(ValueError, match="mu/tau"):
        NonlocalACStep(g, stn, p, 1.0)


def test_step_phase_CH_delegates():
    # the CH phase step is pdas_step_CH on its prebuilt operators, warm-started
    g = build_grid(1, 1 / 12, 0.25)
    stn = build_stencil(g, KernelSpec(0.45, 0.25, 1))
    p = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.02)
    ch = NonlocalCHStep(g, stn, p, 3e-4, PdasConfig())
    out = ch.step(np.ones(g.n_nodes), np.full(g.n_interior, p.theta_e))
    assert out.converged
    assert np.abs(out.u - 1.0).max() == 0.0
    u = (g.coords()[:, 0] <= 0.5).astype(float)
    theta = np.full(g.n_interior, 0.3)
    out = ch.step(u, theta)
    res = pdas_step_CH(g, stn, p, 3e-4, u, coupling_m(p, theta), PdasConfig(),
                       WSolver(g, w_matrix(g, p.beta, 3e-4)),
                       init_sets=ch.sets, w0=ch.w)
    assert res.converged and res.iters == 1  # warm start is the fixed point
    assert np.array_equal(out.u, res.u) and np.array_equal(out.lam, res.lam)


def test_local_regular_stationary_and_dense_oracle():
    p = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.0)
    g = build_grid(1, 1 / 15, 0.0)  # 16 nodes
    theta_eq = np.full(g.n_interior, p.theta_e)
    for val in (0.0, 1.0):
        out = LocalRegularStep(g, p, 3e-4, 0.04).step(
            np.full(g.n_interior, val), theta_eq)
        assert np.abs(out.u - val).max() <= 1e-14
    # dense single-step oracle
    rng = np.random.default_rng(19)
    u_prev = rng.random(g.n_interior)
    theta = rng.normal(1.0, 0.5, g.n_interior)
    eps = 0.07
    got = LocalRegularStep(g, p, 3e-4, eps).step(u_prev, theta).u
    M = np.diag(g.mass_interior)
    K = dense_stiffness_1d(g.n_interior, g.h)
    A = (p.mu / 3e-4) * M + eps**2 * K
    rhs = (p.mu / 3e-4) * (M @ u_prev) - M @ regular_potential_dF(
        u_prev, coupling_m(p, theta)
    )
    ref = np.linalg.solve(A, rhs)
    assert np.abs(got - ref).max() <= 1e-11


def _mini_config(**over):
    base = dict(
        model=ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.02),
        variant="nonlocal_CH",
        dim=1,
        h=1 / 40,
        tau=3e-4,
        T_final=3e-3,
        epsilon=0.02,
        delta=0.1,
        snapshots=(0.0, 3e-3),
        pdas=PdasConfig(),
        init=InitSpec(kind="step", params=(0.3,), theta0=0.0),
    )
    base.update(over)
    return RunConfig(**base).validate()


def test_run_produces_snapshots_and_diagnostics():
    res = run(_mini_config())
    assert res.n_steps == 10
    assert [st.k for st in res.states] == [0, 10]
    d = res.diagnostics
    assert np.all(d["pdas_converged"])
    assert np.nanmax(d["comp_residual"]) <= 1e-10
    assert np.nanmin(d["bound_min"]) >= -1e-12
    assert np.nanmax(d["bound_max"]) <= 1 + 1e-12
    assert d["enthalpy_drift"].max() <= 1e-10 * d["enthalpy_scale"]


def test_run_counts_the_interface_nodes_of_every_step():
    # the raw count of interior nodes with 0 < u < 1 on each of the 167 steps
    # of the ex1 CH preset; interface_width, whose classes put u <= 1e-3 in
    # the low phase, counts 2 at step 60, where the third node holds 7.2e-4
    cfg = example1_config("nonlocal_CH")
    res = run(cfg)
    nodes = res.diagnostics["interface_nodes"]
    assert dict(zip(*np.unique(nodes, return_counts=True))) == {1: 10, 2: 150, 3: 7}
    assert (np.flatnonzero(nodes == 3) + 1).tolist() == [60, 61, 62, 63, 64, 65, 110]
    assert build_report(result=res)["diagnostics_summary"]["interface_nodes_max"] == 3
    step60 = run(dataclasses.replace(cfg, T_final=60 * cfg.tau, snapshots=(60 * cfg.tau,)))
    u = step60.states[-1].u
    u_I = u[step60.grid.interior_ids]
    assert step60.diagnostics["interface_nodes"][-1] == np.count_nonzero(
        (u_I > 0.0) & (u_I < 1.0)) == 3
    assert interface_width(step60.grid, u).nodes_max == 2


#: Per-step active-set sweeps and CG iterations of the first 8 steps of the ex3
#: presets (no shift), the first step started from the all-inactive estimate.
#: A change that moves the 2D CG path must edit these and say so.
_EX3_SWEEP_PATH = {
    "nonlocal_CH": ([7, 4, 4, 4, 4, 4, 4, 4], [28, 19, 19, 19, 19, 18, 15, 15]),
    "local_obstacle": ([5, 4, 4, 3, 4, 3, 4, 4], [60, 51, 45, 42, 44, 41, 41, 43]),
}


@pytest.mark.parametrize("variant", sorted(_EX3_SWEEP_PATH))
def test_ex3_2d_sweep_path_is_pinned(variant):
    cfg = example3_config(variant)
    res = run(dataclasses.replace(cfg, T_final=8 * cfg.tau, snapshots=()))
    sweeps, cg_iters = _EX3_SWEEP_PATH[variant]
    assert res.diagnostics["pdas_iters"].tolist() == sweeps
    assert res.diagnostics["cg_iters"].tolist() == cg_iters


def test_run_snapshot_rounding_and_t_mismatch():
    cfg = _mini_config(T_final=2.95e-3, snapshots=(0.00044,))
    res = run(cfg)
    assert res.n_steps == 10  # round(2.95e-3 / 3e-4)
    assert res.t_mismatch == pytest.approx(5e-5, rel=1e-9)
    assert res.snapshot_levels == [1]  # 0.00044 -> nearest level k = 1
    assert res.states[0].t == pytest.approx(3e-4)


def test_run_zero_coupling_control():
    # L = 0 decouples the temperature; u0 = 0 stays identically zero
    cfg = _mini_config(
        model=ModelParams(mu=0.0012, L=0.0, D=1.0, beta=0.0),
        variant="nonlocal_AC",
        init=InitSpec(kind="step", params=(-0.5,), theta0=0.4),
    )
    res = run(cfg)
    for st in res.states:
        assert np.abs(st.u).max() == 0.0
        assert np.abs(st.theta - 0.4).max() <= 1e-12


def test_run_frame_init_complements_box():
    cfg_box = _mini_config(variant="nonlocal_AC",
                           model=ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.0),
                           init=InitSpec(kind="box", params=(0.3, 0.7)))
    cfg_frame = dataclasses.replace(
        cfg_box, init=InitSpec(kind="frame", params=(0.3, 0.7))
    ).validate()
    g = build_grid(cfg_box.dim, cfg_box.h, cfg_box.delta)
    stn = build_stencil(g, cfg_box.kernel_spec())
    sb = initial_state(cfg_box, g, stn)
    sf = initial_state(cfg_frame, g, stn)
    ids = g.interior_ids
    assert np.array_equal(sb.u[ids] + sf.u[ids], np.ones(g.n_interior))


def test_phase_and_temperature_substeps_commute():
    # the scheme is triangular: u^k uses theta^{k-1}, theta^k uses u^k
    cfg = _mini_config()
    g = build_grid(cfg.dim, cfg.h, cfg.delta)
    stn = build_stencil(g, cfg.kernel_spec())
    state = initial_state(cfg, g, stn)
    p = cfg.model
    heat = exact_solver(g, 1.0, cfg.tau * p.D)
    res = NonlocalCHStep(g, stn, p, cfg.tau, cfg.pdas).step(state.u, state.theta)
    theta_after = step_temperature(heat, g, p, state.theta, res.u, state.u)
    # "temperature first": same inputs, evaluated in the other order
    theta_first = step_temperature(heat, g, p, state.theta, res.u, state.u)
    res2 = NonlocalCHStep(g, stn, p, cfg.tau, cfg.pdas).step(state.u, state.theta)
    assert np.array_equal(res.u, res2.u)
    assert np.array_equal(theta_after, theta_first)


def test_run_ac_equals_pdas_route_per_step():
    cfg = _mini_config(
        model=ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.0),
        variant="nonlocal_AC",
        T_final=1.5e-3,
        snapshots=(0.0, 3e-4, 6e-4, 9e-4, 1.2e-3, 1.5e-3),
    )
    res = run(cfg)
    g = build_grid(cfg.dim, cfg.h, cfg.delta)
    stn = build_stencil(g, cfg.kernel_spec())
    p = cfg.model
    for prev, nxt in zip(res.states[:-1], res.states[1:]):
        ref = pdas_step_AC_nonlocal(g, stn, p, cfg.tau, prev.u,
                                    coupling_m(p, prev.theta), cfg.pdas)
        assert np.abs(ref.u - nxt.u).max() <= 1e-10


def test_timestep_admissibility_example1():
    cfg = example1_config("nonlocal_CH")
    cfg0 = dataclasses.replace(
        cfg, model=dataclasses.replace(cfg.model, beta=0.0),
        variant="nonlocal_AC",
    ).validate()
    rep = timestep_admissibility(cfg0, C_I=0.0)
    # C_gamma - xi = c_F exactly, so the bound is mu / c_F = 0.0072
    assert rep.bound == pytest.approx(0.0072, rel=1e-10)
    assert rep.status == "pass"
    # a large exterior constant trips the warning for the same tau
    rep_warn = timestep_admissibility(cfg0, C_I=5.0)
    assert rep_warn.status == "warn"
    assert rep_warn.bound < cfg0.tau


def test_timestep_admissibility_beta_cases():
    cfg = example1_config("nonlocal_CH")
    # the beta=0 denominator equals C_gamma*C_I^2 + c_F > 0 for any valid
    # config, so the vacuous branch is defensive only; c_F near c_gamma
    # still reports a finite bound
    big_cf = dataclasses.replace(
        cfg,
        model=dataclasses.replace(cfg.model, beta=0.0, c_F=0.168),
        variant="nonlocal_AC",
    )
    rep = timestep_admissibility(big_cf, C_I=0.0)
    assert rep.status == "pass"
    assert rep.bound == pytest.approx(cfg.model.mu / 0.168, rel=1e-12)
    # the beta > 0 bound needs constants the theory does not make computable
    rep_b = timestep_admissibility(cfg)
    assert rep_b.status == "not_computable" and rep_b.bound is None
    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError, match="C_I"):
            timestep_admissibility(big_cf, C_I=bad)


def test_run_rejects_invalid_variant_configs():
    with pytest.raises(Exception):
        _mini_config(variant="nonlocal_CH",
                     model=ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.0))
    with pytest.raises(Exception):
        _mini_config(variant="nonlocal_AC")  # beta = 0.02 in base


def _variant_config(variant):
    """_mini_config with the delta and beta that ``variant`` requires."""
    return _mini_config(
        variant=variant, delta=0.1 if variant.startswith("nonlocal") else 0.0,
        model=ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.02 * (variant == "nonlocal_CH")))


@pytest.mark.parametrize("variant", ["nonlocal_CH", "nonlocal_AC",
                                     "local_obstacle", "local_regular"])
def test_run_rejects_nonfinite_or_infeasible_init_file(variant, tmp_path):
    cfg = _variant_config(variant)
    g = build_grid(cfg.dim, cfg.h, cfg.delta)
    u0 = (g.coords()[g.interior_ids, 0] <= 0.3).astype(float)
    bad = {"non-finite": np.nan, "outside": 1.5}
    if variant == "local_regular":  # no bound constraint: only finiteness
        bad = {"non-finite": np.inf}
    for match, value in bad.items():
        u0[g.n_interior // 2] = value
        path = tmp_path / f"u0_{match}.csv"
        write_field(str(path), g, u0)
        with pytest.raises(ValueError, match=match):
            run(dataclasses.replace(cfg, init=InitSpec(kind="file", path=str(path))))
    u0[g.n_interior // 2] = np.nan  # reused as a theta0 file: finite only
    write_field(str(tmp_path / "theta0.csv"), g, u0)
    with pytest.raises(ValueError, match="non-finite"):
        run(dataclasses.replace(cfg, init=InitSpec(theta0=str(tmp_path / "theta0.csv"))))


@pytest.mark.parametrize("variant, dim, mode", [
    ("nonlocal_CH", 1, "explicit"), ("nonlocal_CH", 2, "explicit"),
    ("nonlocal_CH", 1, "implicit"), ("local_obstacle", 1, "explicit"),
    ("local_regular", 1, "explicit")],
    ids=["nonlocal_CH", "nonlocal_CH-2d", "nonlocal_CH-implicit", "local_obstacle",
         "local_regular"])
def test_run_caches_nothing_on_its_inputs(variant, dim, mode, monkeypatch):
    built, solvers, factorized, lo_matrices, coupled, bmats = [], [], [], [], [], []

    def record(fn):
        def wrapped(*args):
            obj = fn(*args)
            built.append((obj, set(vars(obj))))
            return obj
        return wrapped

    factorize = grid_module.factorized
    monkeypatch.setattr(stepper, "build_grid", record(stepper.build_grid))
    monkeypatch.setattr(stepper, "build_stencil", record(stepper.build_stencil))
    monkeypatch.setattr(grid_module, "factorized", lambda A: factorized.append(A) or factorize(A))
    exact = stepper.exact_solver
    monkeypatch.setattr(stepper, "exact_solver",
                        lambda *args: solvers.append(args) or exact(*args))
    lo_matrix = stepper.local_obstacle_matrix
    monkeypatch.setattr(stepper, "local_obstacle_matrix",
                        lambda *args: lo_matrices.append(args) or lo_matrix(*args))
    couple, bmat = stepper.coupled_matrix, sp.bmat
    monkeypatch.setattr(stepper, "coupled_matrix",
                        lambda *args: coupled.append(args) or couple(*args))
    monkeypatch.setattr(sp, "bmat", lambda *args, **kw: bmats.append(args) or bmat(*args, **kw))
    cfg = dataclasses.replace(_variant_config(variant),
                              pdas=PdasConfig(convolution_mode=mode)).validate()
    if dim == 2:
        cfg = dataclasses.replace(cfg, dim=2, h=1 / 16).validate()
    assert run(cfg).n_steps == 10
    assert len(built) == (2 if variant == "nonlocal_CH" else 1)
    for obj, keys in built:
        assert set(vars(obj)) == keys, type(obj).__name__
    # heat matrix (and the local_regular phase matrix, or the Green's matrix
    # of the energy diagnostics): one solver each per run, factorized once in
    # 1D (in 2D the DCT-I solve needs no factors)
    assert len(solvers) == (2 if variant == "local_regular" or cfg.records_energy else 1)
    assert len(factorized) == (len(solvers) if dim == 1 else 0)
    # the local obstacle matrix: once per run
    assert len(lo_matrices) == (1 if variant == "local_obstacle" else 0)
    # the implicit coupled matrix: once per run, and no step assembles its own
    assert len(coupled) == len(bmats) == (1 if mode == "implicit" else 0)


def test_run_starts_from_a_saved_all_nodes_snapshot(tmp_path):
    # a nonlocal snapshot holds u on every node, the layer included; a run
    # started from it through [init] file takes its interior values exactly
    res = run(_mini_config())
    g, last = res.grid, res.states[-1]
    path = tmp_path / write_snapshots(res, str(tmp_path))[-1]["files"]["u"]
    assert read_field(str(path))[1].size == g.n_nodes > g.n_interior
    again = run(dataclasses.replace(res.config, init=InitSpec(kind="file", path=str(path)),
                                    T_final=res.config.tau, snapshots=(0.0,)))
    assert np.array_equal(again.states[0].u[g.interior_ids], last.u[g.interior_ids])


def test_run_stops_at_a_cycling_active_set_step(monkeypatch):
    # xi = 2.5e-4 on the ex1 CH preset: the active sets of step 4 cycle; the
    # run stops there and names the step, t and the cycle, instead of
    # advancing an infeasible field into step 5
    steps = []
    step_CH = stepper.pdas_step_CH
    monkeypatch.setattr(stepper, "pdas_step_CH",
                        lambda *args, **kw: steps.append(step_CH(*args, **kw)) or steps[-1])
    cfg = example1_config("nonlocal_CH")
    cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, c_F=0.16841250632484397),
                              T_final=0.0015, snapshots=())
    with pytest.raises(RuntimeError,
                       match=r"step 4 \(t = 0\.0012\) did not converge: the active sets "
                             r"cycle through 9 sets"):
        run(cfg)
    assert [out.converged for out in steps] == [True, True, True, False]
    assert steps[-1].cycle == 9 and steps[-1].iters < PdasConfig.max_iters


@pytest.mark.parametrize("variant, dim, assembled", [
    ("nonlocal_CH", 1, 2), ("nonlocal_CH", 2, 1), ("nonlocal_AC", 2, 0),
    ("local_obstacle", 1, 2), ("local_regular", 1, 2), ("local_regular", 2, 0)],
    ids=["nonlocal_CH", "nonlocal_CH-2d", "nonlocal_AC-2d", "local_obstacle",
         "local_regular", "local_regular-2d"])
def test_run_frees_the_stiffness_before_the_time_loop(variant, dim, assembled, monkeypatch):
    # a M + b K is built only where it is solved with: once by the phase step
    # of an active-set variant (w_matrix, local_obstacle_matrix), and once per
    # 1D exact solver for its bands (the heat matrix; the local_regular
    # matrix).  None is alive in the time loop, and a 2D variant that does
    # not solve with K never builds one.
    stiffness, alive = [], []
    build = grid_module.mass_plus_stiffness

    def recorded(g, a, b):
        A = build(g, a, b)
        stiffness.append(weakref.ref(A))
        return A

    for module in (grid_module, pdas):
        monkeypatch.setattr(module, "mass_plus_stiffness", recorded)
    heat_step = stepper.step_temperature
    monkeypatch.setattr(stepper, "step_temperature", lambda *args: alive.append(
        any(K() is not None for K in stiffness)) or heat_step(*args))
    cfg = _variant_config(variant)
    if dim == 2:
        cfg = dataclasses.replace(cfg, dim=2, h=1 / 16).validate()
    run(cfg)
    assert len(stiffness) == assembled and alive == [False] * 10


def test_ring_correction_assembles_the_capacitance_at_its_final_size():
    # what the solver keeps: the three (n-1)-blocks of the split capacitance
    # (two real, one complex) and O(1) n x n arrays (the mass and the
    # spectrum); no dense (4n-4)^2 capacitance and no n x n transform matrix
    g = build_grid(2, 1 / 104, 0.0826)
    n = g.n_axis_interior
    tracemalloc.start()
    try:
        solve = exact_solver(g, 1.0, 1e-4)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert callable(solve)
    assert kept <= (8 + 8 + 16) * (n - 1)**2 + 4 * n**2 * 8


@pytest.mark.parametrize("n_cells", [1, 2, 7, 30])
def test_layered_exact_solver_is_quarter_turn_equivariant(n_cells):
    # the ring capacitance is split over the quarter turn of the square: a
    # right-hand side turned on the (n, n) view gives the turned solution
    g = build_grid(2, 1.0 / n_cells, 0.1)
    shape = g.interior_shape
    solve = exact_solver(g, 1.0, 0.37)
    r = np.random.default_rng(n_cells).standard_normal(shape)
    x = solve(r.ravel()).reshape(shape)
    for k in (1, 2, 3):
        turned = solve(np.rot90(r, k).ravel()).reshape(shape)
        assert np.abs(turned - np.rot90(x, k)).max() <= 1e-13 * np.abs(x).max()


@pytest.mark.parametrize("dim, delta", [(1, 0.0), (1, 0.1), (2, 0.0), (2, 0.1)])
@pytest.mark.parametrize("init", [InitSpec(kind="step", params=(0.3,)),
                                  InitSpec(kind="box", params=(0.25, 0.6)),
                                  InitSpec(kind="frame", params=(0.1, 0.9))],
                         ids=["step", "box", "frame"])
def test_initial_state_reads_the_interior_axis_like_the_coordinates(init, dim, delta):
    # the masks built per axis are the ones read off grid.coords(), on the
    # interior nodes with and without an interaction layer
    cfg = dataclasses.replace(_mini_config(), dim=dim, h=1 / 20, delta=delta, init=init)
    g = build_grid(dim, cfg.h, delta)
    u0 = initial_state(cfg, g, None).u[g.interior_ids]
    assert np.array_equal(u0, initial_field_from_coords(g, init))
    assert 0 < u0.sum() < g.n_interior


def test_explicit_runs_never_load_superlu():
    # only implicit convolution solves with SuperLU: a few steps of every 2D
    # variant leave scipy.sparse.linalg unloaded, and an implicit 1D step
    # loads it on first use and succeeds
    code = textwrap.dedent("""
        import dataclasses, sys
        from nlpf.pdas import PdasConfig
        from nlpf.presets import example1_config, example3_config
        from nlpf.stepper import run

        for variant in ("nonlocal_CH", "nonlocal_AC", "local_obstacle", "local_regular"):
            cfg = dataclasses.replace(example3_config(variant), h=1 / 32, snapshots=())
            cfg = dataclasses.replace(cfg, T_final=3 * cfg.tau).validate()
            assert run(cfg).n_steps == 3
        assert "scipy.sparse.linalg" not in sys.modules, "an explicit run loaded it"
        cfg = example1_config("nonlocal_CH")
        cfg = dataclasses.replace(cfg, T_final=cfg.tau, snapshots=(),
                                  pdas=PdasConfig(convolution_mode="implicit")).validate()
        res = run(cfg)
        assert res.n_steps == 1 and res.diagnostics["pdas_converged"].all()
        assert "scipy.sparse.linalg" in sys.modules
    """)
    src = str(Path(stepper.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
