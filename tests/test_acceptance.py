"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 2-6 and 11 evaluate the reference-experiment reproductions (session
fixtures run them once); the others are oracle/property checks at desk scale.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from nlpf.grid import assemble_stiffness, build_grid
from nlpf.kernel import KernelSpec, c_gamma_closed_form
from nlpf.nonlocal_ops import build_stencil, convolve
from nlpf.pdas import (PdasConfig, WSolver, local_obstacle_matrix, pdas_step_CH,
                       pdas_step_local_obstacle, w_matrix)
from nlpf.physics import ModelParams, coupling_m
from nlpf.presets import EX2_DELTAS, example1_config
from nlpf.stepper import NonlocalACStep, exact_solver, run, step_temperature
from oracles import (
    c_gamma_quadrature,
    dense_conv_matrix,
    dense_stiffness_1d,
    enumerate_CH_explicit,
    enumerate_local_obstacle,
    pdas_step_AC_nonlocal,
    second_moment_check,
)


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  [{detail}]")


def test_criterion_01_kernel_constants():
    t0 = time.perf_counter()
    ex1 = KernelSpec(epsilon=0.02, delta=0.1540, dim=1)
    ex3 = KernelSpec(epsilon=0.01, delta=0.0826, dim=2)
    for spec in (ex1, ex3, KernelSpec(1.0, 1.0, 1), KernelSpec(0.4, 0.2, 2)):
        closed = c_gamma_closed_form(spec)
        assert abs(closed - c_gamma_quadrature(spec)) / closed <= 1e-8
        assert second_moment_check(spec) <= 1e-8
    xi1 = c_gamma_closed_form(ex1) - 1.0 / 6.0
    xi3 = c_gamma_closed_form(ex3) - 1.0 / 6.0
    assert abs(xi1 - 0.002) <= 5e-5
    assert abs(xi3 - 0.0093) <= 2e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"xi_ex1={xi1:.6f}, xi_ex3={xi3:.6f}, runtime={elapsed:.2f}s")


def test_criterion_02_example1_interface_sharpness(ex1_outputs):
    # sharp constrained-CH interface: at most two grid points strictly
    # between the phases at every snapshot (the published counting; the
    # run-of-cells width is reported alongside)
    ch = ex1_outputs["widths"]["nonlocal_CH"]
    for t, rep in ch.items():
        assert rep.nodes_max <= 2, f"t={t}: {rep.nodes_max} interior nodes"
    t_last = max(ex1_outputs["widths"]["local_obstacle"])
    loc = ex1_outputs["widths"]["local_obstacle"][t_last]
    assert loc.nodes_max >= 5
    runtime = sum(r.runtime_seconds for r in ex1_outputs["results"].values())
    assert runtime < 60.0
    _report(2, "CH interior nodes per snapshot = "
               f"{[rep.nodes_max for rep in ch.values()]}, "
               f"local = {loc.nodes_max}, runtime = {runtime:.1f}s")


def test_criterion_03_example3_width_windows(ex3_outputs):
    windows = {"nonlocal_CH": (0, 3), "nonlocal_AC": (14, 20),
               "local_obstacle": (16, 22)}
    details = []
    for variant, (lo, hi) in windows.items():
        wmin, wmax = ex3_outputs["widths"][variant]
        assert wmin >= lo and wmax <= hi, (
            f"{variant}: [{wmin:.2f}, {wmax:.2f}] outside [{lo}, {hi}]")
        details.append(f"{variant}=[{wmin:.1f},{wmax:.1f}]")
    for variant, res in ex3_outputs["results"].items():
        assert res.runtime_seconds < 600.0
    _report(3, ", ".join(details))


def test_criterion_04_bound_feasibility(all_repro_results):
    worst = 0.0
    for label, key, res in all_repro_results:
        if not res.config.is_obstacle:
            continue
        lo = np.nanmin(res.diagnostics["bound_min"])
        hi = np.nanmax(res.diagnostics["bound_max"])
        assert lo >= -1e-12, f"{label}/{key}: min u = {lo}"
        assert hi <= 1 + 1e-12, f"{label}/{key}: max u = {hi}"
        worst = max(worst, -lo, hi - 1.0)
    _report(4, f"worst bound excursion across repro runs = {worst:.2e}")


def test_criterion_05_complementarity(all_repro_results):
    worst = 0.0
    for label, key, res in all_repro_results:
        arr = res.diagnostics["comp_residual"]
        arr = arr[np.isfinite(arr)]
        if not len(arr):
            continue
        m = float(arr.max())
        assert m <= 1e-10, f"{label}/{key}: residual {m}"
        worst = max(worst, m)
    _report(5, f"max complementarity residual = {worst:.2e}")


def test_criterion_06_enthalpy_conservation(all_repro_results):
    worst = 0.0
    for label, key, res in all_repro_results:
        drift = float(res.diagnostics["enthalpy_drift"].max())
        scale = res.diagnostics["enthalpy_scale"]
        assert drift <= 1e-10 * scale, f"{label}/{key}: drift {drift}"
        worst = max(worst, drift / scale)
    _report(6, f"max relative enthalpy drift = {worst:.2e}")


def test_criterion_07a_ac_fast_path_vs_pdas():
    g = build_grid(1, 1 / 24, 0.14)
    stn = build_stencil(g, KernelSpec(0.06, 0.14, 1))
    p = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.0)
    cfg = PdasConfig()
    ac = NonlocalACStep(g, stn, p, 3e-4)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        u_prev = np.clip(rng.random(g.n_nodes), 0.0, 1.0)
        theta = rng.normal(1.0, 0.8, g.n_interior)
        fast = ac.step(u_prev, theta).u
        res = pdas_step_AC_nonlocal(g, stn, p, 3e-4, u_prev,
                                    coupling_m(p, theta), cfg)
        assert res.converged
        worst = max(worst, float(np.abs(fast - res.u).max()))
    assert worst <= 1e-10
    _report("7a", f"50 random steps, max |fast - pdas| = {worst:.2e}")


def test_criterion_07b_pdas_vs_exhaustive_enumeration():
    p_ch = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.02)
    p_lo = ModelParams(mu=0.0012, L=0.5, D=1.0, beta=0.0)
    rng = np.random.default_rng(202)
    worst = 0.0
    # constrained CH, 8 interior nodes
    g = build_grid(1, 1 / 7, 2.6 / 7)
    stn = build_stencil(g, KernelSpec(0.35, 2.6 / 7, 1))
    W = dense_conv_matrix(g.coords(), g.lumped_mass, 0.35, 2.6 / 7, 1)
    K = dense_stiffness_1d(g.n_interior, g.h)
    w_solver = WSolver(g, w_matrix(g, assemble_stiffness(g), p_ch.beta, 3e-4))
    for _ in range(3):
        u_prev = np.clip(rng.random(g.n_nodes), 0.0, 1.0)
        m_prev = rng.uniform(-0.45, 0.45, g.n_interior)
        res = pdas_step_CH(g, stn, p_ch, 3e-4, u_prev, m_prev, PdasConfig(), w_solver)
        u_ref, _, _ = enumerate_CH_explicit(g, W, p_ch, 3e-4, u_prev, m_prev, K)
        worst = max(worst, float(np.abs(res.u[g.interior_ids] - u_ref).max()))
    # local obstacle, 8 interior nodes
    gl = build_grid(1, 1 / 7, 0.0)
    Kl = dense_stiffness_1d(gl.n_interior, gl.h)
    A = local_obstacle_matrix(gl, assemble_stiffness(gl), p_lo, 3e-4, 0.3)
    for _ in range(3):
        u_prev = np.clip(rng.random(gl.n_nodes), 0.0, 1.0)
        m_prev = rng.uniform(-0.45, 0.45, gl.n_interior)
        res = pdas_step_local_obstacle(gl, p_lo, 3e-4, A, u_prev, m_prev, PdasConfig())
        u_ref, _ = enumerate_local_obstacle(gl, p_lo, 3e-4, 0.3, u_prev,
                                            m_prev, Kl)
        worst = max(worst, float(np.abs(res.u - u_ref).max()))
    assert worst <= 1e-9
    _report("7b", f"3^8 enumeration (CH + local), max mismatch = {worst:.2e}")


def test_criterion_07c_convolution_vs_dense():
    worst = 0.0
    for dim, h, dc in ((1, 1 / 150, 3.3), (2, 1 / 7, 2.6)):
        g = build_grid(dim, h, dc * h)
        assert g.n_nodes <= 200
        # c_gamma = O(1) so the absolute tolerance is meaningful
        eps = dc * h / (10 if dim == 1 else 12) ** 0.5
        spec = KernelSpec(eps, dc * h, dim)
        stn = build_stencil(g, spec)
        W = dense_conv_matrix(g.coords(), g.lumped_mass, spec.epsilon,
                              spec.delta, dim)
        rng = np.random.default_rng(dim)
        for _ in range(10):
            u = rng.standard_normal(g.n_nodes)
            worst = max(worst, float(np.abs(convolve(stn, u) - W @ u).max()))
    assert worst <= 1e-12
    _report("7c", f"dense-matrix agreement at N <= 200: {worst:.2e}")


@pytest.fixture(scope="module")
def implicit_ch_run():
    cfg = example1_config("nonlocal_CH", convolution_mode="implicit")
    cfg = dataclasses.replace(cfg, T_final=0.0163).validate()
    return run(cfg)


def test_criterion_08_projection_formula_consistency(implicit_ch_run):
    resid = implicit_ch_run.diagnostics["proj_residual"]
    assert np.isfinite(resid).all()
    assert float(resid.max()) <= 1e-8
    _report(8, f"max |u - P(g/xi)| over {len(resid)} implicit steps = "
               f"{resid.max():.2e}")


def test_criterion_09_energy_descent(implicit_ch_run):
    d = implicit_ch_run.diagnostics
    gap = d["energy_J_new"] - d["energy_J_prev"]
    assert np.isfinite(gap).all()
    assert float(gap.max()) <= 1e-12
    _report(9, f"max J(u_new) - J(u_prev) over {len(gap)} steps = "
               f"{gap.max():.2e}")


def test_criterion_10_heat_equation_control():
    g = build_grid(1, 1 / 63, 0.0)  # 64 nodes
    p = ModelParams(mu=1.0, L=0.0, D=1.0)
    tau = 1e-4
    x = g.coords()[g.interior_ids, 0]
    theta = np.cos(np.pi * x)
    lam_h = (2.0 / g.h**2) * (1.0 - math.cos(math.pi * g.h))
    u = np.zeros(g.n_interior)
    heat = exact_solver(g, 1.0, tau * p.D)
    worst = 0.0
    for k in range(1, 31):
        theta = step_temperature(heat, g, p, theta, u, u)
        expected = (1.0 + tau * lam_h) ** (-k) * np.cos(np.pi * x)
        worst = max(worst, float(np.abs(theta - expected).max()))
    assert worst <= 1e-6
    _report(10, f"30 backward-Euler steps, max eigen-decay error = {worst:.2e}")


def test_criterion_10_heat_equation_control_2d():
    g = build_grid(2, 1 / 31, 0.0)  # 32 x 32 nodes
    p = ModelParams(mu=1.0, L=0.0, D=1.0)
    tau = 1e-4
    xy = g.coords()[g.interior_ids]
    mode = np.cos(np.pi * xy[:, 0]) * np.cos(np.pi * xy[:, 1])
    lam_h = 2 * (2.0 / g.h**2) * (1.0 - math.cos(math.pi * g.h))
    theta, u = mode, np.zeros(g.n_interior)
    heat = exact_solver(g, 1.0, tau * p.D)
    worst = 0.0
    for k in range(1, 31):
        theta = step_temperature(heat, g, p, theta, u, u)
        expected = (1.0 + tau * lam_h) ** (-k) * mode
        worst = max(worst, float(np.abs(theta - expected).max()))
    assert worst <= 1e-12
    _report(10, f"2D: 30 backward-Euler steps, max eigen-decay error = {worst:.2e}")


def test_criterion_11_localization_monotonicity(ex2_outputs):
    d = ex2_outputs["distances"]
    ordered = [d[delta] for delta in EX2_DELTAS]
    assert all(a > b for a, b in zip(ordered, ordered[1:])), ordered
    _report(11, "distance to local solution decreases: "
                + " > ".join(f"{v:.4f}" for v in ordered))
