import numpy as np
import pytest

from nlpf.grid import build_grid
from nlpf.metrics import interface_width, field_distance


def _grid1d(n_cells=30):
    return build_grid(1, 1.0 / n_cells, 0.0)


def brute_force_widths(u, tol):
    """Direct scan: maximal runs of cells not joining two equal pure phases."""
    cls = np.where(u <= tol, 0, np.where(u >= 1 - tol, 2, 1))
    runs, count = [], 0
    for a, b in zip(cls[:-1], cls[1:]):
        iface = not ((a == 0 and b == 0) or (a == 2 and b == 2))
        if iface:
            count += 1
        elif count:
            runs.append(count)
            count = 0
    if count:
        runs.append(count)
    return runs


def test_exact_step_single_transition_cell():
    g = _grid1d()
    u = (g.coords()[:, 0] <= 0.5).astype(float)
    rep = interface_width(g, u)
    assert rep.widths == [1]
    assert rep.interior_nodes == [0]
    assert rep.fraction_low + rep.fraction_high == pytest.approx(1.0)


def test_uniform_half_is_whole_line():
    g = _grid1d()
    rep = interface_width(g, np.full(g.n_nodes, 0.5))
    assert rep.widths == [g.n_cells]
    assert rep.fraction_low == 0.0 and rep.fraction_high == 0.0


def test_linear_ramp_over_ten_cells():
    g = _grid1d(30)
    x = g.coords()[:, 0]
    # ramp from 1 to 0 over 10 cells starting at x = 0.3
    u = np.clip((0.3 + 10 * g.h - x) / (10 * g.h), 0.0, 1.0)
    rep = interface_width(g, u, tol=1e-3)
    assert rep.widths == [10]
    assert rep.interior_nodes == [9]
    assert rep.normal_min == pytest.approx(9.0)


def test_relabeling_symmetry():
    g = _grid1d(50)
    rng = np.random.default_rng(23)
    u = np.clip(rng.random(g.n_nodes), 0.0, 1.0)
    a = interface_width(g, u)
    b = interface_width(g, 1.0 - u)
    assert sorted(a.widths) == sorted(b.widths)
    assert a.fraction_low == pytest.approx(b.fraction_high)


def brute_force_line_scan(u_lines, tol):
    """Runs of every crossing line (else every line with a MID node), in order."""
    crossing = [ln for ln in u_lines if (ln <= tol).any() and (ln >= 1 - tol).any()]
    if not crossing:
        crossing = [ln for ln in u_lines if ((ln > tol) & (ln < 1 - tol)).any()]
    return [w for ln in crossing for w in brute_force_widths(ln, tol)] or [0]


@pytest.mark.parametrize("dim", [1, 2])
def test_widths_match_brute_force_scan(dim):
    g = build_grid(dim, 1 / 64 if dim == 1 else 1 / 12, 0.0)
    rng = np.random.default_rng(29)
    # the last levels have MID and LOW nodes but no line crossing LOW to HIGH
    for levels in [[0.0, 0.2, 0.5, 0.8, 1.0]] * 10 + [[0.0, 0.2, 0.5]] * 3:
        u = rng.choice(levels, size=g.n_nodes)
        rep = interface_width(g, u, tol=1e-3)
        if dim == 1:
            # the single line is scanned whether or not it crosses
            assert rep.widths == (brute_force_widths(u, 1e-3) or [0])
        else:
            # x-lines (rows of the (y, x) array), then y-lines
            arr = u.reshape(g.interior_shape)
            assert rep.widths == brute_force_line_scan(list(arr) + list(arr.T), 1e-3)


def test_two_dimensional_bands():
    g = build_grid(2, 1 / 40, 0.0)
    x = g.coords()[g.interior_ids, 0]
    # vertical interface: ramp over 4 cells around x = 0.5
    u = np.clip((x - 0.45) / (4 * g.h), 0.0, 1.0)
    rep = interface_width(g, u, tol=1e-3)
    assert rep.nodes_min == rep.nodes_max == 3
    assert rep.width_min == rep.width_max == 4
    assert rep.normal_min == pytest.approx(3.0)
    assert rep.normal_p95 <= rep.normal_max


def test_field_distance_cases():
    g = _grid1d(12)
    ids = g.interior_ids
    ones = np.ones(g.n_interior)
    zeros = np.zeros(g.n_interior)
    assert field_distance(g, ones, ones) == 0.0
    assert field_distance(g, ones, zeros) == pytest.approx(1.0)
    g6 = build_grid(1, 1 / 5, 0.0)
    rng = np.random.default_rng(1)
    a, b = rng.random(6), rng.random(6)
    w = np.full(6, 0.2)
    w[0] = w[-1] = 0.1
    ref = np.sqrt((w * (a - b) ** 2).sum())
    assert field_distance(g6, a, b) == pytest.approx(ref, rel=1e-14)
    with pytest.raises(ValueError):
        field_distance(g6, a[:4], b)


@pytest.mark.parametrize("dim", [1, 2])
def test_interface_width_of_a_field_without_interface(dim):
    # all LOW: no line crosses an interface or holds a MID node
    g = build_grid(dim, 1 / 10, 0.0)
    rep = interface_width(g, np.zeros(g.n_interior))
    assert rep.widths == [0] and rep.interior_nodes == [0]
    assert rep.fraction_low == 1.0 and rep.fraction_high == 0.0
    assert (rep.normal_min, rep.normal_max, rep.normal_p05, rep.normal_p95) == (0.0,) * 4


def test_interface_width_shape_checks():
    g = _grid1d(10)
    with pytest.raises(ValueError):
        interface_width(g, np.zeros(3))


@pytest.mark.parametrize("tol", [0.5, 0.7, -1.0, float("nan"), float("inf")])
def test_interface_width_rejects_overlapping_classes(tol):
    g = _grid1d(10)
    with pytest.raises(ValueError, match="tol"):
        interface_width(g, np.full(g.n_nodes, 0.5), tol=tol)
