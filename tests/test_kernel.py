import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nlpf.kernel import KernelSpec, c_gamma_closed_form, kernel_eval
from oracles import c_gamma_quadrature, second_moment_check

EX1 = KernelSpec(epsilon=0.02, delta=0.1540, dim=1)
EX3 = KernelSpec(epsilon=0.01, delta=0.0826, dim=2)


def test_kernel_eval_unit_spec_at_origin():
    # C(1) = 15/2 in 1D, max-term 1 at r = 0
    assert kernel_eval(KernelSpec(1.0, 1.0, 1), 0.0) == pytest.approx(7.5, abs=0)


def test_kernel_eval_zero_at_support_boundary():
    for spec in (EX1, EX3, KernelSpec(1.0, 1.0, 1)):
        assert kernel_eval(spec, spec.delta) == 0.0
        assert kernel_eval(spec, 2.0 * spec.delta) == 0.0


def test_kernel_eval_half_radius():
    spec = EX1
    expected = 0.02**2 * (15.0 / (2.0 * 0.1540**3)) * 0.75
    assert kernel_eval(spec, 0.077) == pytest.approx(expected, rel=1e-14)


def test_scaling_constant_values():
    # dim 3 and delta <= 0 are rejected by KernelSpec (test_spec_validation)
    assert KernelSpec(1.0, 0.1, 1).scaling == pytest.approx(7500.0, rel=1e-14)
    assert KernelSpec(1.0, 1.0, 1).scaling == pytest.approx(7.5, rel=1e-14)
    assert KernelSpec(1.0, 1.0, 2).scaling == pytest.approx(24.0 / math.pi, rel=1e-14)


@pytest.mark.parametrize(
    "spec",
    [KernelSpec(1.0, 1.0, 1), EX1, EX3, KernelSpec(0.4, 0.33, 2)],
    ids=["unit-1d", "ex1", "ex3", "generic-2d"],
)
def test_second_moment_normalization(spec):
    assert second_moment_check(spec) <= 1e-8


def test_second_moment_unit_value_is_two():
    # analytic: integral of z^2 * (15/2)(1 - z^2) over [-1, 1] equals 2
    spec = KernelSpec(1.0, 1.0, 1)
    val, _ = quad(lambda r: 2.0 * r**2 * kernel_eval(spec, r), 0.0, 1.0)
    assert val == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize(
    "spec",
    [KernelSpec(1.0, 1.0, 1), EX1, EX3, KernelSpec(0.11, 0.061, 2)],
    ids=["unit-1d", "ex1", "ex3", "generic-2d"],
)
def test_c_gamma_closed_form_matches_quadrature(spec):
    closed = c_gamma_closed_form(spec)
    # independent oracle: adaptive quadrature of the radial integral
    if spec.dim == 1:
        ref, _ = quad(lambda r: 2.0 * kernel_eval(spec, r), 0.0, spec.delta)
    else:
        ref, _ = quad(
            lambda r: 2.0 * math.pi * r * kernel_eval(spec, r), 0.0, spec.delta
        )
    assert abs(closed - ref) / ref <= 1e-8
    assert abs(closed - c_gamma_quadrature(spec)) / closed <= 1e-8


def test_c_gamma_unit_parameters():
    assert c_gamma_closed_form(KernelSpec(1.0, 1.0, 1)) == pytest.approx(10.0)


def test_xi_reference_values():
    # xi = c_gamma - c_F with c_F = 1/6
    assert c_gamma_closed_form(EX1) - 1.0 / 6.0 == pytest.approx(0.002, abs=5e-5)
    assert c_gamma_closed_form(EX3) - 1.0 / 6.0 == pytest.approx(0.0093, abs=2e-4)


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        KernelSpec(1.0, 0.0, 1)
    with pytest.raises(ValueError):
        KernelSpec(1.0, 1.0, 3)


@settings(max_examples=60, deadline=None)
@given(
    eps=st.floats(1e-3, 10.0),
    delta=st.floats(1e-3, 10.0),
    dim=st.sampled_from([1, 2]),
    s=st.floats(0.0, 2.0),
)
def test_kernel_nonnegative_and_compactly_supported(eps, delta, dim, s):
    spec = KernelSpec(eps, delta, dim)
    r = s * delta
    val = kernel_eval(spec, r)
    assert val >= 0.0
    if r >= delta:
        assert val == 0.0


def test_c_gamma_strictly_decreasing_in_delta():
    deltas = np.linspace(0.05, 1.5, 40)
    vals = [c_gamma_closed_form(KernelSpec(0.3, d, 1)) for d in deltas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
