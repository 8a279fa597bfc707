import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from eongp import physics as ph
from eongp.model import DerivedConstants, PhysicsConstants, derived_constants

DER = derived_constants(PhysicsConstants())


def ctx_for(span_counts, shared=None):
    n = len(span_counts)
    if shared is None:
        shared = np.diag(span_counts)
    return ph.NoiseContext(tuple(span_counts), np.asarray(shared), DER)


def chan(p, f, bw):
    return ph.ChannelState(power_w=p, center_hz=f, bandwidth_hz=bw)


# ---------------------------------------------------------------- log kernel

def test_log_kernel_exact_value():
    assert math.isclose(ph.log_ratio_exact(1.0), math.log10(3.0), rel_tol=1e-15)
    with mpmath.workdps(40):
        want = float(mpmath.log10(mpmath.mpf("1.35") / mpmath.mpf("0.65")))
    assert math.isclose(ph.log_ratio_exact(0.7), want, rel_tol=1e-14)


def test_log_kernel_errors_at_unit_ratio():
    ex = ph.log_ratio_exact(1.0)
    err1 = 100 * (ph.log_ratio_linear(1.0) - ex) / ex
    err3 = 100 * (ph.log_ratio_cubic(1.0) - ex) / ex
    assert abs(err1 - (-9.0)) < 0.2
    assert abs(err3 - (-0.36)) < 0.2


def test_log_kernel_error_grid_bounds():
    grid = ph.log_kernel_error_grid()
    assert grid["x"][0] > 0 and grid["x"][-1] == pytest.approx(1.2)
    assert abs(grid["rel_err1"]).max() <= 0.15
    assert abs(grid["rel_err3"]).max() <= 0.03
    # away from zero the linear kernel underestimates; below x ~ 0.012 the
    # rounded slope (0.4343 > 1/ln10) makes it overshoot by a hair
    assert (grid["rel_err1"][grid["x"] >= 0.05] < 0).all()


@given(st.floats(min_value=0.05, max_value=1.19))
def test_log_kernel_monotone_and_ordered(x):
    assert ph.log_ratio_exact(x + 0.01) > ph.log_ratio_exact(x)
    assert ph.log_ratio_linear(x) < ph.log_ratio_exact(x)
    assert ph.log_ratio_cubic(x) > ph.log_ratio_linear(x)


# ---------------------------------------------------------------- XCI

def test_xci_exact_single_pair_oracle():
    # Two channels, 3 shared spans: recompute the closed form at 40 digits.
    channels = [chan(2e-3, 200e9, 25e9), chan(3e-3, 150e9, 20e9)]
    ctx = ctx_for([4, 3], [[4, 3], [3, 3]])
    with mpmath.workdps(40):
        p_i, bw_i = mpmath.mpf("3e-3"), mpmath.mpf("20e9")
        d = mpmath.mpf("50e9")
        kernel = mpmath.log10((d + bw_i / 2) / (d - bw_i / 2))
        want = float(mpmath.mpf(repr(DER.kerr)) * mpmath.mpf("2e-3")
                     * p_i ** 2 / bw_i ** 2 * 3 * kernel)
    got = ph.xci_exact(0, channels, ctx)
    assert math.isclose(got, want, rel_tol=1e-12)


def test_xci_translation_invariance():
    channels = [chan(2e-3, 200e9, 25e9), chan(3e-3, 150e9, 20e9)]
    moved = [chan(2e-3, 500e9, 25e9), chan(3e-3, 450e9, 20e9)]
    ctx = ctx_for([4, 3], [[4, 3], [3, 3]])
    assert ph.xci_exact(0, channels, ctx) == pytest.approx(
        ph.xci_exact(0, moved, ctx), rel=1e-14)


def test_xci_additive_over_neighbors():
    chs = [chan(2e-3, 300e9, 25e9), chan(1e-3, 200e9, 20e9),
           chan(4e-3, 450e9, 30e9)]
    shared = [[5, 2, 3], [2, 4, 0], [3, 0, 6]]
    ctx = ctx_for([5, 4, 6], shared)
    total = ph.xci_exact(0, chs, ctx)
    only1 = ph.xci_exact(0, [chs[0], chs[1]], ctx_for([5, 4], [[5, 2], [2, 4]]))
    only2 = ph.xci_exact(0, [chs[0], chs[2]], ctx_for([5, 6], [[5, 3], [3, 6]]))
    assert total == pytest.approx(only1 + only2, rel=1e-14)


def test_xci_ignores_disjoint_and_detects_overlap():
    # overlapping frequencies but no common span: fine, contributes nothing
    chs = [chan(2e-3, 200e9, 25e9), chan(3e-3, 210e9, 25e9)]
    ctx = ctx_for([4, 3], [[4, 0], [0, 3]])
    assert ph.xci_exact(0, chs, ctx) == 0.0
    # same frequencies on a shared span: physical overlap, must raise
    ctx2 = ctx_for([4, 3], [[4, 1], [1, 3]])
    with pytest.raises(ph.ChannelOverlapError):
        ph.xci_exact(0, chs, ctx2)


def test_xci_approx_accuracy():
    # ratio bw/spacing = 0.1: both orders should be well under 1 percent off
    chs = [chan(2e-3, 400e9, 25e9), chan(3e-3, 200e9, 20e9)]
    ctx = ctx_for([4, 3], [[4, 3], [3, 3]])
    exact = ph.xci_exact(0, chs, ctx)
    a1 = ph.xci_approx(0, chs, ctx, order=1)
    a3 = ph.xci_approx(0, chs, ctx, order=3)
    assert abs(a1 / exact - 1) < 0.005
    assert abs(a3 / exact - 1) < 0.001
    assert a1 < exact  # linear kernel underestimates
    with pytest.raises(ValueError):
        ph.xci_approx(0, chs, ctx, order=2)


def test_xci_approx_rejects_coincident_centers():
    # zero spacing on a shared span: singular kernel, reported as an overlap
    chs = [chan(2e-3, 200e9, 25e9), chan(3e-3, 200e9, 20e9)]
    ctx = ctx_for([4, 3], [[4, 3], [3, 3]])
    for order in (1, 3):
        with pytest.raises(ph.ChannelOverlapError):
            ph.xci_approx(0, chs, ctx, order=order)
    # without a common span the pair does not interact
    assert ph.xci_approx(0, chs, ctx_for([4, 3]), order=1) == 0.0


# ---------------------------------------------------------------- SCI / ASE

def test_sci_exact_oracle():
    chs = [chan(2e-3, 200e9, 25e9)]
    ctx = ctx_for([5])
    with mpmath.workdps(40):
        kerr = mpmath.mpf(repr(DER.kerr))
        shape = mpmath.mpf(repr(DER.sci_shape))
        p, bw = mpmath.mpf("2e-3"), mpmath.mpf("25e9")
        want = float(kerr * 5 * p ** 3 / bw ** 2 * mpmath.asinh(shape * bw ** 2))
    assert math.isclose(ph.sci_exact(0, chs, ctx), want, rel_tol=1e-12)


def test_sci_approx_overshoot_depends_on_bandwidth():
    ctx = ctx_for([5])
    wide = [chan(2e-3, 200e9, 25e9)]
    rel_wide = ph.sci_approx(0, wide, ctx) / ph.sci_exact(0, wide, ctx) - 1
    assert 0.18 < rel_wide < 0.20  # asinh argument ~1.24 at 25 GHz
    narrow = [chan(2e-3, 200e9, 8.34e9)]
    rel_narrow = ph.sci_approx(0, narrow, ctx) / ph.sci_exact(0, narrow, ctx) - 1
    assert 0.0 < rel_narrow < 0.005
    # the monomial form never undershoots: asinh(x) <= x
    assert ph.sci_approx(0, wide, ctx) >= ph.sci_exact(0, wide, ctx)


def test_ase_value():
    chs = [chan(2e-3, 200e9, 25e9)]
    assert ph.ase(0, chs, ctx_for([7])) == pytest.approx(DER.ase * 7 * 25e9,
                                                         rel=1e-15)


# ---------------------------------------------------------------- OSNR

def test_osnr_combines_noise_terms():
    chs = [chan(2e-3, 300e9, 25e9), chan(1e-3, 200e9, 20e9)]
    ctx = ctx_for([5, 4], [[5, 2], [2, 4]])
    want = chs[0].power_w / (ph.ase(0, chs, ctx) + ph.xci_exact(0, chs, ctx)
                             + ph.sci_exact(0, chs, ctx))
    got = ph.osnr(0, chs, ctx, mode="exact")
    assert got == pytest.approx(want, rel=1e-15)
    approx = ph.osnr(0, chs, ctx, mode="approx1")
    wanted = chs[0].power_w / (ph.ase(0, chs, ctx)
                               + ph.xci_approx(0, chs, ctx, 1)
                               + ph.sci_approx(0, chs, ctx))
    assert approx == pytest.approx(wanted, rel=1e-15)
    with pytest.raises(ValueError):
        ph.osnr(0, chs, ctx, mode="huh")


def test_osnr_isolated_channel_is_infinite():
    got = ph.osnr(0, [chan(2e-3, 200e9, 25e9)], ctx_for([0]))
    assert got == math.inf


def test_approx_osnr_overestimates_with_roomy_spacing():
    # linear XCI undershoots and monomial SCI overshoots; with ASE domination
    # differences stay small
    chs = [chan(1e-3, 300e9, 10e9), chan(1e-3, 200e9, 10e9)]
    ctx = ctx_for([5, 4], [[5, 2], [2, 4]])
    exact = ph.osnr(0, chs, ctx, "exact")
    a1 = ph.osnr(0, chs, ctx, "approx1")
    assert abs(a1 / exact - 1) < 0.02


# ---------------------------------------------------------------- OSNR fits

def test_required_osnr_rejects_unknown_fit():
    for fit in ("nearest", "table"):
        with pytest.raises(ValueError):
            ph.required_osnr(4.0, fit)


def test_fit_anchor_values():
    # power law at the top efficiency
    assert ph.required_osnr(12.0, "power_law") == pytest.approx(125.3, abs=0.1)
    # fractional-exponent binomial at the top efficiency
    assert ph.required_osnr(12.0, "binomial_frac") == pytest.approx(127.2,
                                                                    abs=0.2)
    with mpmath.workdps(40):
        want_pow = float(mpmath.mpf("0.0351") * mpmath.mpf(12) ** mpmath.mpf("3.292"))
        want_bin = float((1 + mpmath.mpf("0.0557") * 12) ** mpmath.mpf("9.4691"))
        want_int = float((1 + mpmath.mpf("0.0557") * 12) ** 10)
    assert math.isclose(ph.required_osnr(12.0, "power_law"), want_pow,
                        rel_tol=1e-6)
    assert math.isclose(ph.required_osnr(12.0, "binomial_frac"), want_bin,
                        rel_tol=1e-6)
    assert math.isclose(ph.required_osnr(12.0, "binomial_int"), want_int,
                        rel_tol=1e-6)


def test_fit_error_ordering_over_table():
    cols = ph.osnr_fit_error_table()
    worst = {fit: abs(cols[f"rel_err_{fit}"]).max() for fit in ph.OSNR_FITS}
    assert worst["binomial_frac"] <= worst["binomial_int"] <= worst["power_law"]
    assert worst["binomial_frac"] == pytest.approx(0.228, abs=0.01)
    assert worst["binomial_int"] == pytest.approx(0.311, abs=0.01)
    assert worst["power_law"] == pytest.approx(0.902, abs=0.01)


@given(st.floats(min_value=2.0, max_value=11.9))
def test_fits_increase_with_efficiency(eff):
    for fit in ph.OSNR_FITS:
        assert ph.required_osnr(eff + 0.1, fit) > ph.required_osnr(eff, fit) > 0


def test_context_validation():
    with pytest.raises(ValueError):
        ph.NoiseContext((2, 3), np.array([[2, 1], [0, 3]]), DER)
    with pytest.raises(ValueError):
        ph.NoiseContext((2, 3), np.array([[2, 1], [1, 4]]), DER)
    with pytest.raises(ValueError):
        ph.NoiseContext((2,), np.zeros((2, 2)), DER)
