import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from eongp import physics as ph
from eongp.model import ModulationTable, PhysicsConstants

PHYS = PhysicsConstants()


def ctx_for(span_counts, shared={}):
    """A context whose pairs q < i in `shared` share that many spans."""
    both = {**shared, **{(i, q): n for (q, i), n in shared.items()}}
    return ph.NoiseContext(tuple(span_counts), tuple(
        tuple((i, both[q, i]) for i in range(len(span_counts))
              if (q, i) in both) for q in range(len(span_counts))), PHYS)


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
    ctx = ctx_for([4, 3], {(0, 1): 3})
    with mpmath.workdps(40):
        p_i, bw_i = mpmath.mpf("3e-3"), mpmath.mpf("20e9")
        d = mpmath.mpf("50e9")
        kernel = mpmath.log10((d + bw_i / 2) / (d - bw_i / 2))
        want = float(mpmath.mpf(repr(PHYS.kerr)) * mpmath.mpf("2e-3")
                     * p_i ** 2 / bw_i ** 2 * 3 * kernel)
    got = ph.xci_exact(0, channels, ctx)
    assert math.isclose(got, want, rel_tol=1e-12)


def test_xci_translation_invariance():
    channels = [chan(2e-3, 200e9, 25e9), chan(3e-3, 150e9, 20e9)]
    moved = [chan(2e-3, 500e9, 25e9), chan(3e-3, 450e9, 20e9)]
    ctx = ctx_for([4, 3], {(0, 1): 3})
    assert ph.xci_exact(0, channels, ctx) == pytest.approx(
        ph.xci_exact(0, moved, ctx), rel=1e-14)


def test_xci_additive_over_neighbors():
    chs = [chan(2e-3, 300e9, 25e9), chan(1e-3, 200e9, 20e9),
           chan(4e-3, 450e9, 30e9)]
    ctx = ctx_for([5, 4, 6], {(0, 1): 2, (0, 2): 3})
    total = ph.xci_exact(0, chs, ctx)
    only1 = ph.xci_exact(0, [chs[0], chs[1]], ctx_for([5, 4], {(0, 1): 2}))
    only2 = ph.xci_exact(0, [chs[0], chs[2]], ctx_for([5, 6], {(0, 1): 3}))
    assert total == pytest.approx(only1 + only2, rel=1e-14)


def test_xci_ignores_disjoint_and_detects_overlap():
    # overlapping frequencies but no common span: fine, contributes nothing
    chs = [chan(2e-3, 200e9, 25e9), chan(3e-3, 210e9, 25e9)]
    ctx = ctx_for([4, 3])
    assert ph.xci_exact(0, chs, ctx) == 0.0
    # same frequencies on a shared span: physical overlap, must raise
    ctx2 = ctx_for([4, 3], {(0, 1): 1})
    with pytest.raises(ph.ChannelOverlapError):
        ph.xci_exact(0, chs, ctx2)


# ---------------------------------------------------------------- SCI / ASE

def test_sci_exact_oracle():
    chs = [chan(2e-3, 200e9, 25e9)]
    ctx = ctx_for([5])
    with mpmath.workdps(40):
        kerr = mpmath.mpf(repr(PHYS.kerr))
        shape = mpmath.mpf(repr(PHYS.sci_shape))
        p, bw = mpmath.mpf("2e-3"), mpmath.mpf("25e9")
        want = float(kerr * 5 * p ** 3 / bw ** 2 * mpmath.asinh(shape * bw ** 2))
    assert math.isclose(ph.sci_exact(0, chs, ctx), want, rel_tol=1e-12)


def test_ase_value():
    chs = [chan(2e-3, 200e9, 25e9)]
    assert ph.ase(0, chs, ctx_for([7])) == pytest.approx(PHYS.ase * 7 * 25e9,
                                                         rel=1e-15)


# ---------------------------------------------------------------- OSNR

def test_osnr_combines_noise_terms():
    chs = [chan(2e-3, 300e9, 25e9), chan(1e-3, 200e9, 20e9)]
    ctx = ctx_for([5, 4], {(0, 1): 2})
    want = chs[0].power_w / (ph.ase(0, chs, ctx) + ph.xci_exact(0, chs, ctx)
                             + ph.sci_exact(0, chs, ctx))
    got = ph.osnr(0, chs, ctx)
    assert got == pytest.approx(want, rel=1e-15)


def test_osnr_isolated_channel_is_infinite():
    got = ph.osnr(0, [chan(2e-3, 200e9, 25e9)], ctx_for([0]))
    assert got == math.inf


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
    cols = ph.osnr_fit_error_table(ModulationTable())
    worst = {fit: abs(cols[f"rel_err_{fit}"]).max() for fit in ph.OSNR_FITS}
    assert worst["binomial_frac"] <= worst["binomial_int"] <= worst["power_law"]
    assert worst["binomial_frac"] == pytest.approx(0.228, abs=0.01)
    assert worst["binomial_int"] == pytest.approx(0.311, abs=0.01)
    assert worst["power_law"] == pytest.approx(0.902, abs=0.01)


@given(st.floats(min_value=2.0, max_value=11.9))
def test_fits_increase_with_efficiency(eff):
    for fit in ph.OSNR_FITS:
        assert ph.required_osnr(eff + 0.1, fit) > ph.required_osnr(eff, fit) > 0

