"""Fiber noise model: exact expressions, kernel and OSNR fits.

The channel quality metric is OSNR = signal power / (ASE + XCI + SCI), where
ASE is the accumulated amplifier noise, XCI the nonlinear cross-channel
interference and SCI the nonlinear self-channel interference of the incoherent
Gaussian-noise picture.  Every function here is a pure map from immutable
inputs to a plain float; `osnr` is the exact model, and the approximate one
the optimizer consumes is `psa.noise_bracket`, built on the log-kernel fits
that the error-grid helpers at the bottom characterize.  `required_osnr`
evaluates the posynomial fits to the modulation table's OSNR requirements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModulationTable, PhysicsConstants

# Coefficients of the fitted approximations.  The log slope is 1/ln(10): the
# exact expression uses base-10 logarithms, which this slope pins down.
XCI_LOG_SLOPE = 0.4343        # linear coefficient of the log-ratio fit
XCI_LOG_CUBIC = 0.0411        # cubic correction of the log-ratio fit
XCI_VALID_LIMIT = 1.2         # bandwidth/spacing ratio covered by the fits

# Fits of (spectral efficiency -> minimum required OSNR).
OSNR_POW_COEF = 0.0351        # power law: coef * c**exp
OSNR_POW_EXP = 3.292
OSNR_BINOM_SLOPE = 0.0557     # binomial fits: (1 + slope*c)**exp
OSNR_BINOM_EXP_INT = 10
OSNR_BINOM_EXP_FRAC = 9.4691

OSNR_FITS = ("power_law", "binomial_int", "binomial_frac")


class ChannelOverlapError(ValueError):
    """Two channels that share fiber spans overlap in frequency."""


@dataclass(frozen=True)
class ChannelState:
    """Optical state of one connection: all SI units."""
    power_w: float
    center_hz: float
    bandwidth_hz: float


@dataclass(frozen=True)
class NoiseContext:
    """Routing-derived span geometry plus the constants whose noise
    coefficients (`kerr`, `sci_shape`, `ase`) the expressions read.

    span_counts[q] is the number of amplified spans on request q's path and
    partners[q] lists (i, spans the paths of q and i share) for every other
    request i that shares a span with q, in ascending i, as
    `RoutingSolution` holds them; the counts are Python ints, whose
    products overflow to inf instead of wrapping.
    """
    span_counts: tuple[int, ...]
    partners: tuple[tuple[tuple[int, int], ...], ...]
    physics: PhysicsConstants


def log_ratio_exact(x: float) -> float:
    """log10((1 + x/2) / (1 - x/2)), the spectral overlap kernel of XCI."""
    return math.log10((1.0 + 0.5 * x) / (1.0 - 0.5 * x))


def log_ratio_linear(x: float) -> float:
    return XCI_LOG_SLOPE * x


def log_ratio_cubic(x: float) -> float:
    return XCI_LOG_SLOPE * x + XCI_LOG_CUBIC * x ** 3


def xci_exact(idx: int, channels, ctx: NoiseContext) -> float:
    """Cross-channel interference power (W) picked up by channel `idx`."""
    ch = channels[idx]
    total = 0.0
    for i, n_shared in ctx.partners[idx]:
        other = channels[i]
        spacing = abs(ch.center_hz - other.center_hz)
        if spacing <= 0.5 * (ch.bandwidth_hz + other.bandwidth_hz):
            raise ChannelOverlapError(
                f"channels {idx} and {i} overlap: spacing {spacing:g} Hz")
        kernel = math.log10((spacing + 0.5 * other.bandwidth_hz) /
                            (spacing - 0.5 * other.bandwidth_hz))
        total += (other.power_w ** 2 / other.bandwidth_hz ** 2) * n_shared * kernel
    return ctx.physics.kerr * ch.power_w * total


def sci_exact(idx: int, channels, ctx: NoiseContext) -> float:
    """Self-channel interference power (W) of channel `idx`."""
    ch = channels[idx]
    arg = ctx.physics.sci_shape * ch.bandwidth_hz ** 2
    return ctx.physics.kerr * ctx.span_counts[idx] * \
        (ch.power_w ** 3 / ch.bandwidth_hz ** 2) * math.asinh(arg)


def ase(idx: int, channels, ctx: NoiseContext) -> float:
    """Accumulated amplifier noise power (W) inside channel `idx`'s band."""
    return ctx.physics.ase * ctx.span_counts[idx] * channels[idx].bandwidth_hz


def osnr(idx: int, channels, ctx: NoiseContext) -> float:
    """Exact OSNR of channel `idx`, infinite where the channel picks up no
    noise at all."""
    noise = ase(idx, channels, ctx) + xci_exact(idx, channels, ctx) \
        + sci_exact(idx, channels, ctx)
    if noise == 0.0:
        return math.inf
    return channels[idx].power_w / noise


def required_osnr(eff: float, fit: str) -> float:
    """Minimum OSNR (linear ratio) that efficiency `eff` needs by `fit`, one
    of the posynomial OSNR_FITS valid on [2, 12]; the exact requirement of a
    modulation level is `ModulationTable.required_osnr`."""
    if fit == "power_law":
        return OSNR_POW_COEF * eff ** OSNR_POW_EXP
    if fit == "binomial_int":
        return (1.0 + OSNR_BINOM_SLOPE * eff) ** OSNR_BINOM_EXP_INT
    if fit == "binomial_frac":
        return (1.0 + OSNR_BINOM_SLOPE * eff) ** OSNR_BINOM_EXP_FRAC
    raise ValueError(f"unknown fit {fit!r}")


# --------------------------------------------------------------------------
# error characterization
# --------------------------------------------------------------------------

def log_kernel_error_grid() -> dict[str, np.ndarray]:
    """Relative error of the log-kernel fits on a bandwidth/spacing grid,
    x = 0.01, 0.02, ... up to `XCI_VALID_LIMIT`.

    Returns columns ready for CSV export: x, exact, approx1, approx3 and the
    two signed relative errors.
    """
    xs = np.round(np.arange(0.01, XCI_VALID_LIMIT + 1e-9, 0.01), 10)
    exact = np.array([log_ratio_exact(x) for x in xs])
    lin = np.array([log_ratio_linear(x) for x in xs])
    cub = np.array([log_ratio_cubic(x) for x in xs])
    return {
        "x": xs,
        "exact": exact,
        "approx1": lin,
        "approx3": cub,
        "rel_err1": (lin - exact) / exact,
        "rel_err3": (cub - exact) / exact,
    }


def osnr_fit_error_table(table: ModulationTable) -> dict[str, np.ndarray]:
    """Fit values and signed relative errors at every modulation-table point."""
    effs = np.array(table.efficiencies)
    exact = np.array([table.required_osnr(c) for c in effs])
    cols: dict[str, np.ndarray] = {"eff": effs, "table": exact}
    for fit in OSNR_FITS:
        vals = np.array([required_osnr(c, fit) for c in effs])
        cols[fit] = vals
        cols[f"rel_err_{fit}"] = (vals - exact) / exact
    return cols
