"""Walk through the fiber noise model on a hand-built three-channel link.

Every quantity is in SI units: powers in watts, frequencies in hertz.
"""

import itertools
import math

import numpy as np

from eongp import physics, psa
from eongp.model import ModulationTable, PhysicsConstants


def main():
    phys = PhysicsConstants()
    print("derived noise coefficients")
    print(f"  kerr scale      {phys.kerr:.6e}")
    print(f"  sci shape       {phys.sci_shape:.6e}")
    print(f"  ase per span-Hz {phys.ase:.6e}")

    # three channels co-propagating over the same 5-span path
    n = 5
    ctx = physics.NoiseContext(span_counts=(n, n, n),
                               partners=tuple(
                                   tuple((i, n) for i in range(3) if i != q)
                                   for q in range(3)),
                               physics=phys)
    channels = [
        physics.ChannelState(1e-4, 193.10e12, 32e9),
        physics.ChannelState(2e-4, 193.15e12, 32e9),
        physics.ChannelState(1e-4, 193.21e12, 50e9),
    ]

    print("\nper-channel noise budget (5 shared spans)")
    print("  ch      ASE        XCI        SCI       OSNR       OSNR(dB)")
    for idx in range(3):
        a = physics.ase(idx, channels, ctx)
        x = physics.xci_exact(idx, channels, ctx)
        s = physics.sci_exact(idx, channels, ctx)
        o = physics.osnr(idx, channels, ctx)
        print(f"  {idx}   {a:.3e}  {x:.3e}  {s:.3e}  {o:9.1f}  {10 * np.log10(o):7.2f}")

    # the approximate model the optimizer consumes is the bracket of each
    # quality row, noise/p as posynomial terms in power p, efficiency c and
    # center distance d; at 4 bit/s/Hz a 32 GHz channel carries 128 Gb/s
    eff = 4.0
    rates = [ch.bandwidth_hz * eff for ch in channels]
    # one distance per pair of channels, read by both members' brackets
    pairs = itertools.combinations(enumerate(channels), 2)
    point = {psa.d_var(q, i): abs(a.center_hz - b.center_hz)
             for (q, a), (i, b) in pairs}
    for q, ch in enumerate(channels):
        point[psa.p_var(q)] = ch.power_w
        point[psa.c_var(q)] = eff
    print("\nexact vs approximate OSNR (1 / the quality-row bracket)")
    for idx in range(3):
        exact = physics.osnr(idx, channels, ctx)
        line = f"  ch {idx}: exact {exact:9.1f}"
        for order in (1, 3):
            terms = psa.noise_bracket(idx, rates, ctx, order)
            approx = 1.0 / sum(coef * math.prod(point[v] ** e for v, e in exps)
                               for coef, exps in terms)
            line += (f"   order{order} {approx:9.1f} "
                     f"({approx / exact - 1:+.2%})")
        print(line)

    # overlapping channels are rejected rather than silently mis-modeled
    bad = [channels[0],
           physics.ChannelState(1e-4, 193.102e12, 32e9),
           channels[2]]
    try:
        physics.xci_exact(0, bad, ctx)
    except physics.ChannelOverlapError as exc:
        print(f"\noverlap guard: {exc}")

    # required OSNR grows steeply with spectral efficiency
    print("\nrequired OSNR per modulation level (table)")
    table = ModulationTable()
    for eff in table.efficiencies:
        print(f"  {eff:4.0f} bit/s/Hz -> {table.required_osnr(eff):8.2f}")


if __name__ == "__main__":
    main()
