"""Walk through the fiber noise model on a hand-built three-channel link.

Every quantity is in SI units: powers in watts, frequencies in hertz.
"""

import numpy as np

from eongp import physics
from eongp.model import ModulationTable, PhysicsConstants, derived_constants


def main():
    phys = PhysicsConstants()
    ctx_const = derived_constants(phys)
    print("derived noise coefficients")
    print(f"  kerr scale      {ctx_const.kerr:.6e}")
    print(f"  sci shape       {ctx_const.sci_shape:.6e}")
    print(f"  ase per span-Hz {ctx_const.ase:.6e}")

    # three channels co-propagating over the same 5-span path
    n = 5
    ctx = physics.NoiseContext(span_counts=(n, n, n),
                               shared_spans=np.full((3, 3), n),
                               constants=ctx_const)
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

    # the posynomial surrogates track the exact model closely here
    print("\nexact vs approximate OSNR")
    for idx in range(3):
        exact = physics.osnr(idx, channels, ctx, "exact")
        a1 = physics.osnr(idx, channels, ctx, "approx1")
        a3 = physics.osnr(idx, channels, ctx, "approx3")
        print(f"  ch {idx}: exact {exact:9.1f}   order1 {a1:9.1f} "
              f"({a1 / exact - 1:+.2%})   order3 {a3:9.1f} ({a3 / exact - 1:+.2%})")

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
