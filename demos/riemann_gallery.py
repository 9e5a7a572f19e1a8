#!/usr/bin/env python3
"""Riemann fan gallery: one shock case, one rarefaction case, one sonic
rarefaction case for each catalog flux.

Prints the wave structure of each fan and writes sampled profiles
u(x, t=1) as two-column text files under demos/out/.
"""

from pathlib import Path

import numpy as np

from clawlab import fan_ep_rate, make_flux, sample_fan

CASES = [
    ("shock", 1.0, 0.0),
    ("fan", 0.0, 1.0),
    ("sonic_fan", -0.5, 1.0),
]

OUT = Path(__file__).resolve().parent / "out"


def describe(fan) -> str:
    parts = []
    for w in fan.waves:
        if "shock" in w.kind:
            parts.append(f"shock({w.left_value:+.2f}->{w.right_value:+.2f}"
                         f" @ s={w.sigma:.4f})")
        else:
            parts.append(f"rarefaction({w.left_value:+.2f}->{w.right_value:+.2f})")
    return " + ".join(parts) if parts else "constant"


def main() -> None:
    OUT.mkdir(exist_ok=True)
    from clawlab import solve_riemann

    t = 1.0
    xs = np.linspace(-2.0, 2.0, 401)
    for flux_name in ("burgers", "cosh", "poly4"):
        flux = make_flux(flux_name)
        print(f"== {flux_name} ==")
        for label, u_l, u_r in CASES:
            fan = solve_riemann(flux, u_l, u_r)
            rate = fan_ep_rate(fan)
            print(f"  ({u_l:+.1f},{u_r:+.1f}) {label:<10s} {describe(fan)}"
                  f"  ep_rate={rate:.6f}")
            us = sample_fan(fan, t, xs)
            path = OUT / f"riemann_{flux_name}_{label}.dat"
            np.savetxt(path, np.column_stack([xs, us]), header="x u(x,1)")
        print()
    print(f"profiles written to {OUT}")


if __name__ == "__main__":
    main()
