#!/usr/bin/env python3
"""Hold a non-entropic shock, then repair it on a trapezoid.

The initial data is the single ascending jump 0 -> 1.  In as_given mode
the tracker keeps it as one front moving at chord speed 1/2, which is a
perfectly good weak solution and a perfectly bad entropic one: the jump
manufactures entropy at rate 1/12 for as long as it lives.

trapezoid_splice cuts out a space-time trapezoid, re-solves it
entropically from its whole boundary trace (the flat bottom, plus the
lateral edges as uncover events), and glues the result back in.  Inside the
trapezoid the held shock becomes a rarefaction staircase, entropy
production drops to the staircase's O(du^2) floor, and the weak-form
residual stays at quadrature level because the patch matches the outer
solution along the lateral edges.

Writes before/after profiles at t = 1.0 under demos/out/.
"""

from pathlib import Path

import numpy as np

from clawlab import (
    TrapezoidDomain,
    Window,
    burgers_flux,
    evolve,
    state_from_data,
    total_ep,
    trajectory_max_residual,
    trapezoid_splice,
)

OUT = Path(__file__).resolve().parent / "out"


def write_profile(path: Path, traj, t: float) -> None:
    xs = np.linspace(-1.5, 2.0, 701)
    us = traj.sample(t, xs)
    np.savetxt(path, np.column_stack([xs, us]), header=f"x u(x,{t:g})")


def main() -> None:
    OUT.mkdir(exist_ok=True)
    flux = burgers_flux()
    held = evolve(state_from_data(flux, [0.0], [0.0, 1.0]), flux,
                  t_end=1.5, mode="as_given")

    dom = TrapezoidDomain(t1=0.25, t2=1.25, delta=2.0, lambda_hat=0.2)
    spliced = trapezoid_splice(held, dom)

    window = Window(dom.t1, dom.t2)
    ep_before = total_ep(held, window).total_abs
    ep_after = total_ep(spliced, window).total_abs
    res_before = trajectory_max_residual(held)
    res_after = trajectory_max_residual(spliced)

    print(f"entropy production on [{dom.t1:g}, {dom.t2:g}]:")
    print(f"  held shock : {ep_before:.6f}  (rate 1/12 = {1 / 12:.6f} per unit time)")
    print(f"  spliced    : {ep_after:.6f}")
    print(f"weak residual, held   : {res_before:.2e}")
    print(f"weak residual, spliced: {res_after:.2e}")

    write_profile(OUT / "held_shock_t1.dat", held, 1.0)
    write_profile(OUT / "spliced_t1.dat", spliced, 1.0)
    print(f"profiles written to {OUT}")


if __name__ == "__main__":
    main()
