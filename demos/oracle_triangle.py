#!/usr/bin/env python3
"""Three independent solvers, one answer.

Front tracking (exact wave arithmetic), the Godunov finite-volume
scheme, and sampling the variational formula each compute the entropy
solution of the two_shock_merge scenario by a completely different
route.  This script measures the three pairwise L1 distances at the
final time and tabulates the Godunov refinement errors against the
tracked solution.

Writes the three t = t_end profiles and the convergence table under
demos/out/.
"""

from pathlib import Path

import numpy as np

from clawlab import (
    cell_averages_from_step,
    convergence_study,
    evolve,
    get_scenario,
    l1_step_vs_fn,
    l1_steps,
    potential_from_step,
    run_godunov,
    sample_oracle,
)

OUT = Path(__file__).resolve().parent / "out"


def main() -> None:
    OUT.mkdir(exist_ok=True)
    scen = get_scenario("two_shock_merge")
    flux = scen.make_flux()
    t = scen.t_end

    traj = evolve(scen.initial_state(flux), flux, t_end=t)
    ft_xs, ft_us = traj.state_at(t).to_step()

    run = run_godunov(flux, scen.xs, scen.us, t_end=t, n_cells=1600)
    g = run.grid
    edges = np.linspace(g.x_min, g.x_max, g.n_cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])

    data = potential_from_step(scen.xs, scen.us)
    ft_on_cells = cell_averages_from_step(ft_xs, ft_us, edges)

    lo, hi = g.x_min, g.x_max
    d_ft_g = float(np.sum(np.abs(ft_on_cells - g.u)) * (edges[1] - edges[0]))
    d_ft_hl = l1_step_vs_fn(ft_xs, ft_us,
                            lambda x: sample_oracle(data, flux, x, t),
                            lo, hi, max_cell=(hi - lo) / 2000)
    d_g_hl = float(np.sum(np.abs(g.u - sample_oracle(data, flux, mids, t))
                          ) * (edges[1] - edges[0]))

    print(f"scenario {scen.name}, t = {t:g}")
    print(f"  L1(front tracking, godunov n=1600) = {d_ft_g:.3e}")
    print(f"  L1(front tracking, variational)    = {d_ft_hl:.3e}")
    print(f"  L1(godunov, variational)           = {d_g_hl:.3e}")

    study = convergence_study(flux, scen.xs, scen.us, t_end=t,
                              n_list=[100, 200, 400, 800], reference=traj)
    print(f"\n  {'n_cells':>8s} {'L1 error':>12s}")
    rows = []
    for n, err in zip(study["n_cells"], study["l1_error"]):
        print(f"  {n:>8d} {err:>12.4e}")
        rows.append((n, err))
    print(f"  fitted order: {study['fitted_order']:.3f}")

    np.savetxt(OUT / "triangle_godunov.dat", np.column_stack([mids, g.u]),
               header="x_mid cell_average")
    hl_us = sample_oracle(data, flux, mids, t)
    np.savetxt(OUT / "triangle_variational.dat", np.column_stack([mids, hl_us]),
               header="x u")
    np.savetxt(OUT / "triangle_convergence.dat", np.asarray(rows),
               header="n_cells l1_error")
    print(f"\nprofiles written to {OUT}")


if __name__ == "__main__":
    main()
