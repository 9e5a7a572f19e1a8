"""Finite-volume oracle: interface rule, conservation, entropy stability."""

from dataclasses import replace

import numpy as np
import pytest

from clawlab import (
    CFLError,
    Grid1D,
    burgers_flux,
    cell_averages_from_step,
    cfl_dt,
    convergence_study,
    cosh_flux,
    evolve,
    get_scenario,
    godunov_step,
    interface_flux,
    interface_state,
    l1_steps,
    max_char_speed,
    numerical_ep,
    run_godunov,
    state_from_data,
)
from clawlab import godunov, make_convex_flux, make_flux
from clawlab.entropy import quadratic_pair
from clawlab.errors import ConfigError, FluxRangeError
from clawlab.fluxes import inverse_derivative
from clawlab.scenarios import SCENARIOS


def brute_interface_flux(flux, a, b):
    """Extremum of f over the interval, sampled densely."""
    us = np.linspace(min(a, b), max(a, b), 20001)
    fs = flux.f(us)
    return float(np.min(fs)) if a <= b else float(np.max(fs))


def test_interface_rule_against_brute_extremum():
    rng = np.random.default_rng(17)
    for fl in (burgers_flux(2.0), cosh_flux(2.0)):
        for _ in range(60):
            a, b = rng.uniform(-2.0, 2.0, size=2)
            got = float(interface_flux(fl, a, b))
            assert got == pytest.approx(brute_interface_flux(fl, a, b), abs=1e-7)


def test_interface_worked_values():
    fl = burgers_flux()
    # descending pair (1, 0): shock flux f(1) = 1/2, tie broken to the left
    assert float(interface_flux(fl, 1.0, 0.0)) == pytest.approx(0.5)
    assert float(interface_state(fl, 1.0, 0.0)) == 1.0
    # ascending pair (-1, 1): sonic point u = 0 sits inside, flux 0
    assert float(interface_flux(fl, -1.0, 1.0)) == 0.0
    assert float(interface_state(fl, -1.0, 1.0)) == 0.0
    # ascending pair away from sonic: upwind endpoint
    assert float(interface_state(fl, 0.25, 0.75)) == 0.25
    assert float(interface_state(fl, -0.75, -0.25)) == -0.25


def test_interface_vectorized_matches_scalar():
    fl = cosh_flux(1.5)
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.5, 1.5, size=50)
    b = rng.uniform(-1.5, 1.5, size=50)
    vec = interface_flux(fl, a, b)
    for i in range(50):
        assert vec[i] == float(interface_flux(fl, float(a[i]), float(b[i])))


def test_cfl_step_and_violation():
    fl = burgers_flux(2.0)
    grid = Grid1D(
        x_min=-1.0, x_max=1.0, n_cells=20, nu=0.5, time=0.0,
        u=np.linspace(-2.0, 2.0, 20),
    )
    assert cfl_dt(grid, fl) == pytest.approx(0.5 * 0.1 / 2.0)
    assert max_char_speed(fl, grid.u) == pytest.approx(2.0)
    with pytest.raises(CFLError):
        godunov_step(grid, fl, dt=0.1)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -0.01])
def test_step_rejects_negative_or_non_finite_dt(dt):
    """NaN and negative dt passed the CFL check: NaN gave NaN cells and
    -0.01 stepped back in time."""
    grid = Grid1D(x_min=-1.0, x_max=1.0, n_cells=20, nu=0.5, time=0.0,
                  u=np.linspace(-1.0, 1.0, 20))
    with pytest.raises(FluxRangeError, match="dt"):
        godunov_step(grid, burgers_flux(2.0), dt=dt)


def test_cell_averages_reject_non_finite_edges():
    edges = np.linspace(-1.0, 1.0, 9)
    edges[3] = np.nan
    with pytest.raises(FluxRangeError, match=r"edges\[3\] = nan"):
        cell_averages_from_step([0.0], [1.0, 0.0], edges)


def test_grid_validation():
    u = np.zeros(4)
    with pytest.raises(FluxRangeError):
        Grid1D(x_min=0.0, x_max=1.0, n_cells=1, nu=0.5, time=0.0, u=np.zeros(1))
    with pytest.raises(FluxRangeError):
        Grid1D(x_min=0.0, x_max=1.0, n_cells=4, nu=1.5, time=0.0, u=u)
    with pytest.raises(FluxRangeError):
        Grid1D(x_min=1.0, x_max=0.0, n_cells=4, nu=0.5, time=0.0, u=u)
    with pytest.raises(FluxRangeError):
        Grid1D(x_min=0.0, x_max=1.0, n_cells=5, nu=0.5, time=0.0, u=u)


def test_cell_averages_exact():
    xs = np.array([-0.25, 0.5])
    us = np.array([0.0, 2.0, 0.0])
    edges = np.linspace(-1.0, 1.0, 9)  # dx = 0.25, breaks not on edges
    got = cell_averages_from_step(xs, us, edges)
    # cell [-0.5, -0.25] holds 0, [-0.25, 0] holds 2, [0.5, 0.75] gets nothing
    want = np.array([0.0, 0.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0])
    want[1] = 0.0  # [-0.75, -0.5]
    # recompute directly: average of the step over each cell
    brute = []
    for a, b in zip(edges[:-1], edges[1:]):
        grid = np.linspace(a, b, 2001)
        vals = us[np.searchsorted(xs, 0.5 * (grid[:-1] + grid[1:]), side="left")]
        brute.append(float(np.mean(vals)))
    assert np.allclose(got, brute, atol=2e-3)
    assert float(np.sum(got) * 0.25) == pytest.approx(2.0 * 0.75)  # mass exact


def test_mass_conservation_compact_data():
    fl = burgers_flux()
    run = run_godunov(fl, [-1.0, 0.0], [0.0, 1.0, 0.0], 1.0, 200)
    assert run.mass_drift <= 1e-12
    assert run.grid.mass == pytest.approx(run.grid0.mass, abs=1e-12)


def test_mass_tracks_net_influx_for_unequal_tails():
    # two_shock_merge has tail values 2 and 0: influx f(2) - f(0) = 2 per t
    sc = get_scenario("two_shock_merge")
    fl = sc.make_flux()
    run = run_godunov(fl, sc.xs, sc.us, sc.t_end, 300)
    assert run.mass_drift <= 1e-9
    assert run.grid.mass - run.grid0.mass == pytest.approx(2.0 * sc.t_end, abs=1e-9)


def test_boundary_cells_never_activate():
    for name, sc in SCENARIOS.items():
        fl = sc.make_flux()
        run = run_godunov(fl, sc.xs, sc.us, sc.t_end, 120)
        assert run.grid.u[0] == pytest.approx(sc.us[0], abs=1e-13), name
        assert run.grid.u[-1] == pytest.approx(sc.us[-1], abs=1e-13), name


def test_per_step_entropy_production_nonpositive():
    for name, sc in SCENARIOS.items():
        fl = sc.make_flux()
        run = run_godunov(fl, sc.xs, sc.us, sc.t_end, 150)
        assert float(np.max(run.step_ep)) <= 1e-12, name


def test_single_shock_step_ep_approaches_minus_D_dt():
    # lone entropic shock (1, 0): D = 1/12, production per step -> -D dt
    fl = burgers_flux()
    run = run_godunov(fl, [0.0], [1.0, 0.0], 0.5, 1600, nu=0.8)
    dts = np.diff(run.step_times)
    interior = slice(len(dts) // 4, -max(1, len(dts) // 4))
    ratio = run.step_ep[interior] / dts[interior]
    # pointwise the rate oscillates with the shock's phase in its cell,
    # the cycle average is what converges
    assert np.max(np.abs(ratio + 1.0 / 12.0)) <= 5e-3
    mean_rate = float(np.sum(run.step_ep[interior]) / np.sum(dts[interior]))
    assert mean_rate == pytest.approx(-1.0 / 12.0, abs=1e-4)


def test_snapshots_land_on_requested_times():
    fl = burgers_flux()
    run = run_godunov(fl, [0.0], [1.0, 0.0], 1.0, 64, snapshot_times=(0.25, 0.7))
    assert len(run.snapshots) == 2
    assert run.snapshots[0].time == pytest.approx(0.25, abs=1e-13)
    assert run.snapshots[1].time == pytest.approx(0.7, abs=1e-13)
    with pytest.raises(FluxRangeError):
        run_godunov(fl, [0.0], [1.0, 0.0], 1.0, 64, snapshot_times=(1.5,))
    # NaN passed the old range guard and gave no snapshot and no error
    with pytest.raises(FluxRangeError, match="snapshot time nan"):
        run_godunov(fl, [0.0], [1.0, 0.0], 1.0, 64, snapshot_times=(0.5, np.nan))


def test_run_rejects_bad_shapes():
    fl = burgers_flux()
    with pytest.raises(FluxRangeError):
        run_godunov(fl, [0.0], [1.0], 1.0, 64)
    with pytest.raises(FluxRangeError):
        run_godunov(fl, [0.0], [1.0, 0.0], -1.0, 64)
    with pytest.raises(FluxRangeError):
        run_godunov(fl, [0.0], [1.0, 0.0], 1.0, 6)


@pytest.mark.parametrize("bad", [float("nan"), 3.0, -2.5])
def test_run_rejects_states_outside_the_band(bad):
    # a NaN state used to give an all-NaN grid, and 3.0 a CFLError about dt
    with pytest.raises(FluxRangeError, match=f"state {bad} outside"):
        run_godunov(burgers_flux(2.0), [0.0], [0.0, bad], 0.5, 50)


def test_numerical_ep_telescopes_for_interior_rearrangement():
    # moving a front across one cell conserves entropy flux bookkeeping:
    # production stays nonpositive for any CFL-respecting update
    fl = burgers_flux()
    rng = np.random.default_rng(23)
    for _ in range(10):
        u0 = rng.uniform(-1.0, 1.0, size=40)
        u0[:3] = u0[0]
        u0[-3:] = u0[-1]
        grid = Grid1D(
            x_min=-2.0, x_max=2.0, n_cells=40, nu=0.9, time=0.0,
            u=u0, tail_left=float(u0[0]), tail_right=float(u0[-1]),
        )
        new = godunov_step(grid, fl)
        assert float(numerical_ep([grid, new], fl)[0]) <= 1e-12


def test_convergence_study_shapes_and_order():
    sc = get_scenario("single_shock")
    fl = sc.make_flux()
    traj = evolve(sc.initial_state(fl), fl, sc.t_end, rarefaction_step=1e-3)
    study = convergence_study(fl, sc.xs, sc.us, sc.t_end, [50, 100, 200], traj)
    assert study["n_cells"] == [50, 100, 200]
    assert len(study["dx"]) == 3
    assert len(study["l1_error"]) == 3
    assert len(study["observed_order"]) == 2
    assert all(e2 < e1 for e1, e2 in zip(study["l1_error"], study["l1_error"][1:]))
    assert study["fitted_order"] >= 0.5


def test_godunov_converges_to_entropic_not_given_solution():
    # held-as-given expansion shock: the scheme must pick the fan instead
    fl = burgers_flux()
    state = state_from_data(fl, [0.0], [-0.5, 0.5])
    entropic = evolve(state, fl, 1.0, rarefaction_step=1e-3)
    held = evolve(state, fl, 1.0, mode="as_given")
    run = run_godunov(fl, [0.0], [-0.5, 0.5], 1.0, 800)
    gx, gv = run.grid.to_step()
    ex, ev = entropic.state_at(1.0).to_step()
    hx, hv = held.state_at(1.0).to_step()
    err_entropic = l1_steps(gx, gv, ex, ev)
    err_held = l1_steps(gx, gv, hx, hv)
    assert err_entropic < 0.01
    assert err_held > 0.2  # fan vs standing jump differ by O(1) in L1


def test_scenario_registry():
    assert set(SCENARIOS) == {
        "single_shock",
        "rarefaction_pair",
        "two_shock_merge",
        "interior_expansion",
    }
    sc = get_scenario("two_shock_merge")
    assert sc.flux_radius == 2.0
    fl = sc.make_flux("cosh")
    assert fl.name == "cosh"
    assert fl.domain_radius == 2.0
    st = sc.initial_state(fl)
    assert st.n_fronts == 2
    with pytest.raises(ConfigError) as exc:
        get_scenario("bogus")
    assert "single_shock" in str(exc.value)


@pytest.mark.parametrize(
    "name,xs,us,snaps",
    [
        ("poly4", [-0.8, -0.1, 0.6], [0.4, -1.2, 1.1, -0.3], (0.35,)),
        ("cosh", [-0.5, 0.2, 0.9], [0.0, 0.9, -0.7, 0.0], ()),
    ],
)
def test_run_matches_public_step_by_step(name, xs, us, snaps):
    """run_godunov reuses the sonic state, entropy pair and CFL step across
    steps; stepping with the public functions gives the same bits."""
    fl = make_flux(name, domain_radius=1.5)
    t_end = 0.8
    run = run_godunov(fl, xs, us, t_end, 90, snapshot_times=snaps)
    grid = run.grid0
    mass0 = grid.mass
    net = float(fl.f(us[0])) - float(fl.f(us[-1]))
    times, eps, drift = [0.0], [], 0.0
    targets = sorted(snaps) + [t_end]
    while grid.time < t_end - 1e-14:
        target = next(s for s in targets if s > grid.time + 1e-14)
        new = godunov_step(grid, fl, min(cfl_dt(grid, fl), target - grid.time))
        eps.append(numerical_ep([grid, new], fl)[0])
        grid = new
        times.append(grid.time)
        drift = max(drift, abs(grid.mass - mass0 - net * grid.time))
    assert np.array_equal(run.grid.u, grid.u)
    assert np.array_equal(run.step_ep, np.asarray(eps))
    assert np.array_equal(run.step_times, np.asarray(times))
    assert run.mass_drift == drift
    assert len(run.snapshots) == len(snaps)


# A literal copy of the grid-per-step loop that run_godunov replaced: a
# Grid1D per step, f evaluated on both sides of every interface, scalar
# ghost states and the step EP from the two grids. It shares no code with
# the step kernel, so the kernel is checked against separate code.


def ref_interface_state(flux, u_left, u_right, u_s):
    ul = np.asarray(u_left, dtype=float)
    ur = np.asarray(u_right, dtype=float)
    rarefaction = np.clip(u_s, np.minimum(ul, ur), np.maximum(ul, ur))
    shock = np.where(
        np.asarray(flux.f(ur)) > np.asarray(flux.f(ul)), ur, ul
    )
    return np.where(ul <= ur, rarefaction, shock)


def ref_step(grid, flux, dt, u_s):
    padded = np.concatenate(([grid.tail_left], grid.u, [grid.tail_right]))
    F = np.asarray(flux.f(ref_interface_state(flux, padded[:-1], padded[1:], u_s)))
    u_new = grid.u - (dt / grid.dx) * (F[1:] - F[:-1])
    return replace(grid, time=grid.time + dt, u=u_new)


def ref_step_ep(before, after, flux, pair, u_s):
    dt = after.time - before.time
    dx = before.dx
    d_eta = np.sum(
        np.asarray(pair.eta(after.u)) - np.asarray(pair.eta(before.u))
    ) * dx
    u_left_ghost = ref_interface_state(flux, before.tail_left, before.u[0], u_s)
    u_right_ghost = ref_interface_state(flux, before.u[-1], before.tail_right, u_s)
    boundary = float(np.asarray(pair.xi(u_right_ghost))) - float(
        np.asarray(pair.xi(u_left_ghost))
    )
    return float(d_eta) + dt * boundary


@pytest.mark.parametrize("name", ["burgers", "cosh", "poly4"])
@pytest.mark.parametrize(
    "xs,us",
    [
        ([-0.6, 0.1, 0.7, 0.9], [0.0, 1.1, -0.8, 0.4, 0.0]),
        ([-0.5, 0.3], [0.9, -0.6, -0.4]),
    ],
    ids=["equal_tails", "unequal_tails"],
)
@pytest.mark.parametrize("snaps", [(), (0.2, 0.55)], ids=["final", "snapshots"])
def test_run_matches_grid_per_step_reference(name, xs, us, snaps):
    fl = make_flux(name, domain_radius=1.5)
    t_end = 0.8
    run = run_godunov(fl, xs, us, t_end, 110, snapshot_times=snaps)
    u_s = float(inverse_derivative(fl, 0.0))
    pair = quadratic_pair(fl)
    grid = run.grid0
    mass0 = grid.mass
    net = float(fl.f(us[0])) - float(fl.f(us[-1]))
    dt_cfl = cfl_dt(grid, fl)
    times, eps, drift, ref_snaps = [0.0], [], 0.0, []
    targets = sorted(snaps) + [t_end]
    while grid.time < t_end - 1e-14:
        target = next(s for s in targets if s > grid.time + 1e-14)
        new = ref_step(grid, fl, min(dt_cfl, target - grid.time), u_s)
        eps.append(ref_step_ep(grid, new, fl, pair, u_s))
        grid = new
        times.append(grid.time)
        drift = max(drift, abs(grid.mass - mass0 - net * grid.time))
        if any(abs(grid.time - s) <= 1e-14 for s in snaps):
            ref_snaps.append(grid)
    assert np.array_equal(run.grid.u, grid.u)
    assert run.grid.time == grid.time
    assert np.array_equal(run.step_ep, np.asarray(eps))
    assert np.array_equal(run.step_times, np.asarray(times))
    assert run.mass_drift == drift
    assert len(run.snapshots) == len(snaps) == len(ref_snaps)
    for got, want in zip(run.snapshots, ref_snaps):
        assert got.time == want.time
        assert np.array_equal(got.u, want.u)


# run_godunov books CFL, EP and mass drift once per chunk of steps; these
# runs end on and around chunk boundaries and must still give the same
# bits as the grid-per-step reference above.


def reference_run(fl, xs, us, t_end, n_cells, snaps=()):
    """The grid-per-step loop of test_run_matches_grid_per_step_reference."""
    grid = run_godunov(fl, xs, us, t_end, n_cells).grid0
    u_s = float(inverse_derivative(fl, 0.0))
    pair = quadratic_pair(fl)
    mass0 = grid.mass
    net = float(fl.f(us[0])) - float(fl.f(us[-1]))
    dt_cfl = cfl_dt(grid, fl)
    times, eps, drift, ref_snaps = [0.0], [], 0.0, []
    targets = sorted(snaps) + [t_end]
    while grid.time < t_end - 1e-14:
        target = next(s for s in targets if s > grid.time + 1e-14)
        new = ref_step(grid, fl, min(dt_cfl, target - grid.time), u_s)
        eps.append(ref_step_ep(grid, new, fl, pair, u_s))
        grid = new
        times.append(grid.time)
        drift = max(drift, abs(grid.mass - mass0 - net * grid.time))
        if any(abs(grid.time - s) <= 1e-14 for s in snaps):
            ref_snaps.append(grid)
    return grid, np.asarray(eps), np.asarray(times), drift, ref_snaps


def assert_matches_reference(run, ref):
    grid, eps, times, drift, ref_snaps = ref
    assert np.array_equal(run.grid.u, grid.u)
    assert run.grid.time == grid.time
    assert np.array_equal(run.step_ep, eps)
    assert np.array_equal(run.step_times, times)
    assert run.mass_drift == drift
    assert len(run.snapshots) == len(ref_snaps)
    for got, want in zip(run.snapshots, ref_snaps):
        assert got.time == want.time
        assert np.array_equal(got.u, want.u)


def t_end_for_steps(fl, xs, us, n_cells, steps, nu=0.9):
    """A t_end that run_godunov reaches in the given number of steps.

    The padded grid widens with t_end, so dx and the CFL step do too; this
    solves t_end = (steps - 1/2) * cfl_dt for t_end.
    """
    band = max(abs(float(fl.df(-fl.domain_radius))), abs(float(fl.df(fl.domain_radius))))
    span = xs[-1] - xs[0]
    m = steps - 0.5
    return m * nu * span / (band * (n_cells - 4) - 2.0 * m * nu * max_char_speed(fl, us))


CHUNK_XS, CHUNK_US = [-0.6, 0.1, 0.7], [0.0, 0.5, -0.45, 0.3]
# With unequal tails the drift grows with time; with equal ones it is
# rounding, so its largest step can fall anywhere in a chunk.
CHUNK_DATA = {"unequal_tails": CHUNK_US, "equal_tails": [0.0, 0.5, -0.45, 0.0]}


@pytest.mark.parametrize("name", ["burgers", "cosh", "poly4"])
@pytest.mark.parametrize("n_cells", [110, 4000])
@pytest.mark.parametrize("offset", ["1", "K-1", "K", "K+1", "2K+1"])
@pytest.mark.parametrize("tails", sorted(CHUNK_DATA))
def test_run_matches_reference_around_chunk_boundaries(name, n_cells, offset, tails):
    fl = make_flux(name, domain_radius=1.5)
    chunk = godunov._chunk_steps(n_cells)
    assert chunk == (64 if n_cells == 110 else 32)
    steps = {"1": 1, "K-1": chunk - 1, "K": chunk, "K+1": chunk + 1, "2K+1": 2 * chunk + 1}
    us = CHUNK_DATA[tails]
    t_end = t_end_for_steps(fl, CHUNK_XS, us, n_cells, steps[offset])
    run = run_godunov(fl, CHUNK_XS, us, t_end, n_cells)
    assert run.step_ep.size == steps[offset]
    assert_matches_reference(run, reference_run(fl, CHUNK_XS, us, t_end, n_cells))


@pytest.mark.parametrize("name", ["burgers", "cosh", "poly4"])
@pytest.mark.parametrize("n_cells", [110, 4000])
def test_snapshots_on_the_last_step_of_a_chunk(name, n_cells):
    fl = make_flux(name, domain_radius=1.5)
    chunk = godunov._chunk_steps(n_cells)
    t_end = t_end_for_steps(fl, CHUNK_XS, CHUNK_US, n_cells, 2 * chunk + 1)
    times = run_godunov(fl, CHUNK_XS, CHUNK_US, t_end, n_cells).step_times
    snaps = (float(times[chunk]), float(times[2 * chunk]))
    run = run_godunov(fl, CHUNK_XS, CHUNK_US, t_end, n_cells, snapshot_times=snaps)
    assert [s.time for s in run.snapshots] == [run.step_times[chunk], run.step_times[2 * chunk]]
    assert_matches_reference(run, reference_run(fl, CHUNK_XS, CHUNK_US, t_end, n_cells, snaps))


def test_deferred_cfl_check_raises_for_a_step_in_the_second_chunk(monkeypatch):
    # The left tail sits on the band's edge, so every row's hull speed is the
    # band speed and a step of 0.95 dx / speed breaks nu = 0.9 while staying
    # monotone (no blow-up). Snapshots keep the first chunk's steps short, so
    # the first offending step is the first step of the second chunk.
    fl = burgers_flux(1.0)
    xs, us, t_end, n_cells = [0.0], [1.0, 0.0], 0.3, 110
    chunk = godunov._chunk_steps(n_cells)
    plain = run_godunov(fl, xs, us, t_end, n_cells)
    dt0 = float(plain.step_times[1])
    snaps = tuple(0.5 * dt0 * (i + 1) for i in range(chunk))
    big = dt0 / 0.9 * 0.95
    monkeypatch.setattr(godunov, "cfl_dt", lambda grid, flux: big)
    # the same steps through godunov_step, which checks each one at once
    grid = plain.grid0
    targets = list(snaps) + [t_end]
    steps = 0
    with pytest.raises(CFLError, match="exceeds the CFL bound") as immediate:
        while True:
            target = next(s for s in targets if s > grid.time + 1e-14)
            grid = godunov_step(grid, fl, min(big, target - grid.time))
            steps += 1
    assert steps == chunk
    with pytest.raises(CFLError, match="exceeds the CFL bound") as deferred:
        run_godunov(fl, xs, us, t_end, n_cells, snapshot_times=snaps)
    assert str(deferred.value) == str(immediate.value)
    assert str(deferred.value).startswith(f"dt={big} ")


@pytest.mark.parametrize("t_end", [float("nan"), float("inf")])
def test_run_rejects_non_finite_t_end(t_end):
    with pytest.raises(FluxRangeError, match=f"t_end must be finite and nonnegative, got {t_end}"):
        run_godunov(burgers_flux(), [0.0], [1.0, 0.0], t_end, 50)


# The step kernel takes the interface flux from the max rule
# max(f(max(u_L, u_s)), f(min(u_R, u_s))), the literal reference above from
# the interface state. They agree bit for bit whenever f(u_s) is the
# floating-point minimum of f and f is monotone on each side of u_s. Every
# catalog flux has u_s = 0 and f(0) = 0, so these two user fluxes move the
# sonic state and its flux off zero.


def shifted_quadratic(radius=1.5):
    """f(u) = (u - 0.3)^2 / 2 + 0.1: sonic state 0.3, f(u_s) = 0.1."""
    return make_convex_flux(
        "shifted_quadratic",
        f=lambda u: 0.5 * (np.asarray(u, dtype=float) - 0.3) ** 2 + 0.1,
        df=lambda u: np.asarray(u, dtype=float) - 0.3,
        ddf_lower_bound=1.0,
        domain_radius=radius,
        antiderivative_F=lambda u: ((np.asarray(u, dtype=float) - 0.3) ** 3 + 0.027) / 6.0
        + 0.1 * np.asarray(u, dtype=float),
        antiderivative_G=lambda u: np.asarray(u, dtype=float) ** 3 / 3.0
        - 0.15 * np.asarray(u, dtype=float) ** 2,
        inv_df=lambda p: np.asarray(p, dtype=float) + 0.3,
        ddf=lambda u: np.ones_like(np.asarray(u, dtype=float)),
    )


def exp_flux(radius=1.5):
    """f(u) = exp(u) - 2u: sonic state log 2, where f is not the
    floating-point minimum of f."""
    return make_convex_flux(
        "exp",
        f=lambda u: np.exp(u) - 2.0 * np.asarray(u, dtype=float),
        df=lambda u: np.exp(u) - 2.0,
        ddf_lower_bound=float(np.exp(-radius)),
        domain_radius=radius,
        inv_df=lambda p: np.log(np.asarray(p, dtype=float) + 2.0),
        ddf=np.exp,
    )


def edge_case_grid(rng, flux, u_s, n_cells=64):
    """Cells and tails drawn from u_s, states within 1e-8 of it (where f
    is flattest), mirror pairs u_s +- a (shock ties f(u_L) = f(u_R) for a
    flux symmetric about u_s) and uniform states, in runs of equal
    neighbours."""
    R = flux.domain_radius
    a = rng.uniform(0.0, R - abs(u_s), 4)
    near = u_s + rng.uniform(-1e-8, 1e-8, 2)
    pool = np.concatenate(([u_s], near, u_s + a, u_s - a, rng.uniform(-R, R, 8)))
    cells = np.repeat(rng.choice(pool, n_cells), rng.integers(1, 4, n_cells))[:n_cells]
    tail_left, tail_right = rng.choice(pool, 2)
    return Grid1D(
        x_min=-1.0, x_max=1.0, n_cells=n_cells, nu=0.9, time=0.0,
        u=cells, tail_left=float(tail_left), tail_right=float(tail_right),
    )


def edge_cases_hit(padded, f, u_s):
    """Which edge cases the interfaces of a padded row contain."""
    ul, ur = padded[:-1], padded[1:]
    f_l, f_r = np.asarray(f(ul)), np.asarray(f(ur))
    return {
        "cell_at_sonic": bool(np.any(padded == u_s)),
        "equal_neighbours": bool(np.any(ul == ur)),
        "shock_tie": bool(np.any((ul > ur) & (f_l == f_r))),
        "one_side": bool(np.any((ul - u_s) * (ur - u_s) > 0.0)),
    }


@pytest.mark.parametrize("name", ["burgers", "cosh", "poly4", "shifted_quadratic", "exp"])
def test_step_max_rule_matches_the_interface_state_reference(name):
    fl = {"shifted_quadratic": shifted_quadratic, "exp": exp_flux}.get(
        name, lambda: make_flux(name, domain_radius=1.5)
    )()
    u_s = float(inverse_derivative(fl, 0.0))
    rng = np.random.default_rng(41)
    hit = {}
    for _ in range(200):
        grid = edge_case_grid(rng, fl, u_s)
        dt = cfl_dt(grid, fl)
        got, want = godunov_step(grid, fl, dt), ref_step(grid, fl, dt, u_s)
        padded = godunov._padded(grid)
        for key, seen in edge_cases_hit(padded, fl.f, u_s).items():
            hit[key] = hit.get(key, False) or seen
        if name == "exp":
            # f(u_s) is not the floating-point minimum, so an interface flux
            # can differ from the reference's by one ulp of f
            scale = float(np.max(np.abs(fl.f(padded))))
            assert np.max(np.abs(got.u - want.u)) <= 2.0 * np.spacing(scale)
        else:
            assert np.array_equal(got.u, want.u)
    if name == "exp":
        del hit["shock_tie"]  # not symmetric about u_s: mirror pairs tie only by chance
    assert all(hit.values()), hit


SHIFTED_XS, SHIFTED_US = [-0.6, 0.1, 0.7, 0.9], [0.3, 0.8, -0.2, 0.3, 0.55]


@pytest.mark.parametrize("n_cells", [110, 4000])
@pytest.mark.parametrize("snaps", [(), (0.2, 0.55)], ids=["final", "snapshots"])
def test_run_matches_reference_for_a_shifted_sonic_state(n_cells, snaps):
    # u_s = 0.3 and f(u_s) = 0.1: the data hold cells at u_s and the
    # mirror pair 0.8, -0.2 about it
    fl = shifted_quadratic()
    t_end = 0.8
    run = run_godunov(fl, SHIFTED_XS, SHIFTED_US, t_end, n_cells, snapshot_times=snaps)
    assert run.step_ep.size > godunov._chunk_steps(n_cells)
    assert_matches_reference(
        run, reference_run(fl, SHIFTED_XS, SHIFTED_US, t_end, n_cells, snaps)
    )


def test_snapshot_times_past_the_last_step_get_the_final_grid():
    # Times up to 1e-12 past t_end are accepted; those past t_end + 1e-14
    # (or past 0 when t_end is 0) used to be dropped without an error.
    fl = make_flux("burgers", domain_radius=1.5)
    xs, us = [-0.5, 0.5], [0.0, 1.0, 0.0]
    run = run_godunov(fl, xs, us, 1.0, 50, snapshot_times=(0.5, 1.0 + 5e-13))
    assert len(run.snapshots) == 2
    assert run.snapshots[0].time == pytest.approx(0.5, abs=1e-13)
    assert run.snapshots[1].time == run.grid.time
    assert run.snapshots[1].u.tobytes() == run.grid.u.tobytes()
    run = run_godunov(fl, xs, us, 0.0, 50, snapshot_times=(5e-13, 0.0))
    assert len(run.snapshots) == 2
    assert run.step_ep.size == 0
    for snap in run.snapshots:
        assert snap.time == 0.0
        assert snap.u.tobytes() == run.grid.u.tobytes()


@pytest.mark.parametrize("name", ["burgers", "cosh", "poly4"])
def test_step_keeps_signed_zeros_and_subnormals_bit_for_bit(name):
    # max(u, u_s) and min(u, u_s) of a signed zero or a subnormal cell
    # must give the reference's interface flux and update to the last bit
    fl = make_flux(name, domain_radius=1.5)
    u_s = float(inverse_derivative(fl, 0.0))
    R = fl.domain_radius
    pool = np.array([-0.0, 0.0, 1e-300, -1e-300, 5e-324, -5e-324, 0.3, -0.3, R, -R])
    rng = np.random.default_rng(7)
    for _ in range(100):
        tail_left, tail_right = rng.choice(pool, 2)
        grid = Grid1D(
            x_min=-1.0, x_max=1.0, n_cells=48, nu=0.9, time=0.0,
            u=rng.choice(pool, 48), tail_left=float(tail_left), tail_right=float(tail_right),
        )
        dt = cfl_dt(grid, fl)
        got, want = godunov_step(grid, fl, dt), ref_step(grid, fl, dt, u_s)
        assert got.u.tobytes() == want.u.tobytes()


def test_sonic_state_is_computed_once_per_flux_object(monkeypatch):
    # poly4 has no inv_df, so each computation bisects
    from clawlab import fluxes

    calls = []
    real = fluxes.inverse_derivative
    monkeypatch.setattr(
        fluxes, "inverse_derivative", lambda fl, slope: calls.append(slope) or real(fl, slope)
    )
    fl = make_flux("poly4", domain_radius=1.5)
    first = run_godunov(fl, CHUNK_XS, CHUNK_US, 0.3, 60)
    second = run_godunov(fl, CHUNK_XS, CHUNK_US, 0.3, 60)
    godunov_step(first.grid, fl)
    interface_state(fl, 0.5, -0.2)
    numerical_ep([first.grid0, first.grid], fl)
    assert len(calls) == 1
    assert np.array_equal(first.grid.u, second.grid.u)
    assert fl.sonic_state == real(fl, 0.0)


def test_a_replaced_flux_computes_its_own_sonic_state():
    # f' = u - 0.3 is negative on [-R, R] for R < 0.3, so the sonic state
    # clips to R and differs between radii
    fl = shifted_quadratic(radius=0.2)
    assert fl.sonic_state == 0.2
    wider = replace(fl, domain_radius=0.25)
    assert wider.sonic_state == 0.25
    assert fl.sonic_state == 0.2
