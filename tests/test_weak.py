"""Distributional residuals: exact solutions vanish, broken ones do not."""

import numpy as np
import pytest

from clawlab import (
    BumpTest,
    burgers_flux,
    cosh_flux,
    evolve,
    fan_max_residual,
    get_scenario,
    poly4_flux,
    random_family_member,
    solve_riemann,
    state_from_data,
    bump_battery,
    trajectory_max_residual,
    trajectory_weak_residual,
)
from clawlab.fronts import FrontState, Trajectory
from clawlab.riemann import Rarefaction, Shock, WaveFan

WEAK_TOL = 1e-7


def test_battery_layout():
    bumps = bump_battery(-2.0, 2.0, 0.0, 1.0)
    assert len(bumps) == 20
    for psi in bumps:
        lo, hi = psi.t_support
        assert hi <= 1.0 + 1e-12  # no terminal term in the identity
    assert any(psi.t_support[0] < 0.0 for psi in bumps)


def test_bump_calculus():
    psi = BumpTest(x0=0.3, t0=0.5, ax=0.8, bt=0.4)
    xs = np.linspace(-0.6, 1.2, 7)
    h = 1e-6
    dx = (psi.value(xs + h, 0.5) - psi.value(xs - h, 0.5)) / (2 * h)
    assert np.allclose(psi.dx(xs, 0.5), dx, atol=1e-5)
    dt = (psi.value(0.3, 0.5 + h) - psi.value(0.3, 0.5 - h)) / (2 * h)
    assert psi.dt(0.3, 0.5) == pytest.approx(float(dt), abs=1e-5)
    anti = (psi.x_anti(xs + h) - psi.x_anti(xs - h)) / (2 * h)
    assert np.allclose(anti, psi.x_part(xs), atol=1e-6)
    # support edges
    assert psi.value(0.3 + 0.81, 0.5) == 0.0
    assert psi.value(0.3, 0.5 + 0.41) == 0.0


@pytest.mark.parametrize("name", ["single_shock", "two_shock_merge", "rarefaction_pair"])
def test_tracked_scenarios_are_weak_solutions(name):
    sc = get_scenario(name)
    fl = sc.make_flux()
    traj = evolve(sc.initial_state(fl), fl, sc.t_end, rarefaction_step=0.05)
    assert trajectory_max_residual(traj) <= WEAK_TOL


def test_as_given_expansion_shock_is_still_a_weak_solution():
    fl = burgers_flux()
    traj = evolve(state_from_data(fl, [0.0], [0.0, 1.0]), fl, 1.0, mode="as_given")
    assert trajectory_max_residual(traj) <= WEAK_TOL


def test_wrong_speed_front_fails_the_battery():
    # hand-build a trajectory whose front moves off the RH speed
    fl = burgers_flux()
    good = evolve(state_from_data(fl, [0.0], [1.0, 0.0]), fl, 1.0)
    snap = good.snapshots[0]
    bad_snap = FrontState(
        time=snap.time,
        positions=snap.positions,
        states=snap.states,
        speeds=snap.speeds + 0.2,
        kinds=snap.kinds,
        front_ids=snap.front_ids,
    )
    bad = Trajectory(
        flux=fl,
        snapshots=[bad_snap],
        t_end=1.0,
        mode="as_given",
        rarefaction_step=0.01,
    )
    assert trajectory_max_residual(bad) > 1e-3


def test_fan_residuals_entropic_and_competitors():
    rng = np.random.default_rng(13)
    for flux in (burgers_flux(2.0), cosh_flux(2.0), poly4_flux(2.0)):
        assert fan_max_residual(solve_riemann(flux, 1.0, -0.5)) <= WEAK_TOL
        assert fan_max_residual(solve_riemann(flux, -0.5, 1.0)) <= WEAK_TOL
        for _ in range(3):
            fan = random_family_member(rng, flux, -0.8, 1.0)
            assert fan_max_residual(fan) <= WEAK_TOL
    # sonic rarefaction: its support straddles omega = 0
    sonic = solve_riemann(poly4_flux(2.0), -1.9, 1.9)
    assert fan_max_residual(sonic) <= WEAK_TOL


def test_broken_fans_fail_the_battery():
    # built directly, so validate_fan never sees them
    fl = burgers_flux(2.0)
    broken = (
        # shock (1, -0.5) moving 0.1 faster than its chord slope 0.25
        WaveFan(fl, 1.0, -0.5, (Shock(1.0, -0.5, 0.35),), "entropic"),
        # expansion shock (-0.5, 1) at 0.30 instead of 0.25
        WaveFan(fl, -0.5, 1.0, (Shock(-0.5, 1.0, 0.30),), "non-entropic"),
        # rarefaction (-0.5, 1) stretched over (-0.4, 1.1) instead of (-0.5, 1)
        WaveFan(fl, -0.5, 1.0, (Rarefaction(-0.5, 1.0, -0.4, 1.1),), "entropic"),
    )
    for fan in broken:
        speeds = [s for w in fan.waves for s in w.support]
        lo, hi = min(speeds), max(speeds)
        pad = max(1.0, 0.3 * (hi - lo))
        battery = bump_battery(lo - pad, hi + pad, 0.0, 1.0)
        assert fan_max_residual(fan, 1.0, battery) > 1e-3


def test_single_bump_residual_is_signed_zero_not_cancellation():
    # each individual bump must vanish, not just the max over the battery
    fl = burgers_flux()
    traj = evolve(state_from_data(fl, [0.0], [1.0, 0.0]), fl, 1.0)
    for psi in bump_battery(-1.5, 2.0, 0.0, 1.0):
        assert abs(trajectory_weak_residual(traj, psi)) <= WEAK_TOL
