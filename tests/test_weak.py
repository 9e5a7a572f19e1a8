"""Distributional residuals: exact solutions vanish, broken ones do not."""

import numpy as np
import pytest

from clawlab import (
    BumpTest,
    ClawError,
    TrapezoidDomain,
    burgers_flux,
    cosh_flux,
    evolve,
    fan_max_residual,
    get_scenario,
    lambda0,
    make_flux,
    poly4_flux,
    random_family_member,
    solve_riemann,
    state_from_data,
    bump_battery,
    trajectory_max_residual,
    trapezoid_splice,
)
from clawlab import weak
from clawlab.errors import FluxRangeError
from clawlab.fronts import FrontState, Lifetimes, Trajectory
from clawlab.quadrature import leggauss
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
    anti = (psi.x_anti(xs + h) - psi.x_anti(xs - h)) / (2 * h)
    assert np.allclose(anti, psi.x_part(xs), atol=1e-6)
    # support edges
    assert psi.x_part(0.3 + 0.81) == 0.0
    assert psi.t_part(0.5 + 0.41) == 0.0


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
        assert trajectory_max_residual(traj, [psi]) <= WEAK_TOL


def test_block_built_bump_table_is_the_one_shot_formula_bit_for_bit():
    grid = weak._GRID
    b = weak._bump(grid)
    one_shot = np.concatenate(([0.0], np.cumsum(0.5 * (b[:-1] + b[1:]) * np.diff(grid))))
    # 160,001 points: 19 full blocks of steps and one partial one
    assert weak._BUMP_ANTI.tobytes() == one_shot.tobytes()


def _pointwise_front_sum(flux, t0, rows, psi):
    """The front sum before telescoping: T' [u] XA and T [f] X at every
    Gauss node of every row, plus the initial-data term of the rows born
    at t0."""
    nodes, weights = leggauss(weak._N_GAUSS)
    t_lo_psi, t_hi_psi = psi.t_support
    jumps_u = rows.u_plus - rows.u_minus
    lo = max(t_lo_psi, t0)
    total = 0.0
    if t_hi_psi > lo:
        n_panels = max(4, int(np.ceil((t_hi_psi - lo) / (psi.bt / 12.0))))
        edges = np.linspace(lo, t_hi_psi, n_panels + 1)
        a = np.maximum(edges[None, :-1], rows.t_birth[:, None])
        b = np.minimum(edges[None, 1:], rows.t_death[:, None])
        r, p = np.nonzero(b > a)
        a, b = a[r, p], b[r, p]
        half = 0.5 * (b - a)
        ts = (0.5 * (a + b))[:, None] + half[:, None] * nodes[None, :]
        xs = rows.x_birth[r, None] + rows.sigma[r, None] * (ts - rows.t_birth[r, None])
        jumps_f = np.asarray(flux.f(rows.u_plus)) - np.asarray(flux.f(rows.u_minus))
        term_t = psi.dt_part(ts) * jumps_u[r, None] * psi.x_anti(xs)
        term_x = psi.t_part(ts) * jumps_f[r, None] * psi.x_part(xs)
        total = -float(np.dot(half, (term_t + term_x) @ weights))
    if t_lo_psi < t0 < t_hi_psi:
        born = rows.t_birth == t0
        total -= float(psi.t_part(t0)) * float(
            np.dot(jumps_u[born], psi.x_anti(rows.x_birth[born]))
        )
    return total


def _both_sums(monkeypatch, residual):
    """residual() with the telescoped front sum, then with the pointwise one."""
    telescoped = residual()
    with monkeypatch.context() as m:
        m.setattr(weak, "_front_sum", _pointwise_front_sum)
        return telescoped, residual()


def test_telescoped_sum_matches_the_pointwise_gauss_sum(monkeypatch):
    # exact weak solutions score at rounding, not at quadrature noise
    rng = np.random.default_rng(11)
    largest = 0.0
    for name in ("burgers", "cosh", "poly4"):
        fl = make_flux(name, domain_radius=1.5)
        dom = TrapezoidDomain(0.2, 0.8, 0.5, 0.9 * lambda0(fl, 1.0))
        for mode in ("entropic", "as_given"):
            n = int(rng.integers(2, 6))
            xs = np.sort(rng.uniform(-1.0, 1.0, n))
            us = np.concatenate(([0.0], rng.uniform(-1.0, 1.0, n - 1), [0.0]))
            traj = evolve(state_from_data(fl, xs, us), fl, 1.0, mode=mode,
                          rarefaction_step=0.1)
            trajs = [traj]
            try:
                trajs.append(trapezoid_splice(traj, dom))
            except ClawError:
                pass  # the seam defect of some draws
            for tj in trajs:
                for psi in weak.default_battery_for(tj):
                    new, old = _both_sums(monkeypatch, lambda: trajectory_max_residual(tj, [psi]))
                    assert new == pytest.approx(old, abs=1e-9)
                    largest = max(largest, new)
        u_l, u_r = rng.uniform(-1.0, 1.0, 2)
        for fan in (solve_riemann(fl, u_l, u_r), solve_riemann(fl, u_r, u_l)):
            for psi in bump_battery(-2.0, 2.0, 0.0, 1.0):
                new, old = _both_sums(monkeypatch, lambda: weak.fan_weak_residual(fan, psi, 1.0))
                assert new == pytest.approx(old, abs=1e-9)
    assert largest <= 1e-13


def test_telescoped_sum_matches_the_pointwise_sum_on_broken_fans(monkeypatch):
    # the broken fans of test_broken_fans_fail_the_battery
    fl = burgers_flux(2.0)
    broken = (
        WaveFan(fl, 1.0, -0.5, (Shock(1.0, -0.5, 0.35),), "entropic"),
        WaveFan(fl, -0.5, 1.0, (Shock(-0.5, 1.0, 0.30),), "non-entropic"),
        WaveFan(fl, -0.5, 1.0, (Rarefaction(-0.5, 1.0, -0.4, 1.1),), "entropic"),
    )
    for fan in broken:
        for psi in bump_battery(-1.5, 2.5, 0.0, 1.0):
            new, old = _both_sums(monkeypatch, lambda: weak.fan_weak_residual(fan, psi, 1.0))
            assert new == pytest.approx(old, abs=1e-9)


def _rows(*rows):
    """Lifetimes from (t_birth, t_death, x_birth, sigma, u_minus, u_plus) tuples."""
    cols = np.array(rows, dtype=float).T
    return Lifetimes(np.arange(len(rows)), *cols)


def test_telescoped_sum_on_edge_rows():
    fl = burgers_flux()
    psi = BumpTest(x0=0.2, t0=0.1, ax=0.8, bt=0.35)  # straddles t0 = 0
    # born at t0, then dying inside psi's support; the second front is
    # 0.1 off its Rankine-Hugoniot speed 0.25
    born, dying = (0.0, 1.0, 0.4, 0.35, 1.0, -0.5), (0.0, 0.3, -0.2, 0.5, 1.0, 0.0)
    for rows in (_rows(born), _rows(dying), _rows(born, dying)):
        assert weak._front_sum(fl, 0.0, rows, psi) == pytest.approx(
            _pointwise_front_sum(fl, 0.0, rows, psi), abs=1e-9
        )
    # a zero-length row inside psi's support adds nothing
    zero = (0.2, 0.2, 0.3, 0.5, 1.0, 0.0)
    assert weak._front_sum(fl, 0.0, _rows(born, zero, dying), psi) == weak._front_sum(
        fl, 0.0, _rows(born, dying), psi
    )


def test_empty_battery_is_refused_by_name():
    fl = burgers_flux()
    traj = evolve(state_from_data(fl, [0.0], [1.0, 0.0]), fl, 1.0)
    with pytest.raises(FluxRangeError, match="battery is empty"):
        trajectory_max_residual(traj, [])
    with pytest.raises(FluxRangeError, match="battery is empty"):
        fan_max_residual(solve_riemann(fl, 1.0, 0.0), 1.0, [])


def test_bump_alive_at_the_end_time_is_refused():
    # the identity has no terminal term: this bump scored 1.058 on an exact shock
    fl = burgers_flux()
    traj = evolve(state_from_data(fl, [0.0], [1.0, 0.0]), fl, 1.0)
    psi = BumpTest(0.0, 1.0, 1.0, 0.5)
    with pytest.raises(FluxRangeError, match=r"still alive at the end time 1\.0"):
        trajectory_max_residual(traj, [psi])
    with pytest.raises(FluxRangeError, match=r"still alive at the end time 1\.0"):
        weak.fan_weak_residual(solve_riemann(fl, 1.0, 0.0), psi, 1.0)
    # a support ending exactly at the end time is dead there
    assert trajectory_max_residual(traj, [BumpTest(0.0, 0.5, 1.0, 0.5)]) <= WEAK_TOL


def _fan_battery(fan):
    """fan_max_residual's default battery at t_max = 1."""
    speeds = [s for w in fan.waves for s in w.support] or [0.0]
    lo, hi = min(speeds), max(speeds)
    pad = max(1.0, 0.3 * (hi - lo))
    return bump_battery(lo - pad, hi + pad, 0.0, 1.0)


def test_exact_fans_score_at_rounding_on_every_bump():
    # the rarefaction remainder once read up to 3.4e-10 here
    rng = np.random.default_rng(13)
    fans = []
    for name in ("burgers", "cosh", "poly4"):
        fl = make_flux(name, domain_radius=2.0)
        # the sonic rarefaction's support straddles omega = 0
        fans += [solve_riemann(fl, u_l, u_r) for u_l, u_r in ((1.0, -0.5), (-0.5, 1.0), (-1.9, 1.9))]
        for _ in range(30):
            u_l, u_r = np.sort(rng.uniform(-1.9, 1.9, 2))
            fans.append(random_family_member(rng, fl, u_l, u_r))
    # a non-monotone chain: Burgers data (1, 0) through -0.5 and 1.5
    fl = burgers_flux(2.0)
    chain = (Shock(1.0, -0.5, 0.25), Shock(-0.5, 1.5, 0.5), Shock(1.5, 0.0, 0.75))
    fans.append(WaveFan(fl, 1.0, 0.0, chain, "non-entropic"))
    for fan in fans:
        for psi in _fan_battery(fan):
            assert abs(weak.fan_weak_residual(fan, psi, 1.0)) <= 1e-13


def test_broken_fans_keep_their_scores():
    # the scores of the rarefaction-remainder residual; the stretched
    # rarefaction moved 5.6e-11, its quadrature noise
    fl = burgers_flux(2.0)
    scored = (
        (Shock(1.0, -0.5, 0.35), 1.0, -0.5, 0.052854473437754804),
        (Shock(-0.5, 1.0, 0.30), -0.5, 1.0, 0.02662284265747846),
        (Rarefaction(-0.5, 1.0, -0.4, 1.1), -0.5, 1.0, 0.0017686300415744594),
    )
    for wave, u_l, u_r, score in scored:
        fan = WaveFan(fl, u_l, u_r, (wave,), "non-entropic")
        assert fan_max_residual(fan, 1.0, _fan_battery(fan)) == pytest.approx(score, abs=1e-9)
