"""Wavefront tracking: snapshots, collisions, staircases, conservation."""

import numpy as np
import pytest

from clawlab import (
    InvariantViolation,
    TrapezoidDomain,
    burgers_flux,
    check_e_condition_state,
    cosh_flux,
    entropic_resolve_state,
    evolve,
    from_fan,
    get_scenario,
    lambda0,
    resolve_jump,
    solve_riemann,
    state_from_data,
    trapezoid_splice,
)
from clawlab.errors import FluxRangeError
from clawlab.fluxes import chord_slope
from clawlab.fronts import Trajectory, front_state, l1_between_states, linf, mass

MASS_TOL = 1e-10


def test_state_from_data_drops_zero_jumps():
    fl = burgers_flux()
    state = state_from_data(fl, [-1.0, 0.0, 1.0], [0.5, 0.5, 1.0, 0.0])
    assert state.n_fronts == 2
    assert list(state.positions) == [0.0, 1.0]
    assert state.value_at(-5.0) == 0.5
    assert state.value_at(0.5) == 1.0
    with pytest.raises(InvariantViolation):
        state_from_data(fl, [0.0, 1.0], [1.0, 0.0])


def test_front_speeds_are_chord_slopes():
    fl = cosh_flux()
    state = state_from_data(fl, [-1.0, 1.0], [1.0, 0.2, -0.7])
    for i in range(state.n_fronts):
        want = chord_slope(fl, float(state.states[i]), float(state.states[i + 1]))
        assert state.speeds[i] == pytest.approx(want, abs=1e-14)


def test_resolve_jump_descending_is_single_shock():
    fl = burgers_flux()
    chain, kinds = resolve_jump(fl, 1.0, 0.0, rarefaction_step=0.1)
    assert chain == [1.0, 0.0]
    assert kinds == ["entropic_shock"]


def test_resolve_jump_ascending_staircase():
    fl = burgers_flux()
    chain, kinds = resolve_jump(fl, -1.0, 1.0, rarefaction_step=0.3)
    assert chain[0] == -1.0 and chain[-1] == 1.0
    steps = np.diff(chain)
    assert np.all(steps > 0)
    assert np.max(steps) <= 0.3 + 1e-12
    assert all(k == "rarefaction_fragment" for k in kinds)


def test_from_fan_discretizes_shocks_and_fans():
    fl = burgers_flux()
    fan = solve_riemann(fl, 1.0, 0.0)
    state = from_fan(fan, 2.0, rarefaction_step=0.1)
    assert state.n_fronts == 1
    assert state.positions[0] == pytest.approx(1.0)  # sigma t = 0.5 * 2
    raref = from_fan(solve_riemann(fl, -1.0, 1.0), 1.0, rarefaction_step=0.25)
    assert raref.n_fronts == 8
    assert np.all(np.diff(raref.positions) > 0)
    with pytest.raises(FluxRangeError):
        from_fan(fan, 0.0)


def test_entropic_resolve_preserves_l1():
    fl = burgers_flux()
    state = state_from_data(fl, [-1.0, 0.5, 1.0], [0.0, 1.2, -0.4, 0.0])
    resolved = entropic_resolve_state(fl, state, rarefaction_step=0.05)
    assert l1_between_states(state, resolved) <= 1e-12
    assert resolved.n_fronts > state.n_fronts
    assert mass(resolved) == pytest.approx(mass(state), abs=1e-12)


def test_single_shock_path():
    fl = burgers_flux()
    traj = evolve(state_from_data(fl, [0.0], [1.0, 0.0]), fl, 4.0)
    assert traj.events == []
    for t in (0.5, 2.0, 4.0):
        st = traj.state_at(t)
        assert st.positions[0] == pytest.approx(0.5 * t)
    with pytest.raises(FluxRangeError):
        traj.state_at(4.5)


def test_rarefaction_evolution_satisfies_e_condition():
    fl = burgers_flux()
    traj = evolve(
        state_from_data(fl, [0.0], [-1.0, 1.0]), fl, 2.0, rarefaction_step=0.05
    )
    rep = check_e_condition_state(traj.state_at(2.0), fl.ddf_lower_bound, slack=0.05)
    assert rep.holds


def test_two_shock_merge_event():
    sc = get_scenario("two_shock_merge")
    fl = sc.make_flux()
    traj = evolve(sc.initial_state(fl), fl, 2.0)
    assert len(traj.events) == 1
    ev = traj.events[0]
    assert ev.time == pytest.approx(1.0)
    assert ev.x == pytest.approx(1.5)
    assert ev.kind == "collision"
    final = traj.state_at(2.0)
    assert final.n_fronts == 1
    assert final.speeds[0] == pytest.approx(1.0)  # chord of (2, 0)
    assert final.positions[0] == pytest.approx(2.5)


def test_triple_collision_resolved_as_one_riemann_problem():
    fl = burgers_flux(3.0)
    # chords 2.5, 1.5, 0.5 from -2.5, -1.5, -0.5: all meet at (0, 1)
    state = state_from_data(fl, [-2.5, -1.5, -0.5], [3.0, 2.0, 1.0, 0.0])
    traj = evolve(state, fl, 2.0)
    assert len(traj.events) == 1
    final = traj.state_at(2.0)
    assert final.n_fronts == 1
    assert final.states[0] == 3.0 and final.states[-1] == 0.0
    assert final.speeds[0] == pytest.approx(1.5)


def test_shock_rarefaction_interaction_mass_and_sign():
    fl = burgers_flux()
    sc = get_scenario("interior_expansion")
    traj = evolve(sc.initial_state(fl), fl, sc.t_end, rarefaction_step=0.1)
    m0 = mass(traj.snapshots[0])
    for t in np.linspace(0.1, sc.t_end, 7):
        st = traj.state_at(t)
        assert mass(st) == pytest.approx(m0, abs=MASS_TOL)
        assert linf(st) <= 1.0 + 1e-12


def test_mass_conserved_across_events_random_data():
    rng = np.random.default_rng(19)
    fl = burgers_flux(2.0)
    for _ in range(12):
        n = int(rng.integers(2, 6))
        xs = np.sort(rng.uniform(-1.5, 1.5, size=n))
        us = rng.uniform(-1.2, 1.2, size=n + 1)
        us[0] = us[-1] = 0.0  # mass needs compact support
        state = state_from_data(fl, xs, us)
        traj = evolve(state, fl, 1.5, rarefaction_step=0.05)
        m0 = mass(traj.snapshots[0])
        assert mass(traj.state_at(1.5)) == pytest.approx(m0, abs=MASS_TOL)
        for ev in traj.events:
            before = mass(traj.state_at(ev.time - 1e-9))
            after = mass(traj.state_at(ev.time + 1e-9))
            assert after == pytest.approx(before, abs=MASS_TOL)


def test_as_given_keeps_expansion_shock():
    fl = burgers_flux()
    traj = evolve(state_from_data(fl, [0.0], [0.0, 1.0]), fl, 1.0, mode="as_given")
    st = traj.state_at(1.0)
    assert st.n_fronts == 1
    assert st.kinds[0] == "expansion_shock"
    assert st.positions[0] == pytest.approx(0.5)
    entropic = evolve(state_from_data(fl, [0.0], [0.0, 1.0]), fl, 1.0)
    assert entropic.state_at(1.0).n_fronts > 1


def test_as_given_collision_merges_by_chord():
    fl = burgers_flux(2.0)
    # expansion shock (0, 2) at speed 1 catches the (2, -0.5) shock at 0.75
    state = state_from_data(fl, [0.0, 0.3], [0.0, 2.0, -0.5])
    traj = evolve(state, fl, 2.0, mode="as_given")
    assert len(traj.events) == 1
    final = traj.state_at(2.0)
    assert final.n_fronts == 1
    assert final.speeds[0] == pytest.approx(chord_slope(fl, 0.0, -0.5))
    assert traj.forced_events == []


def test_evolve_rejects_unknown_mode():
    fl = burgers_flux()
    with pytest.raises(FluxRangeError):
        evolve(state_from_data(fl, [0.0], [1.0, 0.0]), fl, 1.0, mode="upwind")


def test_segments_partition_the_span():
    sc = get_scenario("two_shock_merge")
    fl = sc.make_flux()
    traj = evolve(sc.initial_state(fl), fl, 2.0)
    segs = list(traj.segments())
    assert segs[0][0] == traj.t_start
    assert segs[-1][1] == traj.t_end
    for (_, b, _), (a, _, _) in zip(segs[:-1], segs[1:]):
        assert a == pytest.approx(b, abs=1e-12)


def test_support_bbox_covers_all_fronts():
    fl = burgers_flux()
    traj = evolve(state_from_data(fl, [-1.0, 0.0], [0.0, 1.0, 0.0]), fl, 2.0,
                  rarefaction_step=0.1)
    lo, hi = traj.support_bbox()
    for t in np.linspace(0.0, 2.0, 9)[1:]:
        st = traj.state_at(t)
        assert st.positions[0] >= lo - 1e-12
        assert st.positions[-1] <= hi + 1e-12


def test_sample_matches_value_at():
    fl = burgers_flux()
    traj = evolve(state_from_data(fl, [0.0], [1.0, 0.0]), fl, 2.0)
    xs = np.linspace(-1.0, 2.0, 13)
    got = traj.sample(2.0, xs)
    want = np.where(xs <= 1.0, 1.0, 0.0)
    assert np.allclose(got, want)


def _steps(seed, n, x_half, u_half):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(-x_half, x_half, n))
    us = rng.uniform(-u_half, u_half, n + 1)
    us[0] = us[-1] = 0.0
    return xs, us


def _two_shock_merge():
    sc = get_scenario("two_shock_merge")
    fl = sc.make_flux()
    return evolve(sc.initial_state(fl), fl, 2.0)


def _entropic_20_jumps():
    fl = burgers_flux(2.0)
    xs, us = _steps(23, 20, 2.0, 1.5)
    return evolve(state_from_data(fl, xs, us), fl, 1.0, rarefaction_step=0.1)


def _as_given():
    fl = burgers_flux(2.0)
    xs, us = _steps(23, 8, 2.0, 1.5)
    return evolve(state_from_data(fl, xs, us), fl, 1.0, mode="as_given")


def _spliced():
    fl = burgers_flux(1.5)
    xs, us = _steps(1002, 5, 1.0, 1.0)
    traj = evolve(state_from_data(fl, xs, us), fl, 1.0, mode="as_given",
                  rarefaction_step=0.05)
    dom = TrapezoidDomain(t1=0.2, t2=0.8, delta=0.5, lambda_hat=0.9 * lambda0(fl, 1.0))
    return trapezoid_splice(traj, dom)


def _states_change():
    """One front keeps its id and its speed 1/2 while both its states change."""
    fl = burgers_flux()
    a = front_state(fl, 0.0, [0.0], [1.0, 0.0], front_ids=[0])
    b = front_state(fl, 0.5, [0.25], [0.75, 0.25], front_ids=[0])
    assert a.speeds[0] == b.speeds[0] == 0.5
    return Trajectory(flux=fl, snapshots=[a, b], t_end=1.0, mode="as_given",
                      rarefaction_step=0.01)


@pytest.mark.parametrize(
    "build", [_two_shock_merge, _entropic_20_jumps, _as_given, _spliced, _states_change]
)
def test_lifetimes_partition_the_segments(build):
    """Each (segment, front) pair lies in exactly one lifetime row that
    carries its id, states and speed and reproduces its positions."""
    traj = build()
    rows = traj.lifetimes()
    used = np.zeros(len(rows), dtype=bool)
    for t_a, t_b, snap in traj.segments():
        for j in range(snap.n_fronts):
            hit = np.nonzero(
                (rows.front_id == snap.front_ids[j])
                & (rows.t_birth <= t_a)
                & (rows.t_death >= t_b)
            )[0]
            assert hit.size == 1, (t_a, int(snap.front_ids[j]))
            r = int(hit[0])
            used[r] = True
            assert rows.u_minus[r] == snap.states[j]
            assert rows.u_plus[r] == snap.states[j + 1]
            assert rows.sigma[r] == snap.speeds[j]
            for t in (t_a, t_b):
                x = snap.positions[j] + snap.speeds[j] * (t - snap.time)
                x_row = rows.x_birth[r] + rows.sigma[r] * (t - rows.t_birth[r])
                assert abs(x_row - x) <= 1e-12 * max(1.0, abs(x))
    assert used.all()


def test_lifetimes_start_a_row_when_states_change():
    rows = _states_change().lifetimes()
    assert list(rows.front_id) == [0, 0]
    assert list(rows.t_birth) == [0.0, 0.5]
    assert list(rows.t_death) == [0.5, 1.0]
    assert list(rows.u_minus) == [1.0, 0.75]
