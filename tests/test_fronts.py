"""Wavefront tracking: snapshots, collisions, staircases, conservation."""

from dataclasses import fields

import numpy as np
import pytest

from clawlab import (
    InvariantViolation,
    TrapezoidDomain,
    burgers_flux,
    cell_averages_from_step,
    check_e_condition_state,
    cosh_flux,
    entropic_resolve_state,
    evolve,
    from_fan,
    get_scenario,
    l1_steps,
    lambda0,
    poly4_flux,
    potential_from_step,
    resolve_jump,
    solve_riemann,
    state_from_data,
    trapezoid_splice,
)
from clawlab import fronts
from clawlab.errors import ClawError, FluxRangeError
from clawlab.fluxes import FLUX_CATALOG, _band_bound, chord_slope, chord_slopes
from clawlab.fronts import (
    FrontState,
    Trajectory,
    _resolve,
    _Tracker,
    front_state,
    mass,
)
from clawlab.weak import default_battery_for, trajectory_max_residual

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
    assert l1_steps(*state.to_step(), *resolved.to_step()) <= 1e-12
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
        assert np.max(np.abs(st.states)) <= 1.0 + 1e-12


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


def _row_comes_back():
    """Front 0 sits on one table row at t = 0 and again from t = 1, with a
    snapshot of front 1 alone in between."""
    fl = burgers_flux()
    a = front_state(fl, 0.0, [0.0], [1.0, 0.0], front_ids=[0])
    b = front_state(fl, 0.5, [0.25], [0.75, 0.25], front_ids=[1])
    c = Trajectory(flux=fl, snapshots=[a], t_end=1.0, mode="as_given",
                   rarefaction_step=0.01).state_at(1.0)
    assert c.table is a.table
    return Trajectory(flux=fl, snapshots=[a, b, c], t_end=1.5, mode="as_given",
                      rarefaction_step=0.01)


def _near_simultaneous_merges():
    """Two shock pairs merge 1e-13 apart, the right pair first: both merged
    fronts are born in one segment, in the opposite order to their rows."""
    fl = burgers_flux(2.0)
    state = front_state(fl, 0.0, [0.0, 1.0 + 1e-13, 10.0, 11.0], [2.0, 1.0, 0.0, -1.0, -2.0])
    traj = evolve(state, fl, 2.0, mode="as_given")
    assert [e.x for e in traj.events] == [9.5, pytest.approx(1.5)]
    return traj


def _lifetimes_per_stored_front(traj):
    """The rows of lifetimes() from every stored front as its snapshot
    reads it: sorted by (id, segment) and cut where the id, the segment
    run, a state or the speed changes."""
    segs = list(traj.segments())
    snaps = [s for _, _, s in segs]
    seg = np.repeat(np.arange(len(segs)), [s.n_fronts for s in snaps])
    ids = np.concatenate([s.front_ids for s in snaps])
    u_minus = np.concatenate([s.states[:-1] for s in snaps])
    u_plus = np.concatenate([s.states[1:] for s in snaps])
    sigma = np.concatenate([s.speeds for s in snaps])
    order = np.lexsort((seg, ids))
    a, b = order[:-1], order[1:]
    same = ((ids[a] == ids[b]) & (seg[a] + 1 == seg[b]) & (u_minus[a] == u_minus[b])
            & (u_plus[a] == u_plus[b]) & (sigma[a] == sigma[b]))
    first = order[np.concatenate(([True], ~same))]
    last = order[np.concatenate((~same, [True]))]
    birth = np.argsort(first)
    first, last = first[birth], last[birth]
    t_a = np.array([t for t, _, _ in segs])
    t_b = np.array([t for _, t, _ in segs])
    x_birth = np.concatenate([s.positions for s in snaps])
    return (ids[first], t_a[seg[first]], t_b[seg[last]], x_birth[first], sigma[first],
            u_minus[first], u_plus[first])


@pytest.mark.parametrize(
    "build",
    [_two_shock_merge, _entropic_20_jumps, _as_given, _spliced, _states_change, _row_comes_back,
     _near_simultaneous_merges],
)
def test_lifetimes_are_the_rows_of_every_stored_front_bit_for_bit(build):
    """lifetimes() reads each table row once; its rows must be those of
    the stored fronts as the snapshots read them, to the bit."""
    traj = build()
    rows = traj.lifetimes()
    want = _lifetimes_per_stored_front(traj)
    got = [getattr(rows, f.name) for f in fields(rows)]
    assert [(a.dtype.str, a.tobytes()) for a in got] == [(a.dtype.str, a.tobytes()) for a in want]


def test_a_row_that_comes_back_starts_a_new_lifetime():
    rows = _row_comes_back().lifetimes()
    assert list(rows.front_id) == [0, 1, 0]
    assert list(rows.t_birth) == [0.0, 0.5, 1.0]
    assert list(rows.t_death) == [0.5, 1.0, 1.5]
    assert list(rows.u_minus) == [1.0, 0.75, 1.0]


def test_lifetimes_start_a_row_when_states_change():
    rows = _states_change().lifetimes()
    assert list(rows.front_id) == [0, 0]
    assert list(rows.t_birth) == [0.0, 0.5]
    assert list(rows.t_death) == [0.5, 1.0]
    assert list(rows.u_minus) == [1.0, 0.75]


def test_lifetimes_are_derived_once_and_read_only():
    traj = _entropic_20_jumps()
    rows = traj.lifetimes()
    assert traj.lifetimes() is rows
    with pytest.raises(ValueError):
        rows.sigma[0] = 0.0


def _entropic_100_jumps():
    fl = burgers_flux(2.0)
    xs, us = _steps(100, 100, 5.0, 1.5)
    return evolve(state_from_data(fl, xs, us), fl, 1.0)


def _as_given_40_jumps():
    fl = cosh_flux(2.0)
    xs, us = _steps(101, 40, 2.0, 1.5)
    return evolve(state_from_data(fl, xs, us), fl, 1.0, mode="as_given")


@pytest.mark.parametrize("build", [_entropic_100_jumps, _as_given_40_jumps])
def test_snapshots_follow_the_fronts_exactly(build):
    """Between consecutive snapshots a surviving front moves by exactly
    speed * dt, every stored speed is the chord of its states, and no
    snapshot shares memory with another."""
    traj = build()
    snaps = traj.snapshots
    assert len(traj.events) > 20
    for a, b in zip(snaps[:-1], snaps[1:]):
        _, ia, ib = np.intersect1d(a.front_ids, b.front_ids, return_indices=True)
        kept = a.speeds[ia] == b.speeds[ib]
        ia, ib = ia[kept], ib[kept]
        assert np.array_equal(
            b.positions[ib], a.positions[ia] + a.speeds[ia] * (b.time - a.time)
        )
        for x, y in zip(
            (a.positions, a.states, a.speeds, a.front_ids),
            (b.positions, b.states, b.speeds, b.front_ids),
        ):
            assert not np.shares_memory(x, y)
    for s in snaps:
        assert np.array_equal(s.speeds, chord_slopes(traj.flux, s.states[:-1], s.states[1:]))
    arrays = [
        arr for s in snaps for arr in (s.positions, s.states, s.speeds, s.front_ids)
    ]
    # arrays that own their buffers and are distinct objects cannot overlap
    assert all(arr.base is None for arr in arrays)
    assert len({id(arr) for arr in arrays}) == len(arrays)


@pytest.mark.parametrize(
    "mid", [(2.0, 1.0, 0.5), (0.5, 1.0, 0.5), (0.5, 1.0, 2.0)],
    ids=["descending", "up_down", "ascending"],
)
def test_repeated_breakpoints_agree_across_entry_points(mid):
    """A zero-width piece carries no mass: front tracking, the Hopf-Lax
    potential and exact cell averages see the same step function."""
    fl = poly4_flux(2.5)
    xs = [-1.0, 0.0, 0.0, 1.0]
    us = [0.0, *mid, 0.0]
    state = state_from_data(fl, xs, us)
    assert list(state.positions) == sorted(set(state.positions))
    want_mass = mid[0] + mid[2]
    assert mass(state) == want_mass
    g0 = potential_from_step(xs, us).g0
    assert g0(3.0) - g0(-3.0) == pytest.approx(want_mass, abs=1e-14)
    edges = np.linspace(-2.0, 2.0, 41)
    avg = cell_averages_from_step(xs, us, edges)
    dx = np.diff(edges)
    assert float(np.dot(avg, dx)) == pytest.approx(want_mass, abs=1e-12)
    mids = 0.5 * (edges[:-1] + edges[1:])
    step = state.value_at(mids)
    assert np.allclose(avg, step, rtol=0.0, atol=1e-12)
    slope = (g0(mids + 0.01) - g0(mids - 0.01)) / 0.02
    assert np.allclose(slope, step, rtol=0.0, atol=1e-12)


def test_repeated_breakpoint_becomes_one_jump():
    fl = burgers_flux()
    for us, n in (([2.0, 1.0, 0.0], 1), ([0.0, 1.0, 0.0], 0), ([0.0, 1.0, 2.0], 1)):
        state = state_from_data(fl, [0.0, 0.0], us)
        assert state.n_fronts == n
        assert state.states[0] == us[0] and state.states[-1] == us[-1]


@pytest.mark.parametrize(
    "t_end, step",
    [(np.nan, None), (np.inf, None), (-np.inf, None), (1.0, np.nan), (1.0, np.inf)],
)
def test_evolve_rejects_non_finite_horizon_and_step(t_end, step):
    fl = burgers_flux()
    state = state_from_data(fl, [0.0], [1.0, 0.0])
    with pytest.raises(FluxRangeError):
        evolve(state, fl, t_end, rarefaction_step=step)


@pytest.mark.parametrize(
    "states, name",
    [([2.0, 0.5, -0.5], "state 2.0 outside"), ([np.nan, 0.5, -0.5], "state nan outside")],
    ids=["out-of-band", "nan"],
)
def test_as_given_merge_of_illegal_states_raises_from_the_chord(states, name):
    """A merge of two unequal in-band states always has a chord speed, so
    an as_given collision fails only on an outer state that is NaN or
    outside the band, and then with the band check of chord_slopes."""
    fl = burgers_flux(1.0)
    # hand-built, unvalidated: the expansion front at 0 catches the shock at 0.1
    state = FrontState(0.0, np.array([0.0, 0.1]), np.array(states), np.array([1.0, 0.0]),
                       ("expansion_shock", "entropic_shock"), np.array([0, 1]))
    with pytest.raises(FluxRangeError, match=name) as err:
        evolve(state, fl, 1.0, mode="as_given")
    assert err.traceback[-2].name == "chord_slopes"


@pytest.mark.parametrize(
    "states", [[2.0, 0.5, 2.0], [2.0, 0.5, -0.5]], ids=["one-state-chain", "two-state-chain"]
)
def test_as_given_merge_checks_every_emitted_state_against_the_band(states):
    """The fronts at 0 and 1 meet at (1/2, 1). With equal outer states the
    merge emits the one-state chain [2.0], which has no chord; its state
    must be refused as the band refuses the chain [2.0, -0.5]."""
    fl = burgers_flux(1.0)
    # hand-built, unvalidated
    state = FrontState(0.0, np.array([0.0, 1.0]), np.array(states), np.array([2.0, 0.0]),
                       ("entropic_shock", "entropic_shock"), np.array([0, 1]))
    with pytest.raises(FluxRangeError, match="state 2.0 outside"):
        evolve(state, fl, 1.0, mode="as_given")


def test_state_at_rejects_nan_time():
    fl = burgers_flux()
    traj = evolve(state_from_data(fl, [0.0], [1.0, 0.0]), fl, 1.0)
    with pytest.raises(FluxRangeError, match="t=nan"):
        traj.state_at(np.nan)


@pytest.mark.parametrize(
    "t, step, name",
    [(np.nan, None, "t > 0"), (np.inf, None, "t > 0"), (1.0, np.nan, "rarefaction_step"),
     (1.0, 0.0, "rarefaction_step")],
)
def test_from_fan_rejects_non_finite_time_and_step(t, step, name):
    fan = solve_riemann(burgers_flux(), -1.0, 1.0)
    with pytest.raises(FluxRangeError, match=name):
        from_fan(fan, t, step)


@pytest.mark.parametrize(
    "kinds", [("expansion_shock", "entropic_shock"), ["expansion_shock", "entropic_shock"]],
    ids=["tuple", "list"],
)
def test_front_state_holds_given_kinds_as_kind_labels(kinds):
    fl = burgers_flux()
    built = FrontState(0.0, np.array([0.0, 1.0]), np.array([0.0, 1.0, 0.0]),
                       np.array([0.5, 0.5]), kinds, np.array([0, 1]))
    checked = front_state(fl, 0.0, [0.0, 1.0], [0.0, 1.0, 0.0], kinds)
    for st in (built, checked):
        assert type(st.kinds) is tuple
        assert st.kinds == ("expansion_shock", "entropic_shock")


def test_a_label_outside_the_catalog_survives_evolve():
    """A kind the package never emits rides through the tracker's splices."""
    fl = burgers_flux(2.0)
    # the two right shocks merge at t = 2/3; the custom front at -3 stays apart
    state = front_state(fl, 0.0, [-3.0, 0.0, 0.5], [0.5, 1.5, 1.0, 0.0],
                        ["custom_front", "entropic_shock", "entropic_shock"])
    traj = evolve(state, fl, 1.0, mode="as_given")
    assert len(traj.events) == 1
    assert traj.snapshots[0].kinds == ("custom_front", "entropic_shock", "entropic_shock")
    for snap in traj.snapshots[1:]:
        assert snap.kinds == ("custom_front", "entropic_shock")


def test_as_given_fronts_that_all_cancel_leave_stale_heap_entries_harmless():
    """The two right fronts merge at t = 1/4 into a stationary (1, -1) shock,
    which meets both outer fronts at x = 0, t = 1/2. The outer states are
    equal, so no front is left, while the heap still holds the stale pair
    of the first two fronts for t = 3/4."""
    fl = burgers_flux(2.0)
    state = state_from_data(fl, [-0.25, -0.0625, 0.1875, 0.25], [0.0, 1.0, -0.5, -1.0, 0.0])
    traj = evolve(state, fl, 1.0, mode="as_given")
    assert [(e.time, e.x) for e in traj.events] == [(0.25, 0.0), (0.5, 0.0)]
    final = traj.snapshots[-1]
    assert final.n_fronts == 0 and final.kinds == () and list(final.states) == [0.0]


def test_final_snapshot_copies_when_the_last_event_is_at_t_end():
    """The two shocks of two_shock_merge meet exactly at t_end = 1, so the
    final snapshot is taken at the last event's time and must not share
    that event's arrays."""
    sc = get_scenario("two_shock_merge")
    fl = sc.make_flux("burgers")
    traj = evolve(sc.initial_state(fl), fl, 1.0)
    assert traj.events[-1].time == traj.t_end == 1.0
    a, b = traj.snapshots[-2:]
    assert a.time == b.time == 1.0
    assert a.kinds == b.kinds
    for x, y in zip(
        (a.positions, a.states, a.speeds, a.front_ids),
        (b.positions, b.states, b.speeds, b.front_ids),
    ):
        assert np.array_equal(x, y) and not np.shares_memory(x, y)


@pytest.mark.parametrize("step", [np.nan, np.inf, 0.0, -0.1])
def test_bad_rarefaction_step_raises_flux_range_error_everywhere(step):
    fl = burgers_flux(1.5)
    for u_l, u_r in ((0.0, 1.0), (1.0, 0.0)):
        with pytest.raises(FluxRangeError, match="rarefaction_step"):
            resolve_jump(fl, u_l, u_r, step)
    with pytest.raises(FluxRangeError, match="rarefaction_step"):
        entropic_resolve_state(fl, state_from_data(fl, [], [0.0]), step)
    traj = evolve(state_from_data(fl, [0.0], [0.0, 1.0]), fl, 1.0, mode="as_given")
    dom = TrapezoidDomain(t1=0.2, t2=0.8, delta=0.5, lambda_hat=0.9 * lambda0(fl, 1.0))
    with pytest.raises(FluxRangeError, match="rarefaction_step"):
        trapezoid_splice(traj, dom, rarefaction_step=step)


@pytest.mark.parametrize("time", [np.nan, np.inf, -np.inf])
def test_snapshot_constructors_reject_non_finite_time(time):
    fl = burgers_flux()
    with pytest.raises(FluxRangeError, match="time"):
        state_from_data(fl, [0.0], [1.0, 0.0], time=time)
    with pytest.raises(FluxRangeError, match="time"):
        front_state(fl, time, [0.0], [1.0, 0.0])


def _emitted_speeds(flux, chain):
    """Speeds the tracker gives a chain it emits, or the error it raises."""
    tracker = _Tracker(flux, front_state(flux, 0.0, [], [0.0]), "as_given", 0.1)
    try:
        tracker.replace_group(0, -1, 0.0, chain, ["expansion_shock"] * (len(chain) - 1))
    except ClawError as exc:
        return exc
    return tracker.snapshot().speeds


def _chord_speeds(flux, chain):
    vals = np.asarray(chain, dtype=float)
    try:
        return chord_slopes(flux, vals[:-1], vals[1:])
    except ClawError as exc:
        return exc


def _seeded_chains(flux, seed, n):
    """as_given pairs and _resolve staircases; many states sit at the band's
    edge, on either side of _check_band's bound, or one ulp from a neighbour."""
    rng = np.random.default_rng(seed)
    r = flux.domain_radius
    bound = _band_bound(flux)
    edge = [r, np.nextafter(r, 0.0), bound, np.nextafter(bound, np.inf)]
    edge = np.array(edge + [-u for u in edge])

    def state():
        return float(rng.choice(edge)) if rng.random() < 0.4 else rng.uniform(-r, r)

    for _ in range(n):
        u_l, u_r = state(), state()
        pick = rng.random()
        if pick < 0.3:
            yield [u_l, u_r]
        elif pick < 0.5:
            yield [u_l, float(np.nextafter(u_l, rng.choice([-np.inf, np.inf])))]
        elif pick < 0.55:
            yield [u_l, rng.choice([u_l, np.nan])]
        else:
            yield _resolve(u_l, u_r, r * rng.uniform(0.005, 0.5))[0]


@pytest.mark.parametrize("name", sorted(FLUX_CATALOG))
def test_emitted_chain_speeds_are_chord_slopes_bit_for_bit(name):
    """replace_group checks a chain in Python scalars and then evaluates f
    once per state. Its speeds must be chord_slopes' to the bit, and a chain
    that chord_slopes refuses must raise the same error."""
    flux = FLUX_CATALOG[name]()
    raised = 0
    for chain in _seeded_chains(flux, 2100 + len(name), 2400):
        want = _chord_speeds(flux, chain)
        got = _emitted_speeds(flux, chain)
        if isinstance(want, ClawError):
            raised += 1
            assert type(got) is type(want) and str(got) == str(want), chain
        else:
            assert isinstance(got, np.ndarray), (chain, got)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), chain
    assert 200 <= raised <= 2200


def test_coincidence_guard_groups_fronts_that_meet_at_one_point():
    """Shocks of speeds 1, 0 and -1 meet at (1, 0); both pair events form
    one group, merged into one front."""
    fl = burgers_flux()
    state = front_state(fl, 0.0, [-1.0, 0.0, 1.0], [1.5, 0.5, -0.5, -1.5])
    traj = evolve(state, fl, 2.0, mode="as_given")
    assert [(e.time, e.x) for e in traj.events] == [(1.0, 0.0)]
    after = traj.snapshots[1]
    assert list(after.front_ids) == [3] and list(after.states) == [1.5, -1.5]


def test_coincidence_guard_splits_collisions_at_distinct_points():
    """Fronts 0 and 1 meet at (1, 0); fronts 1 and 2 meet 2**-41 later at
    x = 2**-30. The two pair events fall within the grouping tolerances, but
    at t = 1 front 2 is still 25 * 2**-30 (2.3e-8) from x = 0, so only the
    first pair collides then."""
    fl = burgers_flux(2.0**17)
    # speeds 3072, 2048 and -49152
    x2 = 2.0**-30 + 49152.0 * (1.0 + 2.0**-41)
    state = front_state(fl, 0.0, [-3072.0, -2048.0, x2], [3144.0, 3000.0, 1096.0, -99400.0])
    traj = evolve(state, fl, 1.0 + 2.0**-40, mode="as_given")
    first, second = traj.events
    assert (first.time, first.x) == (1.0, 0.0)
    assert 1.0 < second.time <= 1.0 + 1e-12 and 0.0 < second.x <= 1e-9
    assert list(traj.snapshots[1].front_ids) == [3, 2]
    assert list(traj.snapshots[2].states) == [3144.0, -99400.0]


def _hat_ramp(n):
    """u0 = max(0, 1 - |x|) as exact cell averages on 2n cells of width 1/n."""
    xs = np.linspace(-1.0, 1.0, 2 * n + 1)
    primitive = np.where(xs <= 0.0, 0.5 * (1.0 + xs) ** 2, 1.0 - 0.5 * (1.0 - xs) ** 2)
    return xs, np.concatenate(([0.0], np.diff(primitive) / np.diff(xs), [0.0]))


# Measured at n = 80, 160 and 640: mass drift 1.9e-13, 3.2e-13 and 6.4e-12,
# weak residual 5.9e-11, 7.6e-11 and 7.4e-11.
RAMP_MASS_TOL = 1e-11
RAMP_WEAK_TOL = 1e-10


@pytest.mark.parametrize("n", [80, 160, 640])
def test_ramp_focusing_more_than_64_fronts_at_one_point(n):
    """The shocks of the ramp's compressive side focus at the breaking point
    (1, 1), where 80 (n = 80) to 167 (n = 640) fronts collide as one group.
    Such a group is one Riemann problem, so the run conserves mass and
    stays a weak solution."""
    fl = burgers_flux()
    state = state_from_data(fl, *_hat_ramp(n))
    traj = evolve(state, fl, 2.0, rarefaction_step=1.0 / n)
    snaps = traj.snapshots
    assert max(a.n_fronts - b.n_fronts for a, b in zip(snaps[:-1], snaps[1:])) >= 64
    m0 = mass(state)
    assert max(abs(mass(s) - m0) for s in snaps) <= RAMP_MASS_TOL
    assert trajectory_max_residual(traj, default_battery_for(traj)) <= RAMP_WEAK_TOL


class _SearchingTracker(_Tracker):
    """The tracker with no dead-row table: every heap entry pays the search."""

    def _pair_indices(self, row_l, row_r):
        rows = self.rows
        if rows.size == 0:
            return None
        i = int((rows == row_l).argmax())
        if rows[i : i + 2].tolist() != [row_l, row_r]:
            return None
        return (i, i + 1)


def _bits(snap):
    arrays = (snap.positions, snap.states, snap.speeds, snap.front_ids)
    return (snap.time, snap.kinds, *((a.dtype.str, a.tobytes()) for a in arrays))


@pytest.mark.parametrize("build", [_entropic_100_jumps, _as_given_40_jumps])
def test_dead_ids_drop_only_stale_heap_entries(build, monkeypatch):
    """The dead-row table rejects a heap entry before any search, so it must
    reject exactly the entries the search rejects: every snapshot and event
    is the searching tracker's, to the bit."""
    want = build()
    monkeypatch.setattr(fronts, "_Tracker", _SearchingTracker)
    got = build()
    assert len(got.events) > 20
    assert [(e.time, e.x, e.kind) for e in got.events] == [
        (e.time, e.x, e.kind) for e in want.events
    ]
    assert [_bits(s) for s in got.snapshots] == [_bits(s) for s in want.snapshots]


def test_as_given_evolve_refuses_fronts_that_share_an_id():
    """An id names one front from snapshot to snapshot, so a snapshot
    whose fronts share an id is refused before tracking (entropic mode
    tracks fresh ids). With distinct ids fronts 0 and 1 merge at t = 2
    and the merged front meets front 2 at t = 10/3."""
    fl = burgers_flux(1.0)
    xs, us = [0.0, 1.0, 3.0], [1.0, 0.5, 0.0, -0.5]
    distinct = evolve(front_state(fl, 0.0, xs, us, front_ids=[0, 1, 2]), fl, 4.0, mode="as_given")
    assert [e.time for e in distinct.events] == pytest.approx([2.0, 10.0 / 3.0])
    state = front_state(fl, 0.0, xs, us, front_ids=[0, 1, 0])
    with pytest.raises(InvariantViolation, match="front id 0 is held by more than one front"):
        evolve(state, fl, 4.0, mode="as_given")


@pytest.mark.parametrize("build", [_entropic_100_jumps, _as_given_40_jumps, _spliced])
def test_front_ids_are_int32_in_every_snapshot_and_lifetime_row(build):
    traj = build()
    assert len(traj.events) > 0
    ids = [s.front_ids for s in traj.snapshots] + [traj.lifetimes().front_id]
    assert all(a.dtype == np.int32 for a in ids)


def test_front_ids_are_int32_from_every_snapshot_constructor():
    fl = burgers_flux(2.0)
    given = front_state(fl, 0.0, [0.0, 1.0], [-1.0, 1.0, 0.0], front_ids=[7, 9])
    assert given.front_ids.dtype == np.int32 and given.front_ids.tolist() == [7, 9]
    resolved = entropic_resolve_state(fl, given, 0.25)
    fan = from_fan(solve_riemann(fl, -1.0, 1.0), 1.0, 0.25)
    for snap in (resolved, fan, state_from_data(fl, [0.0], [1.0, 0.0])):
        assert snap.front_ids.dtype == np.int32
        assert snap.front_ids.tolist() == list(range(snap.n_fronts))


def test_front_ids_outside_int32_are_refused_by_name():
    fl = burgers_flux()
    with pytest.raises(InvariantViolation, match="front id 2147483648 outside the int32 range"):
        front_state(fl, 0.0, [0.0], [1.0, 0.0], front_ids=[2**31])
    with pytest.raises(InvariantViolation, match="front id -2147483649 outside the int32 range"):
        front_state(fl, 0.0, [0.0], [1.0, 0.0], front_ids=[-(2**31) - 1])
    wide = np.array([2**31], dtype=np.int64)
    with pytest.raises(InvariantViolation, match="front id 2147483648 outside the int32 range"):
        FrontState(0.0, np.zeros(1), np.array([1.0, 0.0]), np.full(1, 0.5), ("s",), wide)
    # an int64 id inside the range keeps its value
    fine = FrontState(0.0, np.zeros(1), np.array([1.0, 0.0]), np.full(1, 0.5), ("s",),
                      np.array([2**31 - 1], dtype=np.int64))
    assert fine.front_ids.dtype == np.int32 and fine.front_ids.tolist() == [2**31 - 1]


def test_tracker_refuses_to_mint_an_id_past_the_int32_limit():
    """The two shocks of Burgers (1, 0.5, 0) merge at t = 2; the merged
    front takes the next id, one past the largest given."""
    fl = burgers_flux(1.0)
    ok = evolve(front_state(fl, 0.0, [0.0, 1.0], [1.0, 0.5, 0.0], front_ids=[0, 2**31 - 2]),
                fl, 3.0, mode="as_given")
    assert [e.time for e in ok.events] == pytest.approx([2.0])
    assert ok.snapshots[-1].front_ids.tolist() == [2**31 - 1]
    last = front_state(fl, 0.0, [0.0, 1.0], [1.0, 0.5, 0.0], front_ids=[0, 2**31 - 1])
    with pytest.raises(InvariantViolation, match="front id 2147483648 would pass the int32 limit"):
        evolve(last, fl, 3.0, mode="as_given")


def test_a_reader_gets_float64_positions_and_int32_rows():
    """A snapshot hands a reader 8 bytes of position and a 4-byte row per
    front."""
    snaps = _entropic_100_jumps().snapshots
    stored = sum(s.n_fronts for s in snaps)
    assert stored > 10_000
    assert all(s.positions.dtype == np.float64 and s.rows.dtype == np.int32 for s in snaps)
    assert sum(s.positions.nbytes + s.rows.nbytes for s in snaps) == 12 * stored


def test_the_arrays_a_snapshot_reads_cost_28_bytes_a_front():
    """Read through the table, a front gives 8 bytes each of position,
    state and speed and 4 of id; each snapshot adds 8 for its last state."""
    traj = _entropic_100_jumps()
    snaps = traj.snapshots
    nbytes = sum(
        a.nbytes
        for s in snaps
        for a in (s.positions, s.states, s.speeds, s.front_ids)
    )
    stored = sum(s.n_fronts for s in snaps)
    assert stored > 10_000
    assert nbytes == 28 * stored + 8 * len(snaps)


def test_a_stored_front_costs_8_bytes_plus_checkpoint_rows():
    """A snapshot holds its positions and no rows: 8 bytes a stored front.
    The table keeps the rows of every K-th event, about 4 / K bytes more
    per stored front, and rebuilds the others from its splice log."""
    traj = _entropic_100_jumps()
    snaps = traj.snapshots
    table = snaps[0].table
    k = fronts._CHECKPOINT_EVENTS
    stored = sum(s.n_fronts for s in snaps)
    assert stored > 10_000 and all(s.table is table for s in snaps)
    assert [f.name for f in fields(FrontState)] == [
        "time", "positions", "table", "left_state", "event"
    ]
    assert sum(s.positions.nbytes for s in snaps) == 8 * stored
    at_checkpoints = sum(snaps[e].n_fronts for e in range(0, len(traj.events) + 1, k))
    assert sum(rows.nbytes for rows in table._checkpoints) == 4 * at_checkpoints
    assert at_checkpoints * k == pytest.approx(stored, rel=0.05)


def _recording_tracker(trackers):
    """A tracker that keeps a copy of its rows at every snapshot and the
    left state around every splice, and adds itself to trackers."""

    class Recording(_Tracker):
        def __init__(self, *args):
            super().__init__(*args)
            self.kept_rows = []
            self.left_changes = []  # (p, q, left before, left after) per splice
            trackers.append(self)

        def snapshot(self, copy=False):
            self.kept_rows.append(self.rows.copy())
            return super().snapshot(copy)

        def replace_group(self, p, q, x, chain, kinds):
            left = self.left
            out = super().replace_group(p, q, x, chain, kinds)
            self.left_changes.append((p, q, left, self.left))
            return out

    return Recording


def _splice_with_uncovers():
    """An as_given run spliced on a domain that 12 fronts enter through
    its lateral edges, 8 of them on the left, which changes the left
    state of the re-solve."""
    fl = burgers_flux(1.5)
    xs, us = _steps(1001, 20, 2.0, 1.0)
    traj = evolve(state_from_data(fl, xs, us), fl, 1.0, mode="as_given",
                  rarefaction_step=0.05)
    dom = TrapezoidDomain(t1=0.2, t2=0.8, delta=0.5, lambda_hat=0.9 * lambda0(fl, 1.0))
    return trapezoid_splice(traj, dom)


def _assert_rows_replayed(tracker):
    snaps, kept = tracker.snapshots, tracker.kept_rows
    assert len(snaps) == len(kept)
    n = len(snaps)
    forward, reverse = range(n), range(n - 1, -1, -1)
    strided = [*range(0, n, 5), *range(1, n, 7)]
    repeated = [n // 2] * 3 + [n - 1] * 2 + [1] * 2
    for i in [*forward, *reverse, *strided, *repeated]:
        rows = snaps[i].rows
        assert (rows.dtype, rows.shape, rows.tobytes()) == (
            kept[i].dtype, kept[i].shape, kept[i].tobytes()
        ), i


@pytest.mark.parametrize("build", [_entropic_100_jumps, _as_given_40_jumps, _splice_with_uncovers])
def test_replayed_rows_are_the_rows_the_tracker_kept(build, monkeypatch):
    """Every snapshot's rows, replayed from the splice log, equal bit for
    bit the rows the tracker held at its event: read forward, backward,
    in strides and again and again."""
    trackers = []
    monkeypatch.setattr(fronts, "_Tracker", _recording_tracker(trackers))
    build()
    assert len(trackers[-1].snapshots) > fronts._CHECKPOINT_EVENTS + 1
    for tracker in trackers:
        _assert_rows_replayed(tracker)
    if build is _splice_with_uncovers:
        resolve = trackers[-1]
        uncovers = [c for e, c in zip(resolve.events, resolve.left_changes) if e.kind == "uncover"]
        left = [c for c in uncovers if c[:2] == (0, -1) and c[2] != c[3]]
        right = [c for c in uncovers if c[1] == c[0] - 1 and c[0] > 0 and c[2] == c[3]]
        assert (len(uncovers), len(left), len(right)) == (12, 8, 4)
        after_events = resolve.snapshots[1:-1]
        assert [s.left_state for s in after_events] == [c[3] for c in resolve.left_changes]


@pytest.mark.parametrize(
    "build, lengths",
    [
        (lambda: front_state(burgers_flux(2.0), 0.0, [0.0, 1.0], [1.0, 0.5, 0.0],
                             kinds=["entropic_shock"], front_ids=[7]),
         "got 3 states, 2 speeds, 1 kinds and 1 front ids"),
        (lambda: FrontState(0.0, [0.0, 1.0], [1.0, 0.5, 0.0], [0.75], ("a", "b"), [0, 1, 2]),
         "got 3 states, 1 speeds, 2 kinds and 3 front ids"),
        (lambda: FrontState(0.0, [0.0, 1.0], [1.0, 0.0], [0.5, 0.5], ("a", "b"), [0, 1]),
         "got 2 states, 2 speeds, 2 kinds and 2 front ids"),
    ],
    ids=["front_state_kinds_and_ids", "FrontState_speeds_and_ids", "FrontState_states"],
)
def test_snapshots_refuse_arrays_that_do_not_fit_their_fronts(build, lengths):
    with pytest.raises(InvariantViolation, match="2 positions need 3 states and 2 speeds, "
                       "kinds and front ids; " + lengths):
        build()


def test_as_given_evolve_refuses_positions_that_decrease():
    """Hand-built with the front at x = 0 right of the one at x = 1, the
    pair would collide at once and move a front with no collision."""
    fl = burgers_flux(1.0)
    states = np.array([1.0, -0.5, 0.5, 0.0])
    state = FrontState(0.0, np.array([1.0, 0.0, 2.0]), states,
                       chord_slopes(fl, states[:-1], states[1:]),
                       ("entropic_shock", "expansion_shock", "entropic_shock"), [0, 1, 2])
    with pytest.raises(InvariantViolation, match="front positions must be non-decreasing"):
        evolve(state, fl, 2.0, mode="as_given")
