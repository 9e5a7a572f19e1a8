"""Trapezoid domains, boundary traces, and the entropic splice."""

import numpy as np
import pytest

from clawlab import (
    ClawError,
    InvariantViolation,
    TangencyError,
    Trajectory,
    TrapezoidDomain,
    Window,
    burgers_flux,
    evolve,
    front_state,
    lambda0,
    make_flux,
    state_from_data,
    total_ep,
    trace_on_lambda,
    trajectory_max_residual,
    trapezoid_splice,
    validate_domain,
)
from clawlab.errors import FluxRangeError

WEAK_TOL = 1e-7


def test_domain_validation():
    with pytest.raises(FluxRangeError):
        TrapezoidDomain(t1=1.0, t2=1.0, delta=0.1, lambda_hat=0.5)
    with pytest.raises(FluxRangeError):
        TrapezoidDomain(t1=0.0, t2=1.0, delta=0.0, lambda_hat=0.5)
    with pytest.raises(FluxRangeError):
        TrapezoidDomain(t1=0.0, t2=1.0, delta=0.1, lambda_hat=1.5)


def test_domain_geometry():
    dom = TrapezoidDomain(t1=0.5, t2=1.5, delta=0.2, lambda_hat=0.4)
    assert dom.theta_plus(0.5) == pytest.approx(0.2)
    assert dom.theta_plus(1.5) == pytest.approx(0.2 + 2.5)
    assert dom.s_max == pytest.approx(2.7)
    assert dom.boundary_time(0.1) == pytest.approx(0.5)  # flat part
    assert dom.boundary_time(-1.2) == pytest.approx(0.5 + 0.4 * 1.0)
    assert dom.contains(0.0, 1.0)
    assert not dom.contains(0.0, 0.5)  # open in t
    assert not dom.contains(2.0, 1.0)


def test_domain_clip_front_brute_indicator():
    rng = np.random.default_rng(6)
    dom = TrapezoidDomain(t1=0.3, t2=1.4, delta=0.25, lambda_hat=0.5)
    ts = np.linspace(0.0, 1.6, 4001)
    for _ in range(40):
        t_a = float(rng.uniform(0.0, 1.2))
        t_b = t_a + float(rng.uniform(0.05, 0.6))
        x_a = float(rng.uniform(-1.5, 1.5))
        sigma = float(rng.uniform(-1.8, 1.8))
        lo, hi = map(float, dom.clip(t_a, t_b, x_a, sigma))
        x = x_a + sigma * (ts - t_a)
        mask = (ts >= t_a) & (ts <= t_b) & (ts > dom.t1) & (ts < dom.t2)
        mask &= np.abs(x) < dom.theta_plus(ts)
        measured = float(np.sum(mask)) * (ts[1] - ts[0])
        assert max(hi - lo, 0.0) == pytest.approx(measured, abs=2e-3)


def test_lambda0_and_domain_validation():
    fl = burgers_flux(1.0)
    # f'(1 + 1 + 0.5) = 2.5
    assert lambda0(fl, 0.5) == pytest.approx(0.4)
    dom_ok = TrapezoidDomain(t1=0.0, t2=1.0, delta=0.1, lambda_hat=0.39)
    validate_domain(dom_ok, fl, boundary_sup=0.5)
    dom_bad = TrapezoidDomain(t1=0.0, t2=1.0, delta=0.1, lambda_hat=0.41)
    with pytest.raises(FluxRangeError):
        validate_domain(dom_bad, fl, boundary_sup=0.5)


@pytest.mark.parametrize("sup", [np.nan, np.inf])
def test_lambda0_rejects_non_finite_boundary_sup(sup):
    fl = burgers_flux(1.0)
    with pytest.raises(FluxRangeError, match="boundary_sup"):
        lambda0(fl, sup)
    dom = TrapezoidDomain(t1=0.0, t2=1.0, delta=0.1, lambda_hat=0.39)
    with pytest.raises(FluxRangeError, match="boundary_sup"):
        validate_domain(dom, fl, boundary_sup=sup)


def test_trace_flat_crossing_closed_form():
    fl = burgers_flux()
    traj = evolve(state_from_data(fl, [0.0], [1.0, 0.0]), fl, 1.5)
    dom = TrapezoidDomain(t1=0.25, t2=1.25, delta=0.2, lambda_hat=0.25)
    trace = trace_on_lambda(traj, dom)
    assert len(trace.crossings) == 1
    c = trace.crossings[0]
    assert c.side == "flat"
    assert c.s == pytest.approx(0.125)  # shock at x = t/2
    assert (c.u_before, c.u_after) == (1.0, 0.0)
    assert trace.value_at(-1.0) == 1.0
    assert trace.value_at(1.0) == 0.0
    assert np.max(np.abs(trace.values)) == 1.0


def test_trace_lateral_crossing_closed_form():
    fl = burgers_flux()
    traj = evolve(state_from_data(fl, [-1.0], [1.0, 0.0]), fl, 1.5)
    dom = TrapezoidDomain(t1=0.25, t2=1.25, delta=0.2, lambda_hat=0.5)
    trace = trace_on_lambda(traj, dom)
    assert len(trace.crossings) == 1
    c = trace.crossings[0]
    assert c.side == "left"
    # -1 + t/2 = -0.2 - 2 (t - 0.25) at t = 0.52
    assert c.time == pytest.approx(0.52)
    assert c.s == pytest.approx(-0.74)
    assert dom.boundary_time(c.s) == pytest.approx(c.time)
    # boundary data: 0 beyond the crossing (shock not yet arrived), 1 after
    assert trace.value_at(-1.0) == 1.0
    assert trace.value_at(0.0) == 0.0


def test_trace_rejects_tangent_front():
    fl = burgers_flux(3.0)
    traj = evolve(state_from_data(fl, [0.0], [2.5, 1.5]), fl, 1.5)  # sigma = 2
    dom = TrapezoidDomain(t1=0.25, t2=1.25, delta=0.2, lambda_hat=0.5)
    with pytest.raises(TangencyError):
        trace_on_lambda(traj, dom)


@pytest.mark.parametrize(
    "us, slope", [([2.5, 1.5], "2.0"), ([-1.5, -2.5], "-2.0")], ids=["right", "left"]
)
def test_tangency_error_names_the_slope_of_the_tangent_edge(us, slope):
    fl = burgers_flux(3.0)
    traj = evolve(state_from_data(fl, [0.0], us), fl, 1.5)  # sigma = +-2
    dom = TrapezoidDomain(t1=0.25, t2=1.25, delta=0.2, lambda_hat=0.5)
    with pytest.raises(TangencyError, match=f"boundary slope {slope}$"):
        trace_on_lambda(traj, dom)


def test_trace_values_match_the_trajectory_between_crossings():
    # the reference reads the trajectory at every piece midpoint on Lambda
    rng = np.random.default_rng(34)
    for name in ("burgers", "cosh", "poly4"):
        fl = make_flux(name, domain_radius=1.5)
        dom = TrapezoidDomain(0.2, 0.8, 0.5, 0.9 * lambda0(fl, 1.0))
        for _ in range(15):
            n = int(rng.integers(2, 7))
            xs = np.sort(rng.uniform(-1.0, 1.0, n))
            us = np.concatenate(([0.0], rng.uniform(-1.0, 1.0, n - 1), [0.0]))
            traj = evolve(state_from_data(fl, xs, us), fl, 1.0, mode="as_given",
                          rarefaction_step=0.05)
            trace = trace_on_lambda(traj, dom)
            ends = np.concatenate(([-dom.s_max], trace.s_breaks, [dom.s_max]))
            mids = 0.5 * (ends[:-1] + ends[1:]) if trace.s_breaks.size else [0.0]
            expected = [
                float(traj.state_at(min(dom.boundary_time(s), dom.t2 - 1e-13)).value_at(s))
                for s in map(float, mids)
            ]
            assert trace.values.tolist() == expected


def test_trace_refuses_crossings_that_do_not_chain():
    # not a weak solution: the left front hands on 1.5, the right takes up 1.0
    fl = burgers_flux(2.0)
    a = front_state(fl, 0.0, [-3.0, -0.9], [0.0, 1.0, 0.0], front_ids=[0, 1])
    b = front_state(fl, 0.5, [-2.75, -0.65], [0.0, 1.5, -0.5], front_ids=[0, 1])
    traj = Trajectory(
        flux=fl, snapshots=[a, b], t_end=1.5, mode="as_given", rarefaction_step=0.01
    )
    dom = TrapezoidDomain(0.1, 1.4, 0.3, 0.3)
    with pytest.raises(InvariantViolation, match=r"s=-2\.54.* and s=-0\.77"):
        trace_on_lambda(traj, dom)


def test_trace_rejects_corner_crossing():
    fl = burgers_flux()
    # shock x = 0.075 + t/2 passes exactly through the corner (0.2, 0.25)
    traj = evolve(state_from_data(fl, [0.075], [1.0, 0.0]), fl, 1.5)
    dom = TrapezoidDomain(t1=0.25, t2=1.25, delta=0.2, lambda_hat=0.25)
    with pytest.raises(ClawError):
        trace_on_lambda(traj, dom)


def test_trace_rejects_event_at_t1_and_short_span():
    fl = burgers_flux(2.0)
    state = state_from_data(fl, [0.0, 1.0], [2.0, 1.0, 0.0])
    traj = evolve(state, fl, 2.0)  # merge event at t = 1
    with pytest.raises(ClawError):
        trace_on_lambda(traj, TrapezoidDomain(1.0, 1.5, 0.3, 0.1))
    with pytest.raises(FluxRangeError):
        trace_on_lambda(traj, TrapezoidDomain(0.5, 2.5, 0.3, 0.1))


def test_splice_is_identity_on_entropic_data():
    fl = burgers_flux(2.0)
    state = state_from_data(fl, [0.0, 1.0], [2.0, 1.0, 0.0])
    traj = evolve(state, fl, 2.0)
    dom = TrapezoidDomain(t1=0.3, t2=1.9, delta=0.8, lambda_hat=0.15)
    spliced = trapezoid_splice(traj, dom)
    assert spliced.mode == "spliced"
    win = Window(0.0, 1.9)
    assert total_ep(spliced, win).total == pytest.approx(
        total_ep(traj, win).total, abs=1e-12
    )
    xs = np.linspace(-1.0, 3.5, 601)
    for t in (0.7, 1.3, 1.85):  # away from the merge instant
        assert np.array_equal(spliced.sample(t, xs), traj.sample(t, xs))


def test_splice_replaces_interior_expansion_shock():
    fl = burgers_flux()
    traj = evolve(state_from_data(fl, [0.0], [0.0, 1.0]), fl, 1.0, mode="as_given")
    du = 0.05
    dom = TrapezoidDomain(t1=0.25, t2=1.0, delta=0.3, lambda_hat=0.24)
    spliced = trapezoid_splice(traj, dom, rarefaction_step=du)
    win = Window(0.0, 1.0)
    before = total_ep(traj, win).total
    after = total_ep(spliced, win).total
    assert before == pytest.approx(1.0 / 12.0)
    # only the pre-t1 stretch of the expansion shock plus staircase dust is left
    staircase = 20 * du**3 / 12.0 * 0.75
    assert after == pytest.approx(0.25 / 12.0, abs=staircase + 1e-12)
    assert after < before
    assert trajectory_max_residual(spliced) <= WEAK_TOL
    # the expansion shock is gone: only staircase-sized ascents remain
    st = spliced.state_at(1.0)
    assert float(np.max(np.diff(st.states))) <= du + 1e-12


def test_splice_handles_laterally_entering_expansion_shock():
    fl = burgers_flux(2.0)
    traj = evolve(state_from_data(fl, [-1.0], [1.0, 2.0]), fl, 1.5, mode="as_given")
    du = 0.05
    dom = TrapezoidDomain(t1=0.25, t2=1.25, delta=0.2, lambda_hat=0.2)
    spliced = trapezoid_splice(traj, dom, rarefaction_step=du)
    assert any(e.kind == "uncover" for e in spliced.events)
    assert trajectory_max_residual(spliced) <= WEAK_TOL
    win = Window(0.0, 1.25)
    assert total_ep(spliced, win).total < total_ep(traj, win).total
    # outside the domain the original expansion shock survives untouched
    t_probe = 0.5
    edge = float(dom.theta_minus(t_probe))
    xs_out = np.linspace(edge - 0.6, edge - 0.01, 50)
    assert np.array_equal(spliced.sample(t_probe, xs_out), traj.sample(t_probe, xs_out))


def test_splice_refuses_composite_ids_past_the_int32_limit():
    """The expansion shock's id 2**31 - 10 puts the re-solve's id offset at
    2**31 - 9, and its staircase has 20 fragments, ids 0 to 19: composite
    ids pass 2**31 - 1, and the splice refuses them by name, not wrapped."""
    fl = burgers_flux()
    state = front_state(fl, 0.0, [0.0], [0.0, 1.0], front_ids=[2**31 - 10])
    traj = evolve(state, fl, 1.0, mode="as_given")
    assert traj.snapshots[-1].front_ids.tolist() == [2**31 - 10]
    dom = TrapezoidDomain(t1=0.25, t2=1.0, delta=0.3, lambda_hat=0.24)
    with pytest.raises(InvariantViolation, match="outside the int32 range"):
        trapezoid_splice(traj, dom, rarefaction_step=0.05)


def test_splice_keeps_kinds_admissible_inside_and_verbatim_outside():
    """The data of test_splice_handles_laterally_entering_expansion_shock:
    inside the domain only admissible kinds live; outside it the original
    expansion shock keeps its position, id and kind until it enters."""
    fl = burgers_flux(2.0)
    traj = evolve(state_from_data(fl, [-1.0], [1.0, 2.0]), fl, 1.5, mode="as_given")
    dom = TrapezoidDomain(t1=0.25, t2=1.25, delta=0.2, lambda_hat=0.2)
    spliced = trapezoid_splice(traj, dom, rarefaction_step=0.05)
    inside = 0
    for snap in spliced.snapshots:
        if not dom.t1 < snap.time <= dom.t2:
            continue
        lo = float(dom.theta_minus(snap.time)) + 1e-9
        hi = float(dom.theta_plus(snap.time)) - 1e-9
        for x, kind in zip(snap.positions.tolist(), snap.kinds):
            if lo < x < hi:
                inside += 1
                assert kind in ("entropic_shock", "rarefaction_fragment")
    assert inside > 0
    t_enter = min(e.time for e in spliced.events if e.kind == "uncover")
    before = [s for s in spliced.snapshots if s.time < t_enter]
    assert [s.time for s in before] == [0.0, dom.t1]
    for snap in before:
        orig = traj.state_at(snap.time)
        assert orig.kinds == ("expansion_shock",)
        assert snap.kinds == orig.kinds
        assert np.array_equal(snap.positions, orig.positions)
        assert np.array_equal(snap.front_ids, orig.front_ids)


def test_splice_ep_monotone_on_windows_containing_gamma():
    fl = burgers_flux()
    state = state_from_data(fl, [-0.4, 0.4], [0.0, 1.0, 0.0])
    traj = evolve(state, fl, 1.2, mode="as_given")
    dom = TrapezoidDomain(t1=0.2, t2=1.2, delta=0.6, lambda_hat=0.24)
    spliced = trapezoid_splice(traj, dom, rarefaction_step=0.02)
    for win in (
        Window(0.0, 1.2),
        Window(0.1, 1.2),
        Window(0.0, 1.2, x_lo=-3.0, x_hi=5.0),
    ):
        assert total_ep(spliced, win).total <= total_ep(traj, win).total + 1e-8


def test_splice_seams_are_continuous_across_lambda():
    fl = burgers_flux()
    state = state_from_data(fl, [-0.4, 0.4], [0.0, 1.0, 0.0])
    traj = evolve(state, fl, 1.2, mode="as_given")
    dom = TrapezoidDomain(t1=0.2, t2=1.2, delta=0.6, lambda_hat=0.24)
    spliced = trapezoid_splice(traj, dom, rarefaction_step=0.02)
    for t in (0.5, 0.9, 1.1):
        bl = float(dom.theta_minus(t))
        br = float(dom.theta_plus(t))
        st = spliced.state_at(t)
        # no front sits on the boundary itself, values match across it
        for edge in (bl, br):
            assert st.value_at(edge - 1e-10) == pytest.approx(
                float(traj.state_at(t).value_at(edge - 1e-10)), abs=1e-9
            )


@pytest.mark.parametrize(
    "t1, t2, delta",
    [(0.0, 1.0, np.nan), (0.0, 1.0, np.inf), (np.nan, 1.0, 0.1), (0.0, np.inf, 0.1)],
)
def test_domain_rejects_non_finite_edges(t1, t2, delta):
    with pytest.raises(FluxRangeError):
        TrapezoidDomain(t1=t1, t2=t2, delta=delta, lambda_hat=0.5)
