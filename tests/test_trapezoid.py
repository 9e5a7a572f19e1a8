"""Trapezoid domains, boundary traces, and the entropic splice."""

import numpy as np
import pytest

from clawlab import (
    ClawError,
    TangencyError,
    TrapezoidDomain,
    Window,
    burgers_flux,
    evolve,
    lambda0,
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
