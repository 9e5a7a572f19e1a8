"""Entropy production: defect densities, rates, functionals, ledgers."""

import math
import struct
from dataclasses import astuple

import numpy as np
import pytest

from clawlab import (
    EntropyPair,
    TrapezoidDomain,
    Window,
    burgers_flux,
    check_e_condition_fan,
    check_e_condition_samples,
    check_e_condition_state,
    chord_slope,
    combined_entropy_P,
    cosh_flux,
    delta_density,
    delta_density_chord,
    entropy_rate_Hdot,
    equal_split_family,
    evolve,
    front_state,
    fan_ep_rate,
    get_scenario,
    jump_abs_ep_rate_kinetic,
    jump_ep_rate,
    jump_ep_rate_kinetic,
    kinetic_density,
    kruzhkov_pair,
    make_flux,
    non_entropic_family,
    poly4_flux,
    quadratic_pair,
    random_family_member,
    solve_riemann,
    state_from_data,
    total_ep,
    total_ep_delta_h1,
    total_ep_kinetic,
    validate_pair,
)
from clawlab.errors import FluxRangeError
from clawlab.fluxes import chord_slopes
from clawlab.quadrature import gauss_panels
from clawlab.riemann import EXPANSION_SHOCK, RAREFACTION

ALL_FLUXES = [burgers_flux(2.0), cosh_flux(2.0), poly4_flux(2.0)]


def _random_pairs(rng, r, n):
    pairs = rng.uniform(-r, r, size=(n, 2))
    return pairs[np.abs(pairs[:, 0] - pairs[:, 1]) > 1e-6]


# ---------------------------------------------------------------------------
# jump-local rates


def test_burgers_rate_closed_form():
    fl = burgers_flux(2.0)
    rng = np.random.default_rng(17)
    for a, b in _random_pairs(rng, 2.0, 60):
        assert jump_ep_rate(fl, a, b) == pytest.approx((a - b) ** 3 / 12.0, abs=1e-13)


def test_rate_sign_follows_orientation():
    rng = np.random.default_rng(2)
    for flux in ALL_FLUXES:
        assert jump_ep_rate(flux, 0.4, 0.4) == 0.0
        for a, b in _random_pairs(rng, flux.domain_radius, 40):
            d = jump_ep_rate(flux, a, b)
            assert (d > 0) == (a > b)


@pytest.mark.parametrize("flux", ALL_FLUXES, ids=lambda fl: fl.name)
def test_kinetic_quadrature_matches_closed_form(flux):
    rng = np.random.default_rng(31)
    for a, b in _random_pairs(rng, flux.domain_radius, 25):
        d = jump_ep_rate(flux, a, b)
        assert jump_ep_rate_kinetic(flux, a, b) == pytest.approx(d, abs=1e-10)
        assert jump_abs_ep_rate_kinetic(flux, a, b) == pytest.approx(
            abs(d), abs=1e-10
        )


@pytest.mark.parametrize("flux", ALL_FLUXES, ids=lambda fl: fl.name)
def test_kinetic_density_support_and_sign(flux, chebyshev_levels):
    rng = np.random.default_rng(8)
    for a, b in _random_pairs(rng, flux.domain_radius, 40):
        lo, hi = min(a, b), max(a, b)
        inside, outside = chebyshev_levels(lo, hi, 33)
        k_in = kinetic_density(flux, a, b, inside)
        assert np.all(np.abs(kinetic_density(flux, a, b, outside)) <= 1e-14)
        if a > b:
            assert np.all(k_in >= 0.0)
        else:
            assert np.all(k_in <= 0.0)
        # endpoints carry no defect
        assert kinetic_density(flux, a, b, lo) == pytest.approx(0.0, abs=1e-14)
        assert kinetic_density(flux, a, b, hi) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("flux", ALL_FLUXES, ids=lambda fl: fl.name)
def test_kinetic_density_is_chord_gap(flux):
    # independent geometry oracle: k(a) is the gap between the secant of f
    # over the jump interval and f itself, for a inside the interval.
    rng = np.random.default_rng(12)
    for a, b in _random_pairs(rng, flux.domain_radius, 20):
        lo, hi = min(a, b), max(a, b)
        sigma = chord_slope(flux, a, b)
        f_lo = float(np.asarray(flux.f(lo)))
        for lvl in np.linspace(lo, hi, 9)[1:-1]:
            secant = f_lo + sigma * (lvl - lo)
            gap = secant - float(np.asarray(flux.f(lvl)))
            want = gap if a > b else -gap
            assert kinetic_density(flux, a, b, float(lvl)) == pytest.approx(
                want, abs=1e-12
            )


def test_delta_density_values_and_symmetry():
    fl = burgers_flux()
    assert delta_density(fl, 1.0, 0.0) == pytest.approx(1.0 / (6.0 * np.sqrt(5.0)))
    assert delta_density_chord(fl, 1.0, 0.0) == pytest.approx(
        5.0 / (6.0 * np.sqrt(5.0))
    )
    rng = np.random.default_rng(3)
    for flux in ALL_FLUXES:
        for a, b in _random_pairs(rng, flux.domain_radius, 15):
            assert delta_density(flux, a, b) == pytest.approx(
                delta_density(flux, b, a), abs=1e-14
            )
            sigma = chord_slope(flux, a, b)
            assert delta_density(flux, a, b) * np.hypot(1.0, sigma) == pytest.approx(
                abs(jump_ep_rate(flux, a, b)), abs=1e-13
            )
        assert delta_density(flux, 0.5, 0.5) == 0.0
        assert delta_density_chord(flux, 0.5, 0.5) == 0.0


# ---------------------------------------------------------------------------
# entropy pairs and fan functionals


@pytest.mark.parametrize("flux", ALL_FLUXES, ids=lambda fl: fl.name)
def test_standard_pairs_are_compatible(flux):
    validate_pair(quadratic_pair(flux), flux)
    for a in (-1.0, 0.0, 0.7):
        validate_pair(kruzhkov_pair(flux, a), flux)


def test_validate_pair_rejects_mismatched_flux():
    fl = burgers_flux()
    broken = EntropyPair(
        "broken",
        eta=lambda u: 0.5 * np.asarray(u) ** 2,
        xi=lambda u: np.asarray(u) ** 2,  # wrong: should be u^3/3
    )
    with pytest.raises(FluxRangeError):
        validate_pair(broken, fl)


def test_combined_P_is_minus_rate_sum_for_quadratic_pair():
    rng = np.random.default_rng(21)
    for flux in ALL_FLUXES:
        pair = quadratic_pair(flux)
        for _ in range(15):
            fan = random_family_member(rng, flux, -0.7, 0.9)
            signed = sum(
                jump_ep_rate(flux, w.u_minus, w.u_plus)
                for w in fan.waves
                if hasattr(w, "sigma")
            )
            assert combined_entropy_P(fan, pair) == pytest.approx(-signed, abs=1e-12)


def test_hdot_worked_value_and_offset():
    fl = burgers_flux()
    pair = quadratic_pair(fl)
    entropic = solve_riemann(fl, -1.0, 1.0)
    # G(u) = u^3/3, so the boundary imbalance alone gives -2/3
    assert entropy_rate_Hdot(entropic, pair) == pytest.approx(-2.0 / 3.0)
    competitor = equal_split_family(fl, -1.0, 1.0, 0)
    assert entropy_rate_Hdot(competitor, pair) == pytest.approx(0.0, abs=1e-14)
    # Hdot - P is the same data-only constant for both fans
    off_e = entropy_rate_Hdot(entropic, pair) - combined_entropy_P(entropic, pair)
    off_c = entropy_rate_Hdot(competitor, pair) - combined_entropy_P(competitor, pair)
    assert off_e == pytest.approx(off_c, abs=1e-14)


def test_kruzhkov_P_recovers_kinetic_density():
    # [xi] - sigma [eta] at level a over one shock equals -k(a)
    rng = np.random.default_rng(14)
    for flux in ALL_FLUXES:
        for a, b in _random_pairs(rng, 0.8 * flux.domain_radius, 10):
            fan_waves = solve_riemann(flux, max(a, b), min(a, b))
            for lvl in np.linspace(min(a, b), max(a, b), 7):
                p = combined_entropy_P(fan_waves, kruzhkov_pair(flux, float(lvl)))
                k = kinetic_density(flux, max(a, b), min(a, b), float(lvl))
                assert p == pytest.approx(-k, abs=1e-12)


def test_fan_ep_rate_staircase_decay():
    # n equal expansion shocks dissipate (du)^3 / (12 (n+1)^2): quadratic decay
    fl = burgers_flux()
    du = 2.0
    for n in range(0, 6):
        fan = equal_split_family(fl, -1.0, 1.0, n)
        want = du**3 / (12.0 * (n + 1) ** 2)
        assert fan_ep_rate(fan) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# admissibility checks


def test_chebyshev_levels_layout(chebyshev_levels):
    inside, outside = chebyshev_levels(-0.5, 1.5, 17, margin=1e-4)
    assert inside.size == 17
    assert np.all(np.diff(inside) > 0)
    assert np.all((inside > -0.5) & (inside < 1.5))
    assert outside[0] == pytest.approx(-0.5001)
    assert outside[1] == pytest.approx(1.5001)


def test_econd_samples_refuse_a_nan_and_unequal_lengths():
    # without the NaN the pair (0, 2) violates the condition by 3; with it
    # the check once held with worst_excess 0.0, and extra values were ignored
    assert check_e_condition_samples([0, 2], [0, 5], 1, 1).worst_excess == 3.0
    with pytest.raises(FluxRangeError, match=r"us\[1\] = nan is not finite"):
        check_e_condition_samples([0, 1, 2], [0, np.nan, 5], 1, 1)
    for xs, us in (([0.0], [0, 5, 1]), ([0, 1, 2], [0, 1])):
        with pytest.raises(FluxRangeError, match=r"need len\(xs\) == len\(us\)"):
            check_e_condition_samples(xs, us, 1, 1)


def test_econd_samples_brute_oracle():
    rng = np.random.default_rng(77)
    t, c = 0.8, 1.0
    for _ in range(20):
        xs = np.sort(rng.uniform(-2, 2, size=12))
        us = rng.uniform(-1, 1, size=12)
        rep = check_e_condition_samples(xs, us, t, c)
        brute = max(
            us[j] - us[i] - (xs[j] - xs[i]) / (c * t)
            for i in range(12)
            for j in range(i + 1, 12)
        )
        assert rep.worst_excess == pytest.approx(max(brute, 0.0), abs=1e-12)
        assert rep.holds == (brute <= 1e-15)


def test_econd_fan_entropic_passes_non_entropic_fails():
    fl = burgers_flux()
    t = 2.0
    raref = solve_riemann(fl, -1.0, 1.0)
    assert check_e_condition_fan(raref, t).holds
    shock = solve_riemann(fl, 1.0, -1.0)
    assert check_e_condition_fan(shock, t).holds
    bad = non_entropic_family(fl, -1.0, 1.0, [0.0], [EXPANSION_SHOCK, RAREFACTION])
    rep = check_e_condition_fan(bad, t)
    assert not rep.holds
    assert rep.worst_excess == pytest.approx(1.0, abs=1e-9)  # the (−1, 0) jump
    assert check_e_condition_fan(bad, t, slack=1.1).holds


def test_econd_state_slack_threshold():
    fl = burgers_flux()
    state = state_from_data(fl, [0.0], [0.0, 0.25], time=1.0)
    assert not check_e_condition_state(state, 1.0, slack=0.2).holds
    assert check_e_condition_state(state, 1.0, slack=0.3).holds


def test_econd_state_reports_the_first_of_equal_worst_jumps():
    """Two ascending jumps of one height, apart and coincident: the report
    names the first front, with its excess to the bit."""
    fl = burgers_flux()
    for x0, x1 in ((-0.5, 0.0), (0.0, 0.5), (0.0, 0.0)):
        state = front_state(fl, 1.0, [x0, x1], [0.0, 0.25, 0.5])
        rep = check_e_condition_state(state, 1.0)
        assert astuple(rep) == (False, 0.25, (x0, x0), 0.0)


def test_econd_needs_positive_time():
    with pytest.raises(FluxRangeError):
        check_e_condition_samples([0.0, 1.0], [0.0, 0.0], 0.0, 1.0)


@pytest.mark.parametrize(
    "t, c, slack, name",
    [(np.nan, 1.0, 0.0, "t > 0"), (np.inf, 1.0, 0.0, "t > 0"), (-1.0, 1.0, 0.0, "t > 0"),
     (1.0, np.nan, 0.0, "c > 0"), (1.0, 0.0, 0.0, "c > 0"), (1.0, -1.0, 0.0, "c > 0"),
     (1.0, np.inf, 0.0, "c > 0"), (1.0, 1.0, np.nan, "slack"), (1.0, 1.0, np.inf, "slack")],
)
def test_econd_rejects_non_finite_parameters(t, c, slack, name):
    """A NaN t passed the old t <= 0 guard and reported holds=True on data
    that fail at t = 1; all three checks share the one rule."""
    assert not check_e_condition_samples([0.0, 1e-9], [0.0, 1.0], 1.0, 1.0).holds
    fl = burgers_flux()
    with pytest.raises(FluxRangeError, match=name):
        check_e_condition_samples([0.0, 1e-9], [0.0, 1.0], t, c, slack)
    with pytest.raises(FluxRangeError, match=name):
        check_e_condition_fan(solve_riemann(fl, 1.0, -1.0), t, c, slack)
    if t == 1.0:
        state = state_from_data(fl, [0.0], [0.0, 0.25], time=1.0)
        with pytest.raises(FluxRangeError, match=name):
            check_e_condition_state(state, c, slack)


@pytest.mark.parametrize("a", [np.nan, np.inf, -np.inf])
def test_kruzhkov_pair_rejects_non_finite_level(a):
    with pytest.raises(FluxRangeError, match="level a"):
        kruzhkov_pair(burgers_flux(), a)


# ---------------------------------------------------------------------------
# windows and ledgers


def clip(dom, t_a, t_b, x_a, sigma):
    """The times one front spends inside dom, as two floats."""
    return tuple(map(float, dom.clip(t_a, t_b, x_a, sigma)))


def test_clip_front_brute_indicator():
    rng = np.random.default_rng(55)
    win = Window(t_lo=0.2, t_hi=1.7, x_lo=-0.4, x_hi=0.9)
    ts = np.linspace(0.0, 2.0, 4001)
    for _ in range(40):
        t_a = float(rng.uniform(0.0, 1.5))
        t_b = t_a + float(rng.uniform(0.01, 0.5))
        x_a = float(rng.uniform(-1.0, 1.0))
        sigma = float(rng.uniform(-2.0, 2.0))
        lo, hi = clip(win, t_a, t_b, x_a, sigma)
        mask = (ts >= t_a) & (ts <= t_b) & (ts >= win.t_lo) & (ts <= win.t_hi)
        x = x_a + sigma * (ts - t_a)
        mask &= (x >= win.x_lo) & (x <= win.x_hi)
        measured = float(np.sum(mask)) * (ts[1] - ts[0])
        assert max(hi - lo, 0.0) == pytest.approx(measured, abs=2e-3)


def test_two_shock_merge_ledger_worked_values():
    sc = get_scenario("two_shock_merge")
    fl = sc.make_flux()
    traj = evolve(sc.initial_state(fl), fl, sc.t_end)
    full = total_ep(traj, Window(0.0, 2.0))
    assert full.total_abs == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert full.total_signed == pytest.approx(5.0 / 6.0, abs=1e-12)
    # before the merge two unit shocks burn 1/12 each per unit time
    assert total_ep(traj, Window(0.0, 1.0)).total == pytest.approx(1.0 / 6.0)
    assert total_ep(traj, Window(1.0, 2.0)).total == pytest.approx(2.0 / 3.0)
    # x-window: the fast front x = 1.5 t crosses [0.25, 0.375] for t in [1/6, 1/4]
    part = total_ep(traj, Window(0.0, 1.0, x_lo=0.25, x_hi=0.375))
    rows = [r for r in part.rows if r.u_minus == 2.0]
    assert len(rows) == 1
    assert rows[0].t_start == pytest.approx(1.0 / 6.0)
    assert rows[0].t_end == pytest.approx(0.25)


def test_ledger_triple_agreement_with_expansion_shocks():
    # non-entropic evolution: |D| ledger vs kinetic quadrature vs delta * H^1
    fl = burgers_flux()
    state = state_from_data(fl, [-0.5, 0.5], [0.0, 1.0, 0.0])
    traj = evolve(state, fl, 1.0, mode="as_given")
    win = Window(0.0, 1.0)
    ledger = total_ep(traj, win)
    assert ledger.total_abs == pytest.approx(total_ep_kinetic(traj, win), abs=1e-9)
    assert ledger.total_abs == pytest.approx(total_ep_delta_h1(traj, win), abs=1e-12)
    # the two parallel unit jumps cancel in the signed total but not in |D|
    assert ledger.total_signed == pytest.approx(0.0, abs=1e-15)
    assert ledger.total_abs == pytest.approx(1.0 / 6.0, abs=1e-12)
    # a lone ascending jump keeps the negative sign
    lone = evolve(state_from_data(fl, [0.0], [0.0, 1.0]), fl, 1.0, mode="as_given")
    assert total_ep(lone, win).total_signed == pytest.approx(-1.0 / 12.0)


def test_staircase_ep_vanishes_quadratically_in_delta_u():
    fl = burgers_flux()
    totals = []
    steps = [0.2, 0.1, 0.05, 0.025]
    for du in steps:
        state = state_from_data(fl, [0.0], [-1.0, 1.0])
        traj = evolve(state, fl, 1.0, mode="entropic", rarefaction_step=du)
        totals.append(total_ep(traj, Window(0.0, 1.0)).total_abs)
    totals = np.asarray(totals)
    orders = np.log2(totals[:-1] / totals[1:])
    assert np.all(orders > 1.9)


# ---------------------------------------------------------------------------
# array ledgers against a per-row reference
#
# The reference below is the scalar clip, rate and density code the array
# ledgers replaced, kept literally: the ledgers must reproduce it bit for bit.


def _ref_clip_front(win, t_a, t_b, x_a, sigma):
    lo = max(t_a, win.t_lo)
    hi = min(t_b, win.t_hi)
    for bound, side in ((win.x_lo, +1.0), (win.x_hi, -1.0)):
        if not np.isfinite(bound):
            continue
        # side * (x(t) - bound) >= 0
        alpha = side * sigma
        beta = side * (x_a - sigma * t_a - bound)
        if abs(alpha) < 1e-300:
            if beta < 0.0:
                return (1.0, 0.0)
            continue
        root = -beta / alpha
        if alpha > 0.0:
            lo = max(lo, root)
        else:
            hi = min(hi, root)
    return (lo, hi)


def _ref_jump_ep_rate(flux, u_minus, u_plus):
    if u_minus == u_plus:
        return 0.0
    F = flux.antiderivative_F
    fm = float(np.asarray(flux.f(u_minus)))
    fp = float(np.asarray(flux.f(u_plus)))
    return (u_minus - u_plus) * 0.5 * (fm + fp) + float(
        np.asarray(F(u_plus))
    ) - float(np.asarray(F(u_minus)))


def _ref_h1_factor(flux, a, b):
    sigma = chord_slope(flux, a, b)
    return math.sqrt(1.0 + sigma * sigma)


def _ref_delta_density(flux, a, b):
    if a == b:
        return 0.0
    return abs(_ref_jump_ep_rate(flux, a, b)) / _ref_h1_factor(flux, a, b)


def _ref_kinetic_rates(flux, u_minus, u_plus, tol):
    um, up = np.atleast_1d(u_minus).astype(float), np.atleast_1d(u_plus).astype(float)
    jumps = um != up
    sigma = np.zeros(um.size)
    sigma[jumps] = chord_slopes(flux, um[jumps], up[jumps])

    def density(a, rows):
        lm, lp = np.minimum(um[rows, None, None], a), np.minimum(up[rows, None, None], a)
        return (flux.f(lp) - flux.f(lm)) - sigma[rows, None, None] * (lp - lm)

    return gauss_panels(density, np.minimum(um, up), np.abs(um - up), atol=tol, rtol=0.0)


def _ref_ledgers(traj, window):
    """(rows, total_signed, total_abs, kinetic, delta_h1)."""
    flux = traj.flux
    clipped = []
    for fid, t_b, t_d, x_b, sigma, um, up in traj.lifetimes():
        lo, hi = _ref_clip_front(window, t_b, t_d, x_b, sigma)
        if hi > lo:
            clipped.append((fid, um, up, sigma, lo, hi))
    rows, signed, absolute, via_delta = [], 0.0, 0.0, 0.0
    for fid, um, up, sigma, lo, hi in clipped:
        rate = _ref_jump_ep_rate(flux, um, up)
        delta = _ref_delta_density(flux, um, up)
        rows.append((fid, lo, hi, um, up, sigma, rate, abs(rate), delta))
        signed += rate * (hi - lo)
        absolute += abs(rate) * (hi - lo)
        via_delta += delta * ((hi - lo) * math.sqrt(1.0 + sigma * sigma))
    kinetic = 0.0
    if clipped:
        _, um, up, _, lo, hi = (np.array(col) for col in zip(*clipped))
        # sum() over this list, which adds left to right before Python 3.12
        for v in (_ref_kinetic_rates(flux, um, up, 1e-12)[1] * (hi - lo)).tolist():
            kinetic += v
    return rows, signed, absolute, kinetic, via_delta


def _bits(values):
    return [struct.pack("<d", v) if isinstance(v, float) else v for v in values]


LEDGER_WINDOWS = [
    Window(0.0, 1.0),
    Window(0.1, 0.9, x_lo=-1.0, x_hi=2.0),
    Window(0.25, 0.75, x_lo=-0.3, x_hi=0.4),
]


@pytest.mark.parametrize("flux", ALL_FLUXES, ids=lambda f: f.name)
@pytest.mark.parametrize("mode", ["entropic", "as_given"])
def test_array_ledgers_match_per_row_reference_bit_for_bit(flux, mode):
    rng = np.random.default_rng(2024)
    for _ in range(3):
        n = int(rng.integers(3, 7))
        xs = np.sort(rng.uniform(-1.0, 1.0, n))
        us = rng.uniform(-1.5, 1.5, n + 1)
        traj = evolve(state_from_data(flux, xs, us), flux, 1.0, mode=mode, rarefaction_step=0.1)
        for win in LEDGER_WINDOWS:
            rows, signed, absolute, kinetic, via_delta = _ref_ledgers(traj, win)
            ledger = total_ep(traj, win)
            assert [_bits(astuple(r)) for r in ledger.rows] == [_bits(r) for r in rows]
            got = [
                ledger.total_signed,
                ledger.total_abs,
                total_ep_kinetic(traj, win),
                total_ep_delta_h1(traj, win),
            ]
            assert _bits(got) == _bits([signed, absolute, kinetic, via_delta])


@pytest.mark.parametrize("flux", ALL_FLUXES, ids=lambda f: f.name)
def test_jump_functions_elementwise_equal_scalar_calls(flux):
    rng = np.random.default_rng(31)
    pairs = rng.uniform(-2.0, 2.0, size=(40, 2))
    pairs[::7, 1] = pairs[::7, 0]  # degenerate pairs in between
    a, b = pairs[:, 0].copy(), pairs[:, 1].copy()
    for fn in (jump_ep_rate, delta_density, delta_density_chord):
        scalar = [fn(flux, float(x), float(y)) for x, y in zip(a, b)]
        assert all(type(v) is float for v in scalar)
        assert _bits(fn(flux, a, b).tolist()) == _bits(scalar)
        assert _bits(fn(flux, a[::7], b[::7]).tolist()) == _bits([0.0] * a[::7].size)
    levels = np.linspace(-2.2, 2.2, 23)
    grid = kinetic_density(flux, a[:, None], b[:, None], levels)
    assert grid.shape == (a.size, levels.size)
    for i in range(a.size):
        row = kinetic_density(flux, float(a[i]), float(b[i]), levels)
        assert _bits(grid[i].tolist()) == _bits(row.tolist())
        point = kinetic_density(flux, float(a[i]), float(b[i]), float(levels[5]))
        assert type(point) is float and _bits([point]) == _bits([float(row[5])])
    assert not grid[::7].any()


def test_window_rejects_nan_and_inverted_edges():
    for edges in [
        (np.nan, 1.0),
        (0.0, np.nan),
        (0.0, 1.0, np.nan, 1.0),
        (0.0, 1.0, -1.0, np.nan),
        (1.0, 0.5),
        (0.0, 1.0, 0.5, -0.5),
    ]:
        with pytest.raises(FluxRangeError):
            Window(*edges)
    assert clip(Window(0.0, 1.0, -np.inf, np.inf), 0.0, 2.0, 5.0, 1.0) == (0.0, 1.0)
    assert clip(Window(0.5, 0.5), 0.0, 1.0, 0.0, 0.0) == (0.5, 0.5)


def test_front_along_an_edge_counts_as_inside():
    win = Window(0.0, 1.0, x_lo=0.5, x_hi=1.5)
    assert clip(win, 0.0, 2.0, 0.5, 0.0) == (0.0, 1.0)
    assert clip(win, 0.0, 2.0, 1.5, 0.0) == (0.0, 1.0)
    lo, hi = clip(win, 0.0, 2.0, 0.25, 0.0)
    assert lo >= hi
    # lateral edges x = +-(0.25 + 2 t) of a trapezoid with lambda_hat = 1/2
    dom = TrapezoidDomain(t1=0.0, t2=1.0, delta=0.25, lambda_hat=0.5)
    assert clip(dom, 0.0, 2.0, 0.25, 2.0) == (0.0, 1.0)
    assert clip(dom, 0.0, 2.0, -0.25, -2.0) == (0.0, 1.0)
    lo, hi = clip(dom, 0.0, 2.0, 0.3, 2.0)
    assert lo >= hi


def test_total_ep_over_trapezoid_matches_brute_indicator():
    fl = burgers_flux()
    dom = TrapezoidDomain(t1=0.2, t2=0.8, delta=0.3, lambda_hat=0.4)
    ts = np.linspace(0.0, 1.0, 20001)
    dt = ts[1] - ts[0]
    for seed in range(4):
        rng = np.random.default_rng(seed)
        xs = np.sort(rng.uniform(-1.0, 1.0, 5))
        us = rng.uniform(-1.0, 1.0, 6)
        traj = evolve(state_from_data(fl, xs, us), fl, 1.0, mode="as_given", rarefaction_step=0.1)
        ledger = total_ep(traj, dom)
        inside = {(r.front_id, r.u_minus, r.u_plus, r.sigma): r.t_end - r.t_start for r in ledger.rows}
        want = 0.0
        for fid, t_b, t_d, x_b, sigma, um, up in traj.lifetimes():
            x = x_b + sigma * (ts - t_b)
            mask = (ts >= t_b) & (ts < t_d) & (ts > dom.t1) & (ts < dom.t2)
            mask &= np.abs(x) < dom.theta_plus(ts)
            measured = float(np.sum(mask)) * dt
            assert inside.get((fid, um, up, sigma), 0.0) == pytest.approx(measured, abs=2 * dt)
            want += abs(jump_ep_rate(fl, um, up)) * measured
        assert len(ledger.rows) > 0
        assert ledger.total_abs == pytest.approx(want, abs=1e-4)
