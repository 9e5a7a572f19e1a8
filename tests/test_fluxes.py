"""Flux catalog: closed forms, inverses, conjugates, and their oracles."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from clawlab import (
    ClawError,
    FluxRangeError,
    DegenerateChordError,
    QuadratureError,
    Window,
    burgers_flux,
    chord_slope,
    chord_slopes,
    convex_conjugate,
    cosh_flux,
    evolve,
    fan_max_residual,
    front_state,
    inverse_derivative,
    jump_ep_rate,
    make_convex_flux,
    make_flux,
    poly4_flux,
    solve_riemann,
    state_from_data,
    total_ep,
    total_ep_kinetic,
    validate_flux,
)

ALL_FLUXES = [burgers_flux(2.0), cosh_flux(2.0), poly4_flux(2.0)]


@pytest.mark.parametrize("flux", ALL_FLUXES, ids=lambda fl: fl.name)
def test_catalog_self_consistency(flux):
    validate_flux(flux)


def test_make_flux_lookup():
    assert make_flux("burgers").name == "burgers"
    assert make_flux("cosh", 3.0).domain_radius == 3.0
    with pytest.raises(FluxRangeError):
        make_flux("squareroot")


def test_burgers_values():
    fl = burgers_flux()
    assert fl.f(2.0) == 2.0
    assert fl.df(-1.5) == -1.5
    assert fl.antiderivative_F(2.0) == pytest.approx(8.0 / 6.0, abs=1e-15)
    assert fl.antiderivative_G(2.0) == pytest.approx(8.0 / 3.0, abs=1e-15)
    assert inverse_derivative(fl, 0.7) == pytest.approx(0.7, abs=1e-15)
    assert convex_conjugate(fl, 0.8) == pytest.approx(0.32, abs=1e-14)


def test_cosh_inverse_derivative_closed_form():
    fl = cosh_flux()
    # f'(1) = sinh(1); inverting must land back on 1.
    assert inverse_derivative(fl, float(np.sinh(1.0))) == pytest.approx(1.0, abs=1e-12)
    assert inverse_derivative(fl, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_cosh_chord_value():
    fl = cosh_flux()
    assert chord_slope(fl, 1.0, 0.0) == pytest.approx(0.5430806348152437, abs=1e-15)
    assert chord_slope(fl, 1.0, 0.0) == pytest.approx(float(np.cosh(1.0) - 1.0))


def test_chord_degenerate_pair():
    with pytest.raises(DegenerateChordError):
        chord_slope(burgers_flux(), 0.3, 0.3)


def test_chord_band_enforcement():
    with pytest.raises(FluxRangeError):
        chord_slope(burgers_flux(2.0), 2.5, 0.0)


@pytest.mark.parametrize("flux", ALL_FLUXES, ids=lambda fl: fl.name)
def test_chord_slopes_match_the_scalar_formula_bit_for_bit(flux):
    rng = np.random.default_rng(29)
    r = flux.domain_radius
    a, b = rng.uniform(-r, r, size=(2, 2000))
    a[:5] = [r, -r, 0.0, 1e-300, 0.5]
    b[:5] = [-r, r, 1e-300, 0.0, np.nextafter(0.5, 1.0)]
    got = chord_slopes(flux, a, b)
    loop = [float((flux.f(x) - flux.f(y)) / (x - y)) for x, y in zip(a.tolist(), b.tolist())]
    assert np.array_equal(got, loop)
    assert np.array_equal(got, [chord_slope(flux, x, y) for x, y in zip(a, b)])
    assert chord_slopes(flux, [], []).shape == (0,)


def test_chord_slopes_errors_match_the_scalar_ones():
    fl = burgers_flux(2.0)
    with pytest.raises(DegenerateChordError, match=r"\(0\.3, 0\.3\)"):
        chord_slopes(fl, [0.1, 0.3], [0.2, 0.3])
    with pytest.raises(DegenerateChordError, match=r"\(0\.3, 0\.3\)"):
        chord_slope(fl, 0.3, 0.3)
    with pytest.raises(FluxRangeError, match="state 2.5 outside"):
        chord_slopes(fl, [0.1, 2.5], [0.0, 0.0])
    with pytest.raises(FluxRangeError, match="state -2.5 outside"):
        chord_slope(fl, 0.0, -2.5)
    # the degenerate pair is reported before the band
    with pytest.raises(DegenerateChordError):
        chord_slopes(fl, [2.5, 0.3], [0.0, 0.3])


@pytest.mark.parametrize("flux", ALL_FLUXES, ids=lambda fl: fl.name)
def test_inverse_derivative_roundtrip(flux):
    rng = np.random.default_rng(11)
    u = rng.uniform(-flux.domain_radius, flux.domain_radius, size=64)
    slopes = np.asarray(flux.df(u), dtype=float)
    back = inverse_derivative(flux, slopes)
    assert np.max(np.abs(np.asarray(flux.df(back)) - slopes)) <= 1e-11
    assert np.max(np.abs(back - u)) <= 1e-9


@pytest.mark.parametrize("flux", ALL_FLUXES, ids=lambda fl: fl.name)
def test_inverse_derivative_brute_oracle(flux):
    # Independent oracle: plain interval halving on f', no polish, no closed form.
    r = flux.domain_radius
    for target_u in (-1.7, -0.4, 0.0, 0.9, 1.99):
        slope = float(flux.df(target_u))
        lo, hi = -r, r
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(flux.df(mid)) < slope:
                lo = mid
            else:
                hi = mid
        assert inverse_derivative(flux, slope) == pytest.approx(
            0.5 * (lo + hi), abs=1e-10
        )


def test_inverse_derivative_range_error_names_interval():
    fl = cosh_flux(1.0)
    with pytest.raises(FluxRangeError) as err:
        inverse_derivative(fl, 10.0)
    msg = str(err.value)
    assert "admissible" in msg and "cosh" in msg


def test_cosh_conjugate_closed_form():
    # f*(p) = p arcsinh(p) - (sqrt(1 + p^2) - 1) for f = cosh - 1.
    fl = cosh_flux(3.0)
    for p in (-2.0, -0.3, 0.0, 1.0, 2.5):
        want = p * np.arcsinh(p) - (np.sqrt(1.0 + p * p) - 1.0)
        assert convex_conjugate(fl, p) == pytest.approx(float(want), abs=1e-12)
    assert convex_conjugate(fl, 1.0) == pytest.approx(0.4671600246464479, abs=1e-13)


@pytest.mark.parametrize("flux", ALL_FLUXES, ids=lambda fl: fl.name)
def test_conjugate_grid_supremum_oracle(flux):
    # Independent oracle: brute supremum of p u - f(u) over a dense grid.
    r = flux.domain_radius
    u = np.linspace(-r, r, 400001)
    f_u = np.asarray(flux.f(u), dtype=float)
    for p in (-1.2, 0.0, 0.45, 1.8):
        brute = float(np.max(p * u - f_u))
        assert convex_conjugate(flux, p) == pytest.approx(brute, abs=1e-8)


@pytest.mark.parametrize("flux", ALL_FLUXES, ids=lambda fl: fl.name)
def test_fenchel_young_inequality(flux):
    rng = np.random.default_rng(7)
    r = flux.domain_radius
    u = rng.uniform(-r, r, size=40)
    p = np.asarray(flux.df(rng.uniform(-r, r, size=40)), dtype=float)
    fstar = np.array([convex_conjugate(flux, float(pi)) for pi in p])
    gap = np.asarray(flux.f(u), dtype=float) + fstar - np.outer(u, p).diagonal()
    assert np.all(gap >= -1e-10)
    # Equality exactly when p = f'(u).
    tight = np.asarray(flux.f(u)) + np.array(
        [convex_conjugate(flux, float(s)) for s in np.asarray(flux.df(u))]
    ) - u * np.asarray(flux.df(u))
    assert np.max(np.abs(tight)) <= 1e-10


@pytest.mark.parametrize("flux", ALL_FLUXES, ids=lambda fl: fl.name)
def test_chord_between_endpoint_slopes(flux):
    rng = np.random.default_rng(3)
    r = flux.domain_radius
    for _ in range(50):
        a, b = np.sort(rng.uniform(-r, r, size=2))
        if b - a < 1e-9:
            continue
        s = chord_slope(flux, a, b)
        assert float(flux.df(a)) < s < float(flux.df(b))


@pytest.mark.parametrize("with_ddf", [True, False], ids=["ddf", "no_ddf"])
@pytest.mark.parametrize("maker", [cosh_flux, poly4_flux], ids=["cosh", "poly4"])
def test_quadrature_backed_antiderivatives_match_closed_forms(maker, with_ddf):
    # A user flux with nothing but f, f' (and maybe f''): F, G and the
    # inverse of f' come from the quadrature kernel, end to end.
    closed = maker(2.0)
    quad = make_convex_flux(
        closed.name + "-quadrature",
        f=closed.f,
        df=closed.df,
        ddf_lower_bound=1.0,
        domain_radius=2.0,
        ddf=closed.ddf if with_ddf else None,
    )
    u = np.linspace(-2.0, 2.0, 41)
    for anti in ("antiderivative_F", "antiderivative_G"):
        got, want = getattr(quad, anti)(u), getattr(closed, anti)(u)
        assert np.max(np.abs(got - want)) <= 1e-14
        assert [getattr(quad, anti)(float(v)) for v in u] == list(got)

    slopes = np.asarray(closed.df(u), dtype=float)
    arr = inverse_derivative(quad, slopes)
    assert np.array_equal(arr, [inverse_derivative(quad, float(p)) for p in slopes])
    assert np.max(np.abs(arr - u)) <= 1e-14

    for a, b in ((1.3, -0.4), (-1.7, 1.9), (0.2, 0.0)):
        assert abs(jump_ep_rate(quad, a, b) - jump_ep_rate(closed, a, b)) <= 1e-14
    validate_flux(quad)

    xs, us = [-1.0, -0.3, 0.4, 1.0], [0.0, 1.5, -0.5, 1.0, 0.0]
    window = Window(0.0, 1.0)
    trajs = [
        evolve(state_from_data(fl, xs, us), fl, 1.0, rarefaction_step=0.1)
        for fl in (quad, closed)
    ]
    assert abs(total_ep(trajs[0], window).total - total_ep(trajs[1], window).total) <= 1e-14
    assert abs(total_ep_kinetic(trajs[0], window) - total_ep_kinetic(trajs[1], window)) <= 1e-12
    assert fan_max_residual(solve_riemann(quad, -1.5, 1.8)) <= 1e-7


def test_rough_user_flux_fails_quadrature_as_a_claw_error():
    # f'' jumps at u = 0.5: F's integrand is C^1 and settles, G's is only C^0.
    fl = make_convex_flux(
        "kinked",
        f=lambda u: 0.5 * np.asarray(u) ** 2 + np.maximum(np.asarray(u) - 0.5, 0.0) ** 2,
        df=lambda u: np.asarray(u) + 2.0 * np.maximum(np.asarray(u) - 0.5, 0.0),
        ddf_lower_bound=1.0,
    )
    assert fl.antiderivative_F(0.7) == pytest.approx(0.7**3 / 6 + 0.2**3 / 3, abs=1e-14)
    with pytest.raises(ClawError) as err:
        fl.antiderivative_G(0.7)
    assert isinstance(err.value, QuadratureError)


@pytest.mark.parametrize("flux", ALL_FLUXES, ids=lambda fl: fl.name)
def test_nan_fails_every_band_check(flux):
    nan = float("nan")
    calls = [
        lambda: chord_slope(flux, nan, 0.0),
        lambda: chord_slopes(flux, [0.1, nan], [0.0, 0.0]),
        lambda: inverse_derivative(flux, nan),
        lambda: inverse_derivative(flux, np.array([0.0, nan])),
        lambda: solve_riemann(flux, 0.0, nan),
        lambda: front_state(flux, 0.0, [0.0, 1.0], [0.0, nan, 0.5]),
        lambda: replace(flux, domain_radius=nan),
        lambda: make_convex_flux("x", flux.f, flux.df, ddf_lower_bound=nan),
        lambda: make_convex_flux("x", flux.f, flux.df, 1.0, domain_radius=nan),
    ]
    for call in calls:
        with pytest.raises(FluxRangeError, match="nan"):
            call()


def test_poly4_inverse_without_closed_form():
    fl = poly4_flux(2.0)
    assert fl.inv_df is None
    # f'(1.2) = 1.2 + 1.2^3 / 3 = 1.776
    u = inverse_derivative(fl, 1.776)
    assert u == pytest.approx(1.2, abs=1e-10)
    arr = inverse_derivative(fl, np.array([0.0, 1.776, -1.776]))
    assert np.allclose(arr, [0.0, 1.2, -1.2], atol=1e-9)


def test_poly4_closed_forms_match_exact_rationals():
    # Each form adds two same-signed terms. A term carries at most five
    # roundings of relative size eps / 2 (u^5 as u^3 * u^2, then / 60) and
    # the sum one more, so the relative error stays below 3 eps + O(eps^2).
    fl = poly4_flux(2.0)
    grid = np.linspace(-fl.domain_radius, fl.domain_radius, 4001)
    grid = grid[grid != 0.0]
    exact = {
        "f": lambda q: q * q / 2 + q**4 / 12,
        "df": lambda q: q + q**3 / 3,
        "antiderivative_F": lambda q: q**3 / 6 + q**5 / 60,
        "antiderivative_G": lambda q: q**3 / 3 + q**5 / 15,
    }
    eps = np.finfo(float).eps
    for name, form in exact.items():
        got = getattr(fl, name)(grid)
        worst = 0.0
        for u, v in zip(grid.tolist(), got.tolist()):
            want = form(Fraction(u))
            worst = max(worst, float(abs(Fraction(v) - want) / abs(want)))
        assert worst <= 4 * eps, (name, worst / eps)


def test_replaced_radius_rescopes_band():
    fl = burgers_flux(1.0)
    with pytest.raises(FluxRangeError):
        inverse_derivative(fl, 1.5)
    wider = replace(fl, domain_radius=2.0)
    assert inverse_derivative(wider, 1.5) == pytest.approx(1.5)


def test_one_band_rule_for_snapshots_fans_and_chords():
    # front_state and solve_riemann used to stop at R + 1e-12, inside the
    # chord speeds' own band rule, so a state between the two was rejected
    # when a snapshot was built but accepted during a run
    fl = burgers_flux(1.0)
    for u, ok in ((1.0 + 1.5e-12, True), (1.0 + 3e-12, False)):
        calls = [
            lambda: chord_slope(fl, u, 0.0),
            lambda: solve_riemann(fl, u, 0.0),
            lambda: front_state(fl, 0.0, [0.0], [u, 0.0]),
        ]
        for call in calls:
            if ok:
                call()
            else:
                with pytest.raises(FluxRangeError, match=f"state {u} outside the admissible band"):
                    call()
