"""Riemann fans: the entropic solver, competitor families, serialization."""

import json

import numpy as np
import pytest

from clawlab import (
    FanOrderingError,
    FluxRangeError,
    Rarefaction,
    Shock,
    UnsupportedFamilyError,
    WaveFan,
    burgers_flux,
    cosh_flux,
    equal_split_family,
    evaluate_fan,
    family_sweep,
    fan_breakpoints,
    fan_from_dict,
    fan_to_dict,
    make_flux,
    non_entropic_family,
    poly4_flux,
    random_family_member,
    sample_fan,
    solve_riemann,
    validate_fan,
)
from clawlab.riemann import EXPANSION_SHOCK, RAREFACTION, fan_ordering_holds

ALL_FLUXES = [burgers_flux(2.0), cosh_flux(2.0), poly4_flux(2.0)]


def test_entropic_shock_burgers():
    fan = solve_riemann(burgers_flux(), 1.0, 0.0)
    assert fan.entropic_flag == "entropic"
    assert len(fan.waves) == 1
    w = fan.waves[0]
    assert isinstance(w, Shock)
    assert w.sigma == pytest.approx(0.5, abs=1e-15)
    assert w.kind == "entropic_shock"


def test_entropic_rarefaction_burgers():
    fan = solve_riemann(burgers_flux(), -1.0, 1.0)
    (w,) = fan.waves
    assert isinstance(w, Rarefaction)
    assert (w.omega_lo, w.omega_hi) == (-1.0, 1.0)
    # inside the fan the profile is the similarity variable itself
    omega = np.linspace(-0.9, 0.9, 7)
    assert np.allclose(evaluate_fan(fan, omega), omega, atol=1e-12)


def test_constant_data_has_no_waves():
    fan = solve_riemann(burgers_flux(), 0.3, 0.3)
    assert fan.waves == ()
    assert evaluate_fan(fan, 0.0) == 0.3


def test_solver_band_enforcement():
    with pytest.raises(FluxRangeError):
        solve_riemann(burgers_flux(1.0), 1.5, 0.0)


def test_evaluate_fan_left_limit_at_shock_speed():
    fan = solve_riemann(burgers_flux(), 1.0, 0.0)
    assert evaluate_fan(fan, 0.5) == 1.0
    assert evaluate_fan(fan, 0.5 + 1e-12) == 0.0


def test_sample_fan_closed_form_rarefaction():
    fan = solve_riemann(burgers_flux(), -1.0, 1.0)
    xs = np.linspace(-3.0, 3.0, 41)
    t = 2.0
    want = np.clip(xs / t, -1.0, 1.0)
    assert np.allclose(sample_fan(fan, t, xs), want, atol=1e-12)
    with pytest.raises(FluxRangeError):
        sample_fan(fan, 0.0, xs)


def test_validate_fan_rejects_wrong_shock_speed():
    fl = burgers_flux()
    bad = WaveFan(fl, 1.0, 0.0, (Shock(1.0, 0.0, 0.7),), "entropic")
    with pytest.raises(FluxRangeError):
        validate_fan(bad)


def test_validate_fan_rejects_broken_chain():
    fl = burgers_flux()
    bad = WaveFan(fl, 1.0, 0.0, (Shock(0.8, 0.0, 0.4),), "entropic")
    with pytest.raises(FanOrderingError):
        validate_fan(bad)


def test_validate_fan_rejects_regressing_supports():
    fl = burgers_flux()
    # two descending shocks: chords 1.5 then 0.5, supports regress
    bad = WaveFan(
        fl, 2.0, 0.0, (Shock(2.0, 1.0, 1.5), Shock(1.0, 0.0, 0.5)), "non-entropic"
    )
    with pytest.raises(FanOrderingError):
        validate_fan(bad)


def test_single_expansion_shock():
    fan = non_entropic_family(burgers_flux(), 0.0, 2.0, [], [EXPANSION_SHOCK])
    assert fan.entropic_flag == "non-entropic"
    (w,) = fan.waves
    assert w.kind == "expansion_shock"
    assert w.sigma == pytest.approx(1.0)


def test_mixed_segment_kinds_validate():
    fl = burgers_flux()
    fan = non_entropic_family(fl, 0.0, 2.0, [0.5], [RAREFACTION, EXPANSION_SHOCK])
    r, s = fan.waves
    assert isinstance(r, Rarefaction) and isinstance(s, Shock)
    assert r.support == (0.0, 0.5)
    assert s.sigma == pytest.approx(1.25)
    fan2 = non_entropic_family(fl, 0.0, 2.0, [0.5], [EXPANSION_SHOCK, RAREFACTION])
    assert fan2.waves[0].sigma == pytest.approx(0.25)


def test_family_refuses_descending_data():
    with pytest.raises(UnsupportedFamilyError):
        non_entropic_family(burgers_flux(), 1.0, -1.0, [], [EXPANSION_SHOCK])


def test_family_refuses_pure_rarefaction_chain():
    with pytest.raises(UnsupportedFamilyError):
        non_entropic_family(burgers_flux(), 0.0, 1.0, [0.5], [RAREFACTION, RAREFACTION])


def test_family_rejects_malformed_requests():
    fl = burgers_flux()
    with pytest.raises(UnsupportedFamilyError):
        non_entropic_family(fl, 0.0, 1.0, [0.6, 0.4], [EXPANSION_SHOCK] * 3)
    with pytest.raises(UnsupportedFamilyError):
        non_entropic_family(fl, 0.0, 1.0, [0.5], [EXPANSION_SHOCK])
    with pytest.raises(UnsupportedFamilyError):
        non_entropic_family(fl, 0.0, 1.0, [0.5], [EXPANSION_SHOCK, "implosion"])


def test_descending_splits_always_regress():
    # why descending data is refused: every random descending split fails
    # the support-ordering predicate for every catalog flux.
    rng = np.random.default_rng(23)
    for flux in ALL_FLUXES:
        r = flux.domain_radius
        for _ in range(60):
            hi, lo = np.sort(rng.uniform(-r, r, size=2))[::-1]
            if hi - lo < 1e-2:
                continue
            k = int(rng.integers(1, 4))
            mids = np.sort(rng.uniform(lo, hi, size=k))[::-1]
            states = [hi, *mids, lo]
            if np.min(-np.diff(states)) < 1e-6:
                continue
            kinds = [EXPANSION_SHOCK] * (k + 1)
            assert not fan_ordering_holds(flux, states, kinds)


def test_ascending_chains_always_order():
    rng = np.random.default_rng(5)
    for flux in ALL_FLUXES:
        r = flux.domain_radius
        for _ in range(40):
            fan = random_family_member(rng, flux, -0.8 * r, 0.9 * r)
            validate_fan(fan)
            assert any(isinstance(w, Shock) for w in fan.waves)


def test_equal_split_structure():
    fan = equal_split_family(burgers_flux(), -1.0, 1.0, 3)
    assert len(fan.waves) == 4
    assert all(w.kind == "expansion_shock" for w in fan.waves)
    states = [fan.waves[0].u_minus] + [w.u_plus for w in fan.waves]
    assert np.allclose(states, np.linspace(-1.0, 1.0, 5), atol=1e-15)


def test_rankine_hugoniot_exact_on_random_members():
    # every shock of every generated fan is a genuine weak solution jump
    rng = np.random.default_rng(40)
    for flux in ALL_FLUXES:
        r = flux.domain_radius
        for _ in range(25):
            fan = random_family_member(rng, flux, -0.7 * r, 0.8 * r)
            for w in fan.waves:
                if not isinstance(w, Shock):
                    continue
                jump_f = float(flux.f(w.u_minus)) - float(flux.f(w.u_plus))
                assert jump_f == pytest.approx(
                    w.sigma * (w.u_minus - w.u_plus), abs=1e-12
                )


def test_family_sweep_roster():
    fl = burgers_flux()
    roster = family_sweep(fl, -1.0, 1.0, members=10, max_intermediates=5, seed=4)
    labels = [label for label, _ in roster]
    assert labels[0] == "entropic"
    assert labels[1:7] == [f"equal_split_{n}" for n in range(6)]
    assert labels[7:] == ["random_0", "random_1", "random_2"]
    assert roster[0][1].entropic_flag == "entropic"
    assert all(fan.entropic_flag == "non-entropic" for _, fan in roster[1:])
    again = family_sweep(fl, -1.0, 1.0, members=10, max_intermediates=5, seed=4)
    for (la, fa), (lb, fb) in zip(roster, again):
        assert la == lb
        assert json.dumps(fan_to_dict(fa), sort_keys=True) == json.dumps(
            fan_to_dict(fb), sort_keys=True
        )
    with pytest.raises(UnsupportedFamilyError):
        family_sweep(fl, -1.0, 1.0, members=1)


def test_negative_intermediate_counts_are_refused_by_name():
    # rng.integers(0, 0) once raised numpy's "high <= 0" from the sweep
    fl = burgers_flux()
    with pytest.raises(UnsupportedFamilyError, match=r"^max_intermediates must be at least 0, got -1$"):
        family_sweep(fl, -1.0, 1.0, members=4, max_intermediates=-1)
    with pytest.raises(UnsupportedFamilyError, match=r"^max_intermediates must be at least 0, got -1$"):
        random_family_member(np.random.default_rng(0), fl, -1.0, 1.0, max_intermediates=-1)
    # once "1 segments but 0 wave kinds"
    with pytest.raises(UnsupportedFamilyError, match=r"^n_intermediates must be at least 0, got -1$"):
        equal_split_family(fl, -1.0, 1.0, -1)
    assert len(random_family_member(np.random.default_rng(0), fl, -1.0, 1.0, 0).waves) == 1


def test_serialization_roundtrip():
    rng = np.random.default_rng(9)
    fl = cosh_flux(2.0)
    for _ in range(20):
        fan = random_family_member(rng, fl, -1.2, 1.4)
        back = fan_from_dict(fl, json.loads(json.dumps(fan_to_dict(fan))))
        assert back.waves == fan.waves
        assert back.entropic_flag == fan.entropic_flag
        assert (back.left_state, back.right_state) == (fan.left_state, fan.right_state)


def test_breakpoints_ascend_and_bound_the_fan():
    fl = burgers_flux()
    fan = non_entropic_family(
        fl, -1.0, 1.0, [-0.2, 0.3], [RAREFACTION, EXPANSION_SHOCK, RAREFACTION]
    )
    pts = fan_breakpoints(fan)
    assert pts == sorted(pts)
    omega = np.array(pts)
    # outside the support hull the profile is constant
    assert evaluate_fan(fan, omega[0] - 0.5) == fan.left_state
    assert evaluate_fan(fan, omega[-1] + 0.5) == fan.right_state


def test_evaluate_fan_matches_segment_states_between_waves():
    fl = make_flux("poly4", 2.0)
    fan = non_entropic_family(fl, -1.0, 1.2, [0.1], [EXPANSION_SHOCK, EXPANSION_SHOCK])
    s0, s1 = fan.waves
    mid = 0.5 * (s0.sigma + s1.sigma)
    assert evaluate_fan(fan, mid) == pytest.approx(0.1)
