"""End-to-end acceptance runs, one per shipped guarantee.

Each test exercises one headline property at its published tolerance and
prints a single [PASS]/[FAIL] line (run pytest with -s to see them all).
The suite is slower than the module tests because the oracle-triangle
comparison evaluates the variational oracle thousands of times.
"""

import json

import numpy as np
import pytest

from clawlab import (
    TrapezoidDomain,
    Window,
    burgers_flux,
    check_e_condition_fan,
    check_e_condition_samples,
    check_e_condition_state,
    delta_density,
    delta_density_chord,
    entropy_rate_Hdot,
    evolve,
    family_sweep,
    fan_ep_rate,
    get_scenario,
    jump_abs_ep_rate_kinetic,
    jump_ep_rate,
    kinetic_density,
    l1_step_vs_fn,
    l1_steps,
    make_flux,
    potential_from_step,
    quadratic_pair,
    run_godunov,
    sample_oracle,
    state_from_data,
    total_ep,
    trajectory_max_residual,
    trapezoid_splice,
)
from clawlab.cli import main as cli_main
from clawlab.godunov import convergence_study


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def random_jump(rng, radius):
    while True:
        a, b = rng.uniform(-radius, radius, size=2)
        if abs(a - b) > 1e-3:
            return float(a), float(b)


def test_criterion_1_ep_dual_evaluation():
    """Kinetic-integral EP equals Dirac-density-times-length EP per jump."""
    rng = np.random.default_rng(101)
    worst = {}
    for name in ("burgers", "poly4", "cosh"):
        flux = make_flux(name, domain_radius=2.0)
        tol = 1e-8 if name == "cosh" else 1e-12
        errs = []
        for _ in range(100):
            a, b = random_jump(rng, 2.0)
            kin = jump_abs_ep_rate_kinetic(flux, a, b)
            sigma = (flux.f(a) - flux.f(b)) / (a - b)
            dh1 = delta_density(flux, a, b) * float(np.hypot(1.0, sigma))
            errs.append(abs(kin - dh1) / max(1.0, abs(kin)))
        worst[name] = (float(np.max(errs)), tol)
    ok = all(err <= tol for err, tol in worst.values())
    report(
        "criterion 1 dual EP evaluation",
        ok,
        ", ".join(f"{k} err {e:.2e} <= {t:.0e}" for k, (e, t) in worst.items()),
    )
    assert ok, worst


def test_criterion_2_burgers_closed_form():
    """jump_ep_rate is (a-b)^3/12 for the quadratic flux."""
    rng = np.random.default_rng(102)
    flux = burgers_flux(2.0)
    worst = 0.0
    for _ in range(100):
        a, b = random_jump(rng, 2.0)
        worst = max(worst, abs(jump_ep_rate(flux, a, b) - (a - b) ** 3 / 12.0))
    ok = worst <= 1e-12
    report("criterion 2 Burgers closed form", ok, f"max error {worst:.2e} <= 1e-12")
    assert ok, worst


def test_criterion_3_entropy_rate_selection():
    """The EP-rate minimizer over each family is the fan, at rate zero."""
    ok = True
    details = []
    for flux_name in ("burgers", "cosh"):
        for u_l, u_r in ((-1.0, 1.0), (-0.5, 1.5), (0.0, 2.0)):
            flux = make_flux(flux_name, domain_radius=max(abs(u_l), abs(u_r)))
            roster = family_sweep(flux, u_l, u_r, members=20, max_intermediates=5)
            pair = quadratic_pair(flux)
            rates = {label: fan_ep_rate(fan) for label, fan in roster}
            hdots = {label: entropy_rate_Hdot(fan, pair) for label, fan in roster}
            ok &= rates["entropic"] == 0.0
            for label, fan in roster:
                if label == "entropic":
                    continue
                gaps = [
                    abs(w.u_minus - w.u_plus)
                    for w in fan.waves
                    if "shock" in w.kind
                ]
                floor = min(gaps) ** 3 / 12.0 - 1e-10
                ok &= rates[label] >= floor
            by_rate = sorted(rates, key=rates.get)
            by_hdot = sorted(hdots, key=hdots.get)
            ok &= by_rate[0] == "entropic" and by_hdot[0] == "entropic"
            ok &= by_rate == by_hdot
            details.append(f"{flux_name}({u_l},{u_r})")
    report(
        "criterion 3 entropy-rate selection",
        ok,
        f"{len(details)} families x 20 members, minimizer entropic, rankings agree",
    )
    assert ok


def test_criterion_4_splice_monotonicity():
    """Spliced trajectories lose EP on every window containing the domain."""
    rng = np.random.default_rng(104)
    flux = burgers_flux(1.5)
    dom = TrapezoidDomain(t1=0.2, t2=1.0, delta=2.0, lambda_hat=0.2)
    ok = True
    worst_resid = 0.0
    min_drop = np.inf
    for _ in range(10):
        n = int(rng.integers(2, 5))
        xs = np.sort(rng.uniform(-1.0, 1.0, size=n))
        us = rng.uniform(-1.0, 1.0, size=n + 1)
        j = int(rng.integers(0, n))
        us[j + 1] = us[j] + float(rng.uniform(0.4, 0.5))  # plant an expansion
        us = np.clip(us, -1.5, 1.5)
        traj = evolve(
            state_from_data(flux, xs, us), flux, 1.0, mode="as_given", rarefaction_step=0.02
        )
        spliced = trapezoid_splice(traj, dom)
        resid = float(trajectory_max_residual(spliced))
        worst_resid = max(worst_resid, resid)
        ok &= resid <= 1e-7
        for win in (
            Window(0.0, 1.0),
            Window(0.1, 1.0),
            Window(0.0, 1.0, x_lo=-30.0, x_hi=30.0),
        ):
            before = total_ep(traj, win).total
            after = total_ep(spliced, win).total
            ok &= after < before
            min_drop = min(min_drop, before - after)
    report(
        "criterion 4 splice monotonicity",
        ok,
        f"10 trajectories, min EP drop {min_drop:.3e}, "
        f"worst weak residual {worst_resid:.2e} <= 1e-7",
    )
    assert ok


def test_criterion_5_e_condition_equivalence():
    """Entropic outputs pass the one-sided decay check, competitors fail."""
    ok = True
    du = 0.01
    for name in ("single_shock", "rarefaction_pair", "two_shock_merge",
                 "interior_expansion"):
        sc = get_scenario(name)
        flux = sc.make_flux()
        traj = evolve(sc.initial_state(flux), flux, sc.t_end, rarefaction_step=du)
        for t in (0.4 * sc.t_end, 0.85 * sc.t_end):
            rep = check_e_condition_state(
                traj.state_at(t), flux.ddf_lower_bound, slack=du
            )
            ok &= rep.holds
    flux = burgers_flux(1.0)
    cosh2 = make_flux("cosh", domain_radius=2.0)
    n_fail = 0
    for fl, (u_l, u_r) in ((flux, (-1.0, 1.0)), (cosh2, (0.0, 2.0))):
        for label, fan in family_sweep(fl, u_l, u_r, members=12):
            if label == "entropic":
                ok &= check_e_condition_fan(fan, 1.0, fl.ddf_lower_bound,
                                            slack=1e-9).holds
            else:
                rep = check_e_condition_fan(fan, 1.0, fl.ddf_lower_bound)
                ok &= not rep.holds
                n_fail += 1
    t = 0.7
    for xs, us in (([0.0], [1.0, 0.0]), ([-0.5, 0.5], [0.0, -0.5, 0.5])):
        data = potential_from_step(xs, us)
        fl = burgers_flux(1.0)
        grid = np.linspace(-2.0, 2.0, 161)
        vals = sample_oracle(data, fl, grid, t)
        rep = check_e_condition_samples(
            grid, vals, t, fl.ddf_lower_bound, slack=1e-6 / t
        )
        ok &= rep.holds
    report(
        "criterion 5 E-condition equivalence",
        ok,
        f"4 tracked scenarios pass, {n_fail} family competitors fail, "
        "variational oracle passes at slack 1e-6/t",
    )
    assert ok


def test_criterion_6_oracle_triangle():
    """Front tracking, Hopf-Lax, and Godunov agree pairwise in L1 at t=1."""
    ok = True
    details = []
    for name in ("single_shock", "rarefaction_pair", "two_shock_merge"):
        sc = get_scenario(name)
        flux = sc.make_flux()
        t = 1.0
        traj = evolve(sc.initial_state(flux), flux, sc.t_end, rarefaction_step=1e-3)
        fx, fv = traj.state_at(t).to_step()
        run = run_godunov(flux, sc.xs, sc.us, t, 1600)
        gx, gv = run.grid.to_step()
        data = potential_from_step(list(sc.xs), list(sc.us))
        speed = max(abs(float(flux.df(min(sc.us)))), abs(float(flux.df(max(sc.us)))))
        lo = min(sc.xs) - speed * t - 0.5
        hi = max(sc.xs) + speed * t + 0.5
        span = hi - lo

        def oracle_fn(pts, data=data, flux=flux, t=t):
            return sample_oracle(data, flux, pts, t)

        d_ft_g = l1_steps(fx, fv, gx, gv)
        d_ft_h = l1_step_vs_fn(fx, fv, oracle_fn, lo, hi, max_cell=span / 1200)
        d_g_h = l1_step_vs_fn(gx, gv, oracle_fn, lo, hi, max_cell=span / 1200)
        study = convergence_study(
            flux, sc.xs, sc.us, t, [200, 400, 800, 1600], traj
        )
        order = study["fitted_order"]
        scen_ok = (
            d_ft_g <= 5e-3 and d_ft_h <= 5e-3 and d_g_h <= 5e-3 and order >= 0.5
        )
        ok &= scen_ok
        details.append(
            f"{name}: ft-g {d_ft_g:.2e}, ft-hl {d_ft_h:.2e}, "
            f"g-hl {d_g_h:.2e}, order {order:.2f}"
        )
    report("criterion 6 oracle triangle", ok, "; ".join(details))
    assert ok, details


def test_criterion_7_kinetic_support_and_sign(chebyshev_levels):
    """kinetic_density lives on the jump interval with one sign."""
    rng = np.random.default_rng(107)
    fluxes = [make_flux(n, domain_radius=2.0) for n in ("burgers", "cosh", "poly4")]
    ok = True
    for i in range(1000):
        flux = fluxes[i % 3]
        a, b = random_jump(rng, 2.0)
        lo, hi = min(a, b), max(a, b)
        inside, outside = chebyshev_levels(lo, hi, n=17)
        k_in = np.asarray(kinetic_density(flux, a, b, inside))
        k_out = np.asarray(kinetic_density(flux, a, b, outside))
        sign = np.sign(a - b)
        ok &= bool(np.all(sign * k_in > 0.0))
        ok &= bool(np.all(k_out == 0.0))
        ok &= kinetic_density(flux, a, b, lo) == 0.0
        ok &= kinetic_density(flux, a, b, hi) == 0.0
    report(
        "criterion 7 kinetic support and sign",
        ok,
        "1000 jumps: zero outside the jump interval, sign(u_minus-u_plus) inside",
    )
    assert ok


def test_criterion_8_contraction_and_stability():
    """L1 distance between entropic evolutions and sup norms never grow.

    Shock-only evolutions are tracked exactly, so contraction holds to
    1e-9 through every merge. Fan-bearing data are tracked as a du-step
    staircase whose contraction defect scales like du^2; that pair is
    held to the discretization bound instead.
    """
    rng = np.random.default_rng(108)
    flux = burgers_flux(1.0)
    ok = True
    worst_growth = -np.inf
    for _ in range(8):
        n = int(rng.integers(2, 6))
        xs = np.sort(rng.uniform(-1.0, 1.0, size=n))
        us = np.concatenate(([1.0], np.sort(rng.uniform(-1.0, 1.0, size=n - 1))[::-1], [-1.0]))
        ys = np.sort(rng.uniform(-1.0, 1.0, size=n))
        vs = np.concatenate(([1.0], np.sort(rng.uniform(-1.0, 1.0, size=n - 1))[::-1], [-1.0]))
        ta = evolve(state_from_data(flux, xs, us), flux, 1.5)
        tb = evolve(state_from_data(flux, ys, vs), flux, 1.5)
        times = sorted({0.0, 0.3, 0.8, 1.2, 1.5}
                       | set(ta.event_times()) | set(tb.event_times()))
        dists = [
            l1_steps(*ta.state_at(t).to_step(), *tb.state_at(t).to_step()) for t in times
        ]
        growth = float(np.max(np.diff(dists))) if len(dists) > 1 else 0.0
        worst_growth = max(worst_growth, growth)
        ok &= growth <= 1e-9
        sup0 = np.max(np.abs(ta.state_at(0.0).states))
        ok &= all(np.max(np.abs(ta.state_at(t).states)) <= sup0 + 1e-12 for t in times)
    du = 0.005
    ta = evolve(state_from_data(flux, [-1.0, 0.0], [0.0, 1.0, 0.0]), flux, 1.0,
                rarefaction_step=du)
    tb = evolve(state_from_data(flux, [-0.8, 0.2], [0.0, 0.6, 0.0]), flux, 1.0,
                rarefaction_step=du)
    dists = [l1_steps(*ta.state_at(t).to_step(), *tb.state_at(t).to_step())
             for t in (0.0, 0.5, 1.0)]
    fan_growth = float(np.max(np.diff(dists)))
    ok &= fan_growth <= du * du
    run = run_godunov(flux, [-1.0, 0.0], [0.0, 1.0, 0.0], 1.0, 200)
    sups = [float(np.max(np.abs(g.u))) for g in (run.grid0, run.grid)]
    ok &= sups[1] <= sups[0] + 1e-12
    report(
        "criterion 8 contraction and stability",
        ok,
        f"8 shock-only pairs, worst L1 growth {worst_growth:.2e} <= 1e-9; "
        f"staircase pair growth {fan_growth:.2e} <= du^2; sup norms monotone",
    )
    assert ok


def test_criterion_9_delta_discrepancy_audit(tmp_path):
    """The two Dirac-weight conventions for Burgers (1,0) are both reported."""
    flux = burgers_flux(1.0)
    kin = delta_density(flux, 1.0, 0.0)
    chord = delta_density_chord(flux, 1.0, 0.0)
    ok = kin == pytest.approx(1.0 / (6.0 * np.sqrt(5.0)), abs=1e-12)
    ok &= chord == pytest.approx(5.0 / 12.0 * 2.0 / np.sqrt(5.0), abs=1e-12)
    out = tmp_path / "audit"
    code = cli_main(["delta-audit", "--out", str(out)])
    ok &= code == 0
    ok &= (out / "delta_audit.csv").exists()
    payload = json.loads((out / "delta_audit.json").read_text())
    ok &= payload["first_pair"]["delta_kinetic"] == pytest.approx(kin, abs=1e-12)
    ok &= payload["first_pair"]["delta_chord"] == pytest.approx(chord, abs=1e-12)
    report(
        "criterion 9 Dirac weight audit",
        bool(ok),
        f"kinetic {kin:.6f} vs secant-based {chord:.6f} (ratio {chord / kin:.1f}), "
        "report emitted",
    )
    assert ok
