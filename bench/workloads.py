"""The four seeded workloads: case inputs, the clawlab calls a case makes, its checks.

Case ``s`` of a run with ``--seed n`` draws all its inputs from
``numpy.random.default_rng(POOL * n + s)``, so seeds n and n + 1 draw
disjoint streams and the splice workload reproduces the ROADMAP item 4
generator (``default_rng(base + s)`` with ``base = POOL * n``). Every call
into clawlab sits inside ``tr.span("<layer>.<function>")``; work counters
are taken from the objects the calls return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from clawlab import compare, entropy, fluxes, fronts, godunov, hopflax, riemann
from clawlab import trapezoid, weak
from clawlab.errors import InvariantViolation

POOL = 1000
FLUX_NAMES = ("burgers", "cosh", "poly4")

# ledger: the evolve + ep experiment
LEDGER_JUMPS = 3
LEDGER_DELTA_U = 0.1
LEDGER_MEMBERS = 20
LEDGER_WINDOW = entropy.Window(0.0, 1.0)
RANK_ULPS = 64
EP_AGREEMENT = 1e-8
WEAK_TOL = 1e-7

# triangle: front tracking, Godunov and Hopf-Lax on the same data
TRIANGLE_DELTA_U = 0.2 / 64
TRIANGLE_CELLS = (50, 100, 200, 400)
TRIANGLE_POINTS = 32
ORACLE_H = 1e-6  # sample_oracle's default difference step
# error of the oracle's centred difference away from jumps: the Hopf-Lax
# value is exact to about 1e-12, divided by 2h
ORACLE_VALUE_TOL = 1e-5
# hopf_lax_minimizer seeds this many points over the characteristic bracket
ORACLE_SEED_POINTS = 201
# Orders near 0.5 hold only once the grid resolves the data; at 50-400 cells
# a narrow random pulse gives 0.37-0.39, so the check is that the error
# shrinks under refinement.
MIN_ORDER = 0.0

# splice: ROADMAP item 4 (a)
SPLICE_DELTA_U = 0.05
SPLICE_DOMAIN = (0.2, 0.8, 0.5)  # t1, t2, delta; lambda_hat = 0.9 lambda0(flux, 1)
SPLICE_WINDOW = entropy.Window(0.0, 0.8)
EP_SLACK = 1e-8

# track: large-data tracking
TRACK_JUMPS = 100
TRACK_TIMES = np.linspace(0.0, 1.0, 11)


class CheckFailed(Exception):
    """A case's output missed one of its declared checks."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check
        self.detail = detail


class KnownDefect(Exception):
    """A known failure of seed code, which a run counts and tolerates.

    There are two. ``trapezoid_splice`` raises ``InvariantViolation`` from
    its snapshot merge on about 1.5% of splice cases. The Hopf-Lax oracle
    misses a piece of the data narrower than the spacing of its seed grid
    (``narrow_piece``) and puts a shock in the wrong place. Any other
    exception, and a missed check on other data, is a fault.
    """

    def __init__(self, call: str, kind: str, detail: str):
        super().__init__(f"{call}: {detail}")
        self.kind = kind


def require(ok: bool, check: str, detail: str) -> None:
    if not ok:
        raise CheckFailed(check, detail)


@dataclass(frozen=True)
class Case:
    index: int
    flux: fluxes.ConvexFlux
    xs: np.ndarray
    us: np.ndarray
    extra: tuple = ()


def catalog(radius: float, tr) -> tuple[fluxes.ConvexFlux, ...]:
    out = []
    for name in FLUX_NAMES:
        with tr.span("fluxes.make_flux"):
            out.append(fluxes.make_flux(name, domain_radius=radius))
    return tuple(out)


def step_data(rng, n: int, x_half: float, u_half: float):
    """n sorted breakpoints in (-x_half, x_half), n + 1 states, zero tails."""
    xs = np.sort(rng.uniform(-x_half, x_half, n))
    us = rng.uniform(-u_half, u_half, n + 1)
    us[0] = us[-1] = 0.0
    return xs, us


def total_variation(us: np.ndarray) -> float:
    return float(np.sum(np.abs(np.diff(us))))


# ---------------------------------------------------------------------------
# ledger


def ledger_cases(seed: int, tr) -> list[Case]:
    fl = catalog(2.0, tr)
    cases = []
    for s in range(POOL):
        rng = np.random.default_rng(POOL * seed + s)
        xs, us = step_data(rng, LEDGER_JUMPS, 5.0, 1.5)
        u_l, u_r = np.sort(rng.uniform(-1.5, 1.5, 2))
        family_seed = int(rng.integers(2**31))
        cases.append(Case(s, fl[s % 3], xs, us, (float(u_l), float(u_r), family_seed)))
    return cases


def ledger_run(c: Case, tr) -> None:
    flux = c.flux
    with tr.span("fronts.state_from_data"):
        state = fronts.state_from_data(flux, c.xs, c.us)
    with tr.span("fronts.evolve"):
        traj = fronts.evolve(state, flux, 1.0, rarefaction_step=LEDGER_DELTA_U)
    count_trajectory(traj, tr)
    with tr.span("entropy.total_ep"):
        ledger = entropy.total_ep(traj, LEDGER_WINDOW)
    with tr.span("entropy.total_ep_kinetic"):
        kinetic = entropy.total_ep_kinetic(traj, LEDGER_WINDOW)
    with tr.span("entropy.total_ep_delta_h1"):
        via_delta = entropy.total_ep_delta_h1(traj, LEDGER_WINDOW)
    tr.count("entropy.ledger_rows", len(ledger.rows))
    err = max(abs(ledger.total_abs - kinetic), abs(ledger.total_abs - via_delta))
    require(
        err <= EP_AGREEMENT * max(1.0, ledger.total_abs),
        "ep_dual_evaluation",
        f"closed form {ledger.total_abs!r}, kinetic {kinetic!r}, delta_h1 {via_delta!r}",
    )
    weak_check(traj, tr)

    u_l, u_r, family_seed = c.extra
    with tr.span("riemann.family_sweep"):
        roster = riemann.family_sweep(
            flux, u_l, u_r, members=LEDGER_MEMBERS, seed=family_seed
        )
    tr.count("riemann.fans", len(roster))
    with tr.span("entropy.quadratic_pair"):
        pair = entropy.quadratic_pair(flux)
    rates, hdots = {}, {}
    for label, fan in roster:
        with tr.span("entropy.fan_ep_rate"):
            rates[label] = entropy.fan_ep_rate(fan)
        with tr.span("entropy.entropy_rate_Hdot"):
            hdots[label] = entropy.entropy_rate_Hdot(fan, pair)
    by_rate = sorted(rates, key=rates.get)
    require(
        rates["entropic"] == 0.0 and rates[by_rate[0]] >= 0.0,
        "minimizer_entropic",
        f"entropic rate {rates['entropic']!r}, lowest {by_rate[0]} = {rates[by_rate[0]]!r}",
    )
    # Both orders rank the same members; members whose Hdot values differ
    # by rounding only are ties, so Hdot must not decrease along the rate
    # order by more than rounding.
    tol = RANK_ULPS * np.finfo(float).eps * max(1.0, max(abs(h) for h in hdots.values()))
    worst = max(hdots[a] - hdots[b] for a, b in zip(by_rate, by_rate[1:]))
    require(worst <= tol, "rankings_agree", f"Hdot drops by {worst!r} along the rate order")


# ---------------------------------------------------------------------------
# triangle


def triangle_cases(seed: int, tr) -> list[Case]:
    fl = catalog(1.5, tr)
    cases = []
    for s in range(POOL):
        rng = np.random.default_rng(POOL * seed + s)
        n = int(rng.integers(2, 4))
        xs, us = step_data(rng, n, 1.0, 1.0)
        cases.append(Case(s, fl[s % 3], xs, us))
    return cases


def triangle_bounds(band, df_band, us, t: float, dx: float, width: float) -> dict:
    """Bounds fixed from the data, dx and delta_u before anything runs.

    ``df_band`` is f' on the uniform grid ``band`` over the flux's state band.

    ft_hl, pointwise: inside a rarefaction the staircase is within one step
        delta_u of the fan, so away from shocks |u_ft - u_hl| <= delta_u
        (plus the oracle's difference error). A shock's speed moves by at
        most max f'' * delta_u when its states move by delta_u, so points
        within max f'' * delta_u * t of a front of jump > delta_u, or
        within the oracle's 2h blur of it, are not compared;
    ft_g, L1: the staircase error delta_u * max f'' * TV(u0) * t plus
        Kuznetsov's TV(u0) * sqrt(max |f'| * t * dx) for a monotone
        scheme, with constant 1;
    g_hl, L1: Kuznetsov's term plus the error of the midpoint sum of
        |a - b| over cells of width w, at most w * TV(|a - b|) <= 2 w TV(u0),
        and the oracle's blur of each jump over 2h.
    """
    tv = total_variation(us)
    ddf_max = float(np.max(np.diff(df_band) / np.diff(band)))
    speed = float(np.max(np.abs(df_band)))
    tracking = TRIANGLE_DELTA_U * ddf_max * tv * t
    scheme = tv * math.sqrt(speed * t * dx)
    quad = 2.0 * width * tv + 2.0 * ORACLE_H * tv
    return {
        "value_tol": TRIANGLE_DELTA_U + ORACLE_VALUE_TOL,
        "front_margin": TRIANGLE_DELTA_U * ddf_max * t + 2.0 * ORACLE_H,
        "ft_g": tracking + scheme,
        "g_hl": scheme + quad,
    }


def narrow_piece(xs, df_band, t: float) -> bool:
    """Whether the data have a piece narrower than the oracle's seed spacing.

    ``hopf_lax_minimizer`` seeds its search on a uniform grid over the
    bracket [x - t f'(R), x - t f'(-R)] and refines only dips it sees
    there; a minimizer on a narrower piece can fall between two seeds.
    """
    spacing = t * float(df_band[-1] - df_band[0]) / (ORACLE_SEED_POINTS - 1)
    return bool(np.min(np.diff(xs)) < spacing)


def triangle_run(c: Case, tr) -> None:
    flux, xs, us, t = c.flux, c.xs, c.us, 1.0
    with tr.span("fronts.state_from_data"):
        state = fronts.state_from_data(flux, xs, us)
    with tr.span("fronts.evolve"):
        traj = fronts.evolve(state, flux, t, rarefaction_step=TRIANGLE_DELTA_U)
    count_trajectory(traj, tr)
    with tr.span("fronts.state_at"):
        final = traj.state_at(t)
    with tr.span("fronts.FrontState.to_step"):
        fx, fv = final.to_step()

    errors, widths = [], []
    for n_cells in TRIANGLE_CELLS:
        with tr.span("godunov.run_godunov"):
            run = godunov.run_godunov(flux, xs, us, t, n_cells)
        tr.count("godunov.steps", run.step_ep.size)
        tr.count("godunov.cell_steps", run.step_ep.size * n_cells)
        with tr.span("godunov.Grid1D.to_step"):
            gx, gv = run.grid.to_step()
            widths.append(run.grid.dx)
        with tr.span("compare.l1_steps"):
            errors.append(compare.l1_steps(gx, gv, fx, fv))
        tr.count("compare.calls")
    with tr.span("compare.fitted_order"):
        order = compare.fitted_order(widths, errors)
    tr.count("compare.calls")

    band = np.linspace(-flux.domain_radius, flux.domain_radius, 257)
    with tr.span("fluxes.ConvexFlux.df"):
        df_band = flux.df(band)
        df_data = flux.df(np.array([us.min(), us.max()]))
    # criterion 6's interval, sampled at uniform midpoints
    speed = float(np.max(np.abs(df_data)))
    lo = float(min(xs)) - speed * t - 0.5
    hi = float(max(xs)) + speed * t + 0.5
    width = (hi - lo) / TRIANGLE_POINTS
    mids = lo + width * (np.arange(TRIANGLE_POINTS) + 0.5)
    with tr.span("hopflax.potential_from_step"):
        data = hopflax.potential_from_step(xs, us)
    with tr.span("hopflax.sample_oracle"):
        u_hl = hopflax.sample_oracle(data, flux, mids, t, h=ORACLE_H)
    tr.count("hopflax.points", mids.size)
    with tr.span("fronts.FrontState.value_at"):
        u_ft = final.value_at(mids)
    u_g = gv[np.searchsorted(gx, mids, side="left")]
    g_hl = float(np.sum(np.abs(u_g - u_hl))) * width

    bounds = triangle_bounds(band, df_band, us, t, widths[-1], width)
    require(order > MIN_ORDER, "godunov_order", f"fitted order {order:.3f} <= {MIN_ORDER}")
    shocks = fx[np.abs(np.diff(fv)) > TRIANGLE_DELTA_U * (1.0 + 1e-9)]
    near = np.zeros(mids.size, dtype=bool)
    for x in shocks:
        near |= np.abs(mids - x) <= bounds["front_margin"]
    gap = np.abs(u_ft - u_hl)
    gap[near] = 0.0
    k = int(np.argmax(gap))
    if gap[k] > bounds["value_tol"]:
        detail = (f"|u_ft - u_hl| = {gap[k]:.3e} > {bounds['value_tol']:.3e} "
                  f"at x = {float(mids[k])!r}")
        if narrow_piece(xs, df_band, t):
            raise KnownDefect("hopflax.sample_oracle", "OracleMissesNarrowPiece", detail)
        raise CheckFailed("ft_hl_pointwise", detail)
    for name, dist in (("ft_g", errors[-1]), ("g_hl", g_hl)):
        require(
            dist <= bounds[name], f"l1_{name}", f"{dist:.3e} > bound {bounds[name]:.3e}"
        )


# ---------------------------------------------------------------------------
# splice


def splice_cases(seed: int, tr) -> list[Case]:
    fl = catalog(1.5, tr)
    cases = []
    for s in range(POOL):
        rng = np.random.default_rng(POOL * seed + s)
        n = int(rng.integers(2, 7))
        xs, us = step_data(rng, n, 1.0, 1.0)
        cases.append(Case(s, fl[s % 3], xs, us))
    return cases


def splice_run(c: Case, tr) -> None:
    flux = c.flux
    with tr.span("fronts.state_from_data"):
        state = fronts.state_from_data(flux, c.xs, c.us)
    with tr.span("fronts.evolve"):
        traj = fronts.evolve(
            state, flux, 1.0, mode="as_given", rarefaction_step=SPLICE_DELTA_U
        )
    count_trajectory(traj, tr)
    with tr.span("trapezoid.lambda0"):
        lam = 0.9 * trapezoid.lambda0(flux, 1.0)
    t1, t2, delta = SPLICE_DOMAIN
    with tr.span("trapezoid.TrapezoidDomain"):
        dom = trapezoid.TrapezoidDomain(t1, t2, delta, lam)
    try:
        with tr.span("trapezoid.trapezoid_splice"):
            spliced = trapezoid.trapezoid_splice(traj, dom)
    except InvariantViolation as exc:
        tr.count("trapezoid.failed")
        raise KnownDefect("trapezoid.trapezoid_splice", type(exc).__name__, str(exc)) from exc
    tr.count("trapezoid.spliced_snapshots", len(spliced.snapshots))
    with tr.span("entropy.total_ep"):
        before = entropy.total_ep(traj, SPLICE_WINDOW)
    with tr.span("entropy.total_ep"):
        after = entropy.total_ep(spliced, SPLICE_WINDOW)
    tr.count("entropy.ledger_rows", len(before.rows) + len(after.rows))
    with tr.span("entropy.EntropyLedger.total"):
        ep_before, ep_after = before.total, after.total
    require(
        ep_after <= ep_before + EP_SLACK,
        "splice_ep_monotone",
        f"EP after {ep_after!r} > before {ep_before!r}",
    )
    with tr.span("weak.BumpTest"):
        battery = seam_battery(t1, t2, delta, lam)
    weak_check(spliced, tr, battery)


def seam_battery(t1: float, t2: float, delta: float, lam: float) -> list:
    """Small bumps that each straddle one seam of the trapezoid, and one over all of it.

    Two on the bottom seam {t = t1, |x| < delta}, one on each half, with
    time support (t1 / 2, 3 t1 / 2); one on each lateral edge
    x = +-(delta + (t - t1) / lam) at mid-height, with time support the
    middle half of (t1, t2). None reaches another seam or t2, where the
    spliced trajectory ends, so a Rankine-Hugoniot defect on one seam cannot
    cancel one on another. The last bump holds the whole trapezoid, from
    t1 / 2 to t2, and checks the re-solved inside as well.
    """
    half = 0.5 * delta
    t_mid = 0.5 * (t1 + t2)
    edge = delta + (t_mid - t1) / lam
    bottom = [weak.BumpTest(x0=x0, t0=t1, ax=half, bt=0.5 * t1) for x0 in (-half, half)]
    lateral = [
        weak.BumpTest(x0=x0, t0=t_mid, ax=half, bt=0.25 * (t2 - t1)) for x0 in (-edge, edge)
    ]
    t_lo = 0.5 * t1
    whole = weak.BumpTest(
        x0=0.0, t0=0.5 * (t_lo + t2), ax=delta + (t2 - t1) / lam + 0.5, bt=0.5 * (t2 - t_lo)
    )
    return bottom + lateral + [whole]


# ---------------------------------------------------------------------------
# track


def track_cases(seed: int, tr) -> list[Case]:
    fl = catalog(2.0, tr)
    cases = []
    for s in range(POOL):
        rng = np.random.default_rng(POOL * seed + s)
        xs, us = step_data(rng, TRACK_JUMPS, 5.0, 1.5)
        cases.append(Case(s, fl[s % 3], xs, us))
    return cases


def mass_tolerance(xs: np.ndarray, us: np.ndarray) -> float:
    """Round-off allowance for the mass of a tracked state.

    Each front position carries a relative error of a few ulps per event
    that moved it; 1e3 ulps of the first moment bounds that generously.
    """
    scale = total_variation(us) * (1.0 + float(np.max(np.abs(xs))))
    return 1e3 * np.finfo(float).eps * scale


def track_run(c: Case, tr) -> None:
    flux = c.flux
    with tr.span("fronts.state_from_data"):
        state = fronts.state_from_data(flux, c.xs, c.us)
    with tr.span("fronts.mass"):
        m0 = fronts.mass(state)
    with tr.span("fronts.evolve"):
        traj = fronts.evolve(state, flux, 1.0)
    count_trajectory(traj, tr)
    tol = mass_tolerance(c.xs, c.us)
    for t in TRACK_TIMES:
        with tr.span("fronts.state_at"):
            snap = traj.state_at(float(t))
        with tr.span("fronts.mass"):
            m = fronts.mass(snap)
        require(abs(m - m0) <= tol, "mass", f"t={t}: {m!r} vs {m0!r} (tol {tol:.1e})")
    with tr.span("entropy.check_e_condition_state"):
        rep = entropy.check_e_condition_state(
            snap, flux.ddf_lower_bound, slack=traj.rarefaction_step
        )
    require(rep.holds, "e_condition", f"worst excess {rep.worst_excess!r}")


# ---------------------------------------------------------------------------
# shared pieces


def count_trajectory(traj, tr) -> None:
    tr.count("fronts.events", len(traj.events))
    tr.count("fronts.snapshots", len(traj.snapshots))
    tr.count("fronts.stored_fronts", sum(len(s.positions) for s in traj.snapshots))


def weak_check(traj, tr, battery=None) -> None:
    """Weak residual against `battery`, by default the trajectory's own."""
    if battery is None:
        with tr.span("weak.default_battery_for"):
            battery = weak.default_battery_for(traj)
    with tr.span("fronts.segments"):
        segments = sum(1 for _ in traj.segments())
    tr.count("weak.segments", segments)
    tr.count("weak.segment_bumps", segments * len(battery))
    with tr.span("weak.trajectory_max_residual"):
        resid = float(weak.trajectory_max_residual(traj, battery))
    require(resid <= WEAK_TOL, "weak_residual", f"{resid!r} > {WEAK_TOL}")


@dataclass(frozen=True)
class Workload:
    cases: Callable[[int, object], list[Case]]  # (seed, tracer) -> the run's pool
    run: Callable[[Case, object], None]  # raises CheckFailed on a missed check
    # nominal rate: a run of s seconds is round(s * per_second) cases, about
    # the wall-clock throughput of seed code on a 2-vCPU x86-64 machine
    per_second: float


WORKLOADS = {
    "ledger": Workload(ledger_cases, ledger_run, 2.2),
    "triangle": Workload(triangle_cases, triangle_run, 1.5),
    "splice": Workload(splice_cases, splice_run, 6.0),
    "track": Workload(track_cases, track_run, 0.95),
}
