"""Kruzhkov entropy bookkeeping: defect densities, rates, and ledgers.

For a single jump from u_minus (left) to u_plus (right) moving at the
chord speed sigma, the Kruzhkov defect measure at level a has the flat
space-time density

    k(a) = [f(u_plus ^ a) - f(u_minus ^ a)] - sigma [(u_plus ^ a) - (u_minus ^ a)]

(^ is min). Geometrically k(a) is the gap between the chord of f over the
jump interval and f itself, so it is single-signed in a: positive for
descending (entropic) jumps, negative for ascending (expansion) ones, and
identically zero outside [min(u_-, u_+), max(u_-, u_+)] by Rankine-Hugoniot.
Its integral in a is the per-unit-time dissipation rate

    D = (u_minus - u_plus) (f(u_minus) + f(u_plus)) / 2
        + F(u_plus) - F(u_minus),          F' = f,

which is positive exactly for entropic jumps. Total entropy production of
a tracked solution over a space-time window is the |D|-weighted time each
front spends inside the window; the same number is recovered through the
jump-set line integral of delta_density with the H^1 length factor
sqrt(1 + sigma^2), and through level-wise quadrature of |k|. The package
treats the kinetic normalization of the line density as canonical; the
alternative printed form with the opposite orientation of the flux
integral (delta_density_chord) is retained for the discrepancy audit
exposed by the delta-audit CLI command.

Each quantity has one formula, elementwise over jumps: arrays give
arrays, scalars give float. The public jump functions check their states
against the flux band (and kinetic_density its levels for finiteness);
the ledgers and fan rates, whose states are tracked and already checked,
call the private kernels. The ledgers clip every front lifetime to the
window in one array pass, with the clip that Window and the trapezoid
share, and add the clipped rows up in row order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import FluxRangeError, check_finite, check_positive
from .fluxes import ConvexFlux, _check_band, chord_slopes, inverse_derivative
from .quadrature import gauss_panels
from .riemann import Shock, WaveFan

ArrayLike = float | np.ndarray

_KINETIC_TOL = 1e-12  # absolute tolerance of the kinetic rates' level quadrature
_PAIR_SAMPLES, _PAIR_TOL = 257, 1e-5  # validate_pair's audit
_FAN_SAMPLES = 33  # points per rarefaction in check_e_condition_fan


# ---------------------------------------------------------------------------
# jump-local densities and rates


def _float_or_array(out) -> ArrayLike:
    return float(out) if np.ndim(out) == 0 else np.asarray(out, dtype=float)


def _left_sum(values: np.ndarray) -> float:
    # 0.0 + v0 + v1 + ... in row order: np.sum adds in pairs and the builtin
    # sum compensates from Python 3.12 on, and either changes the last bits
    return float(np.cumsum(np.append(0.0, values))[-1])


def _chord_speeds(flux: ConvexFlux, a: ArrayLike, b: ArrayLike) -> np.ndarray:
    """Chord speeds of the jumps (a, b), elementwise; 0 where a == b."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    jump = a != b
    sigma = np.zeros(a.shape)
    sigma[jump] = chord_slopes(flux, a[jump], b[jump])
    return sigma


def _jump_terms(flux: ConvexFlux, a: ArrayLike, b: ArrayLike):
    """trap = (a - b)(f(a) + f(b))/2, F(a), F(b) of the jumps (a, b), elementwise;
    where a == b, trap is 0 and F(b) - F(a) is +0, so D and its chord twin vanish."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    F = flux.antiderivative_F
    return (a - b) * 0.5 * (flux.f(a) + flux.f(b)), F(a), F(b)


def _check_states(flux: ConvexFlux, a: ArrayLike, b: ArrayLike, names=("u_minus", "u_plus")):
    """_check_band on both states of the jumps (a, b), named by names."""
    for u, name in zip((a, b), names):
        _check_band(flux, u, name)


def _per_h1_length(flux: ConvexFlux, a: ArrayLike, b: ArrayLike, rate) -> ArrayLike:
    sigma = _chord_speeds(flux, a, b)
    return _float_or_array(np.abs(rate) / np.sqrt(1.0 + sigma * sigma))


def kinetic_density(
    flux: ConvexFlux, u_minus: ArrayLike, u_plus: ArrayLike, a: ArrayLike
) -> ArrayLike:
    """Defect density k(a) of the jumps (u_minus, u_plus) at entropy levels a.

    Elementwise, the jumps broadcasting against the levels. Compactly
    supported on [min(u_-,u_+), max(u_-,u_+)] and single-signed with the
    sign of u_minus - u_plus; exactly 0 for u_minus == u_plus. The states
    must lie in the flux band and the levels be finite.
    """
    _check_states(flux, u_minus, u_plus)
    check_finite("a", np.asarray(a, dtype=float))
    return _kinetic_density(flux, u_minus, u_plus, a)


def _kinetic_density(flux: ConvexFlux, u_minus, u_plus, a) -> ArrayLike:
    """kinetic_density without its checks."""
    um, up = np.asarray(u_minus, dtype=float), np.asarray(u_plus, dtype=float)
    return _float_or_array(_defect(flux, um, up, _chord_speeds(flux, um, up), a))


def _defect(flux: ConvexFlux, um, up, sigma, a) -> np.ndarray:
    """kinetic_density of the jumps (um, up) whose chord speeds are sigma."""
    lo, hi = np.minimum(um, up), np.maximum(um, up)
    raw = np.asarray(a, dtype=float)
    # Levels at or beyond the jump interval carry no defect; force the
    # exact zero there instead of letting the formula cancel to rounding.
    arr = np.clip(raw, lo, hi)
    lm, lp = np.minimum(um, arr), np.minimum(up, arr)
    out = (flux.f(lp) - flux.f(lm)) - sigma * (lp - lm)
    return np.where((raw <= lo) | (raw >= hi), 0.0, out)


def jump_ep_rate(flux: ConvexFlux, u_minus: ArrayLike, u_plus: ArrayLike) -> ArrayLike:
    """Signed dissipation rate D of the jumps, in closed form via F.

    Elementwise. D > 0 iff u_minus > u_plus (entropic orientation); D = 0
    for the degenerate pair. Equals the a-integral of kinetic_density. The
    states must lie in the flux band.
    """
    _check_states(flux, u_minus, u_plus)
    return _jump_ep_rate(flux, u_minus, u_plus)


def _jump_ep_rate(flux: ConvexFlux, u_minus, u_plus) -> ArrayLike:
    """jump_ep_rate without its checks."""
    trap, F_minus, F_plus = _jump_terms(flux, u_minus, u_plus)
    return _float_or_array(trap + F_plus - F_minus)


def _kinetic_rates(flux: ConvexFlux, u_minus, u_plus) -> np.ndarray:
    """Signed (row 0) and absolute (row 1) a-integrals of kinetic_density per jump.

    All jump intervals go through quadrature.gauss_panels at once with
    absolute tolerance _KINETIC_TOL. Uses f and the chord speed only, never
    the antiderivative F; the chord speeds are computed once, not per pass.
    """
    um, up = np.atleast_1d(u_minus).astype(float), np.atleast_1d(u_plus).astype(float)
    sigma = _chord_speeds(flux, um, up)

    def density(a, rows):
        col = (rows, None, None)
        return _defect(flux, um[col], up[col], sigma[col], a)

    lo, width = np.minimum(um, up), np.abs(um - up)
    return gauss_panels(density, lo, width, atol=_KINETIC_TOL, rtol=0.0)


def jump_ep_rate_kinetic(flux: ConvexFlux, u_minus: float, u_plus: float) -> float:
    """Signed rate recomputed by level quadrature of kinetic_density.

    Independent of the antiderivative F; used to cross-check jump_ep_rate.
    The states must lie in the flux band.
    """
    _check_states(flux, u_minus, u_plus)
    return float(_kinetic_rates(flux, u_minus, u_plus)[0, 0])


def jump_abs_ep_rate_kinetic(flux: ConvexFlux, u_minus: float, u_plus: float) -> float:
    """Quadrature of |kinetic_density|, the level-wise absolute rate.

    The states must lie in the flux band.
    """
    _check_states(flux, u_minus, u_plus)
    return float(_kinetic_rates(flux, u_minus, u_plus)[1, 0])


def delta_density(flux: ConvexFlux, a: ArrayLike, b: ArrayLike) -> ArrayLike:
    """Jump-set line density: |D| per unit H^1 length of the front.

    Elementwise. Kinetic normalization: integrating delta_density over the
    jump set with the length element sqrt(1 + sigma^2) dt reproduces total
    EP. Symmetric in (a, b), which must lie in the flux band.
    """
    _check_states(flux, a, b, ("a", "b"))
    return _delta_density(flux, a, b)


def _delta_density(flux: ConvexFlux, a, b) -> ArrayLike:
    """delta_density without its checks."""
    return _per_h1_length(flux, a, b, _jump_ep_rate(flux, a, b))


def delta_density_chord(flux: ConvexFlux, a: ArrayLike, b: ArrayLike) -> ArrayLike:
    """Line density with the flux integral taken in chord orientation.

    Elementwise. Differs from delta_density whenever the integral term
    does not vanish: for Burgers data (1, 0) it gives 5/(6 sqrt 5) against
    the kinetic 1/(6 sqrt 5). Kept for the normalization audit; nothing
    downstream consumes it. a and b must lie in the flux band.
    """
    _check_states(flux, a, b, ("a", "b"))
    trap, F_a, F_b = _jump_terms(flux, a, b)
    return _per_h1_length(flux, a, b, trap - (F_b - F_a))


# ---------------------------------------------------------------------------
# entropy pairs and fan-level rate functionals


@dataclass(frozen=True)
class EntropyPair:
    """Convex entropy eta with flux xi, compatible via xi' = eta' f'."""

    name: str
    eta: Callable[[ArrayLike], ArrayLike]
    xi: Callable[[ArrayLike], ArrayLike]


def quadratic_pair(flux: ConvexFlux) -> EntropyPair:
    """eta(u) = u^2 / 2 with xi = G, the pair behind the rate functionals."""
    return EntropyPair(
        "quadratic",
        eta=lambda u: 0.5 * np.asarray(u, dtype=float) ** 2,
        xi=flux.antiderivative_G,
    )


def kruzhkov_pair(flux: ConvexFlux, a: float) -> EntropyPair:
    """One-sided Kruzhkov pair at level a: eta = (u - a)^+."""
    check_finite("level a", a)

    def eta(u: ArrayLike) -> ArrayLike:
        return np.maximum(np.asarray(u, dtype=float) - a, 0.0)

    def xi(u: ArrayLike) -> ArrayLike:
        arr = np.asarray(u, dtype=float)
        return np.where(arr > a, np.asarray(flux.f(arr)) - float(np.asarray(flux.f(a))), 0.0)

    return EntropyPair(f"kruzhkov[a={a}]", eta=eta, xi=xi)


def validate_pair(pair: EntropyPair, flux: ConvexFlux) -> None:
    """Sampled compatibility audit xi' = eta' f' on the working band.

    Points where eta has a kink (one-sided slopes disagree, as for the
    Kruzhkov entropies at their level) are skipped.
    """
    r = flux.domain_radius
    h = 1e-7 * max(1.0, r)
    u = np.linspace(-r + 2 * h, r - 2 * h, _PAIR_SAMPLES)
    eta_r = (np.asarray(pair.eta(u + h)) - np.asarray(pair.eta(u))) / h
    eta_l = (np.asarray(pair.eta(u)) - np.asarray(pair.eta(u - h))) / h
    smooth = np.abs(eta_r - eta_l) < 1e-3
    xi_c = (np.asarray(pair.xi(u + h)) - np.asarray(pair.xi(u - h))) / (2 * h)
    want = 0.5 * (eta_r + eta_l) * np.asarray(flux.df(u))
    err = np.abs(xi_c - want)[smooth]
    scale = max(1.0, float(np.max(np.abs(want))))
    if err.size and float(np.max(err)) > _PAIR_TOL * scale:
        raise FluxRangeError(
            f"entropy pair {pair.name!r} incompatible with flux {flux.name!r}: "
            f"max sampled residual {float(np.max(err)):.3e}"
        )


def _shocks(fan: WaveFan) -> np.ndarray:
    """u_minus, u_plus and sigma of the fan's shocks, as three arrays."""
    rows = [(w.u_minus, w.u_plus, w.sigma) for w in fan.waves if isinstance(w, Shock)]
    return np.array(rows, dtype=float).reshape(-1, 3).T


def combined_entropy_P(fan: WaveFan, pair: EntropyPair) -> float:
    """Jump functional P_v = sum over shocks of [xi] - omega [eta].

    Brackets are right minus left values at the shock speed omega.
    Rarefactions contribute nothing. For the quadratic pair this equals
    minus the sum of jump_ep_rate over the fan's shocks, so the entropic
    fan maximizes dissipation (most negative P) pointwise per jump.
    """
    um, up, sigma = _shocks(fan)
    d_eta = np.asarray(pair.eta(up)) - np.asarray(pair.eta(um))
    d_xi = np.asarray(pair.xi(up)) - np.asarray(pair.xi(um))
    return _left_sum(d_xi - sigma * d_eta)


def entropy_rate_Hdot(fan: WaveFan, pair: EntropyPair) -> float:
    """Growth rate of the total entropy integral for the self-similar fan.

    Hdot = P + xi(u_l) - xi(u_r): the jump production plus the boundary
    flux imbalance of the far states. Ranks fans identically to P since
    the boundary term depends only on the shared data.
    """
    return (
        combined_entropy_P(fan, pair)
        + float(np.asarray(pair.xi(fan.left_state)))
        - float(np.asarray(pair.xi(fan.right_state)))
    )


def fan_ep_rate(fan: WaveFan) -> float:
    """Entropy production per unit time of a fan: sum of |D| over shocks."""
    um, up, _ = _shocks(fan)
    return _left_sum(np.abs(_jump_ep_rate(fan.flux, um, up)))


# ---------------------------------------------------------------------------
# pointwise admissibility checks


@dataclass(frozen=True)
class EConditionReport:
    holds: bool
    worst_excess: float
    worst_pair: tuple[float, float]
    slack: float


def _econd_core(
    xs: np.ndarray,
    us: np.ndarray,
    x0: np.ndarray,
    u_left: np.ndarray,
    u_right: np.ndarray,
    t: float,
    c: float,
    slack: float,
) -> EConditionReport:
    """Worst excess over the sample pairs and the zero-width pairs (x0, u_left,
    u_right); a tie keeps the first."""
    check_positive("t", t)
    check_positive("c", c)
    check_finite("slack", slack)
    worst = -np.inf
    worst_pair = (np.nan, np.nan)
    if xs.size >= 2:
        order = np.argsort(xs, kind="stable")
        x = xs[order]
        u = us[order]
        # excess(i, j) = u_j - u_i - (x_j - x_i) / (c t) for all i < j
        shifted = u - x / (c * t)
        running_min = np.minimum.accumulate(shifted)
        excess = shifted - running_min
        j = int(np.argmax(excess))
        if float(excess[j]) > worst:
            worst = float(excess[j])
            i = int(np.argmin(shifted[: j + 1]))
            worst_pair = (float(x[i]), float(x[j]))
    if x0.size:
        e = u_right - u_left
        k = int(np.argmax(e))
        if e[k] > worst:
            worst = float(e[k])
            worst_pair = (float(x0[k]), float(x0[k]))
    if not np.isfinite(worst):
        worst = 0.0
        worst_pair = (0.0, 0.0)
    return EConditionReport(worst <= slack + 1e-15, worst, worst_pair, slack)


def check_e_condition_samples(
    xs: ArrayLike, us: ArrayLike, t: float, c: float, slack: float = 0.0
) -> EConditionReport:
    """One-sided Lipschitz condition u(y) - u(x) <= (y - x)/(c t) + slack.

    xs, us are point samples of the profile at time t, as many of each and
    all finite; every ordered pair is checked (O(n log n) via the
    running-minimum reduction).
    """
    xs, us = np.asarray(xs, dtype=float), np.asarray(us, dtype=float)
    if xs.size != us.size:
        raise FluxRangeError(f"need len(xs) == len(us), got {xs.size} and {us.size}")
    check_finite("xs", xs)
    check_finite("us", us)
    none = np.empty(0)
    return _econd_core(xs, us, none, none, none, t, c, slack)


def check_e_condition_state(state, c: float, slack: float = 0.0) -> EConditionReport:
    """E-condition for a tracked piecewise-constant snapshot.

    Pairs are piece midpoints plus the zero-width pair across each front,
    so an ascending jump of height h fails any slack below h.
    """
    pos = np.asarray(state.positions, dtype=float)
    vals = np.asarray(state.states, dtype=float)
    xs, us = _state_econd_samples(pos, vals)
    return _econd_core(xs, us, pos, vals[:-1], vals[1:], state.time, c, slack)


def _state_econd_samples(pos: np.ndarray, vals: np.ndarray):
    """A point inside each tail and at the midpoint of each piece of positive width."""
    if pos.size == 0:
        return np.array([0.0]), vals[:1]
    half_span = 0.5 * max(1.0, float(pos[-1] - pos[0]))
    wide = pos[1:] > pos[:-1]
    xs = np.concatenate(
        ([pos[0] - half_span], (0.5 * (pos[:-1] + pos[1:]))[wide], [pos[-1] + half_span])
    )
    return xs, np.concatenate((vals[:1], vals[1:-1][wide], vals[-1:]))


def check_e_condition_fan(
    fan: WaveFan, t: float, c: float | None = None, slack: float = 0.0
) -> EConditionReport:
    """E-condition for a fan sampled at time t > 0."""
    check_positive("t", t)
    if c is None:
        c = fan.flux.ddf_lower_bound
    xs: list[float] = []
    us: list[float] = []
    zero_pairs: list[tuple[float, float, float]] = []
    lo_speed = min([w.support[0] for w in fan.waves], default=0.0)
    hi_speed = max([w.support[1] for w in fan.waves], default=0.0)
    pad = max(1.0, hi_speed - lo_speed)
    xs += [(lo_speed - pad) * t, (hi_speed + pad) * t]
    us += [fan.left_state, fan.right_state]
    for w in fan.waves:
        if isinstance(w, Shock):
            zero_pairs.append((w.sigma * t, w.u_minus, w.u_plus))
        else:
            omegas = np.linspace(w.omega_lo, w.omega_hi, _FAN_SAMPLES)
            xs += list(omegas * t)
            us += list(np.asarray(inverse_derivative(fan.flux, omegas), dtype=float))
    x0, u_left, u_right = np.array(zero_pairs, dtype=float).reshape(-1, 3).T
    return _econd_core(np.asarray(xs), np.asarray(us), x0, u_left, u_right, t, c, slack)


# ---------------------------------------------------------------------------
# windows and trajectory ledgers


class _Domain:
    """Space-time domain between the times of `span` and the left and right
    edge lines x = p + q t of `edges`, both given by subclasses."""

    def clip(self, t_a, t_b, x_a, sigma):
        """Times [lo, hi] the fronts x(t) = x_a + sigma (t - t_a), t in [t_a, t_b],
        spend inside, elementwise; lo >= hi where a front misses the domain.

        A front running exactly along an edge counts as inside; any other front
        meets the boundary at isolated times, so open and closed domains agree.
        """
        (t_lo, t_hi), edges = self.span, self.edges
        # on ties where() keeps the first operand, as builtin max does; np.maximum may not
        lo = np.where(t_lo > t_a, t_lo, t_a)
        hi = np.where(t_hi < t_b, t_hi, t_b)
        x0 = x_a - sigma * t_a
        for (p, q), side in zip(edges, (1.0, -1.0)):
            # inside this edge: side * ((sigma - q) t - (p - x0)) >= 0
            rel, gap = sigma - q, p - x0
            root = gap / np.where(rel == 0.0, 1.0, rel)
            lo = np.where((side * rel > 0.0) & (root > lo), root, lo)
            hi = np.where((side * rel < 0.0) & (root < hi), root, hi)
            hi = np.where((rel == 0.0) & (side * gap > 0.0), -np.inf, hi)
        return lo, hi


@dataclass(frozen=True)
class Window(_Domain):
    """Space-time rectangle [t_lo, t_hi] x [x_lo, x_hi]: edges ordered, none
    NaN, the x edges possibly infinite."""

    t_lo: float
    t_hi: float
    x_lo: float = -np.inf
    x_hi: float = np.inf

    def __post_init__(self):
        if not (self.t_lo <= self.t_hi and self.x_lo <= self.x_hi):
            raise FluxRangeError(f"window edges must be ordered numbers, got {self}")

    @property
    def span(self) -> tuple[float, float]:
        return (self.t_lo, self.t_hi)

    @property
    def edges(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Left and right edge lines x = p + q t, as (p, q)."""
        return ((self.x_lo, 0.0), (self.x_hi, 0.0))


@dataclass(frozen=True)
class LedgerRow:
    front_id: int
    t_start: float
    t_end: float
    u_minus: float
    u_plus: float
    sigma: float
    rate: float
    abs_rate: float
    delta: float


@dataclass
class EntropyLedger:
    window: object
    rows: list[LedgerRow] = field(default_factory=list)
    total_signed: float = 0.0
    total_abs: float = 0.0

    @property
    def total(self) -> float:
        """The absolute total, total_abs."""
        return self.total_abs


def _rows_inside(traj, window):
    """front_id, u_minus, u_plus, sigma and in-window times lo, hi of every
    front lifetime of traj that meets the window, as arrays."""
    r = traj.lifetimes()
    lo, hi = window.clip(r.t_birth, r.t_death, r.x_birth, r.sigma)
    keep = hi > lo
    return (r.front_id[keep], r.u_minus[keep], r.u_plus[keep], r.sigma[keep],
            lo[keep], hi[keep])


def total_ep(traj, window: Window) -> EntropyLedger:
    """Entropy production ledger of a tracked trajectory over a window.

    Clips every front lifetime to the window (rectangle or trapezoid) and
    accumulates rate x duration. The ledger keeps one row per front
    lifetime that meets the window, the signed and absolute totals, and
    the per-front line density Delta.
    """
    fid, um, up, sigma, lo, hi = _rows_inside(traj, window)
    rate = _jump_ep_rate(traj.flux, um, up)
    cols = (fid, lo, hi, um, up, sigma, rate, np.abs(rate), _delta_density(traj.flux, um, up))
    return EntropyLedger(
        window=window,
        rows=[LedgerRow(*row) for row in zip(*(c.tolist() for c in cols))],
        total_signed=_left_sum(rate * (hi - lo)),
        total_abs=_left_sum(np.abs(rate) * (hi - lo)),
    )


def total_ep_kinetic(traj, window: Window) -> float:
    """Absolute EP recomputed through level-space quadrature of |k(a)|.

    Fully independent of the closed-form rate: the densities of all front
    lifetimes that meet the window are integrated in one vectorized pass,
    each then weighted by the lifetime's in-window duration.
    """
    _, um, up, _, lo, hi = _rows_inside(traj, window)
    return _left_sum(_kinetic_rates(traj.flux, um, up)[1] * (hi - lo))


def total_ep_delta_h1(traj, window: Window) -> float:
    """Absolute EP through the jump-set route: Delta integrated in H^1 length.

    Each front lifetime contributes Delta(u_-, u_+) times its H^1 length
    inside the window, sqrt(1 + sigma^2) x duration.
    """
    _, um, up, sigma, lo, hi = _rows_inside(traj, window)
    h1 = (hi - lo) * np.sqrt(1.0 + sigma * sigma)
    return _left_sum(_delta_density(traj.flux, um, up) * h1)
