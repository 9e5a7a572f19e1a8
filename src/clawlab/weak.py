"""Weak-form residual battery.

A candidate solution u is audited against the distributional identity

    int_0^T int u d_t psi + f(u) d_x psi dx dt + int u(., t0) psi(., t0) dx = 0

for a fixed battery of smooth compactly supported bumps psi. The battery
is generated deterministically inside a bounding box (default 20 bumps:
five x-centers, two t-bands, two width scales), half of them reaching
down to the initial time so the data term is exercised.

For tracked trajectories the x-integrals collapse to sums over fronts:
with psi = X(x) T(t) separable,

    int u d_t psi dx   = -T'(t) sum_j [u]_j  XA(x_j),
    int f(u) d_x psi dx = -T(t)  sum_j [f]_j X(x_j),

where XA is the antiderivative of X and [.]_j right-minus-left jumps.
Each front moves affinely over its lifetime (Trajectory.lifetimes), so
d/dt XA(x(t)) = sigma X(x(t)) along it and the T' term integrates by
parts into end-point values, +[u] T XA(x) at a birth and -[u] T XA(x) at
a death. Births at t0 cancel the initial-data term and T vanishes at the
ends of its support, so only births and deaths inside the support count.
Under the integral only the Rankine-Hugoniot defect [f] - sigma [u] is
left, and only fronts whose defect is not exactly 0.0 get Gauss panels
in t. Residuals of exact tracked solutions are then rounding, not
quadrature noise: at most 8.8e-16 per bump over 7,200 default-battery
bumps of seeded step data, and 4.2e-14 over 6,220 bumps of their
splices, whose merged fronts can be born a few ulps after their parents
die. A fan is the same sum over its jumps, every one born at the origin
at t = 0 and dying at t_max: one row per shock, and at each edge of a
rarefaction one row from the outer state to (f')^{-1} of the edge speed,
none where the two are equal. Inside a rarefaction u = (f')^{-1}(x / t)
is classical, a continuum of characteristics with no Rankine-Hugoniot
defect, so integration by parts leaves only their births at t = 0,
which cancel the initial data. Exact fans then score at rounding too:
at most 7.9e-17 per bump over the default batteries of 99 seeded fans.
The edge rows assume ordered wave supports, which validate_fan checks.

The identity has no terminal term, so a bump still alive at the end time
is refused, and so is an empty battery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FluxRangeError, check_finite, check_positive
from .fluxes import inverse_derivative
from .quadrature import leggauss
from .fronts import Lifetimes
from .riemann import Rarefaction, WaveFan, fan_breakpoints

_N_GAUSS = 14  # Gauss-Legendre nodes per panel in t

# Tabulated antiderivative of the standard bump B(s) = exp(1 - 1/(1 - s^2)).
_GRID = np.linspace(-1.0, 1.0, 160001)


def _bump(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0
    out = np.zeros_like(s)
    sq = np.clip(1.0 - s[inside] ** 2, 1e-300, None)
    out[inside] = np.exp(1.0 - 1.0 / sq)
    return out


def _dbump(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0
    out = np.zeros_like(s)
    sq = np.clip(1.0 - s[inside] ** 2, 1e-300, None)
    out[inside] = np.exp(1.0 - 1.0 / sq) * (-2.0 * s[inside] / sq**2)
    return out


def _trapezoid_antiderivative(grid: np.ndarray) -> np.ndarray:
    """Trapezoid antiderivative of B on grid, from grid[0].

    The steps are built 8192 at a time into one array and summed by one
    sequential cumsum, so the table equals the one-shot formula
    concatenate(([0], cumsum(0.5 (B[:-1] + B[1:]) diff(grid)))) bit for
    bit without its grid-sized temporaries.
    """
    block = 8192
    steps = np.empty(grid.size - 1)
    for lo in range(0, steps.size, block):
        g = grid[lo : lo + block + 1]
        b = _bump(g)
        steps[lo : lo + g.size - 1] = 0.5 * (b[:-1] + b[1:]) * np.diff(g)
    anti = np.empty(grid.size)
    anti[0] = 0.0
    np.cumsum(steps, out=anti[1:])
    return anti


_BUMP_ANTI = _trapezoid_antiderivative(_GRID)
BUMP_MASS = float(_BUMP_ANTI[-1])


def _bump_anti(s: np.ndarray) -> np.ndarray:
    """Antiderivative of B from -1, clamped to [0, BUMP_MASS] outside."""
    return np.interp(np.asarray(s, dtype=float), _GRID, _BUMP_ANTI)


@dataclass(frozen=True)
class BumpTest:
    """Separable test function psi(x, t) = B((x-x0)/ax) B((t-t0)/bt)."""

    x0: float
    t0: float
    ax: float
    bt: float

    def __post_init__(self):
        check_finite("x0", self.x0)
        check_finite("t0", self.t0)
        check_positive("ax", self.ax)
        check_positive("bt", self.bt)

    def x_part(self, x) -> np.ndarray:
        return _bump((np.asarray(x, dtype=float) - self.x0) / self.ax)

    def x_anti(self, x) -> np.ndarray:
        return self.ax * _bump_anti((np.asarray(x, dtype=float) - self.x0) / self.ax)

    def t_part(self, t) -> np.ndarray:
        return _bump((np.asarray(t, dtype=float) - self.t0) / self.bt)

    def dt_part(self, t) -> np.ndarray:
        return _dbump((np.asarray(t, dtype=float) - self.t0) / self.bt) / self.bt

    @property
    def t_support(self) -> tuple[float, float]:
        return (self.t0 - self.bt, self.t0 + self.bt)


def bump_battery(
    x_lo: float, x_hi: float, t_lo: float, t_hi: float
) -> list[BumpTest]:
    """Twenty deterministic bumps covering the box.

    Five x-centers by two scale choices, alternating between an interior
    t-band and one straddling t_lo so the initial-data term is active.
    Every bump vanishes at t_hi (the weak identity carries no terminal
    term, so test functions must die out before the final time).
    """
    bumps: list[BumpTest] = []
    width = x_hi - x_lo
    height = t_hi - t_lo
    centers = np.linspace(x_lo + 0.15 * width, x_hi - 0.15 * width, 5)
    for scale, ax_frac in ((0, 0.45), (1, 0.25)):
        for j, x0 in enumerate(centers):
            ax = ax_frac * width
            t0_frac = 0.4 + 0.1 * ((j + scale) % 3)
            bumps.append(
                BumpTest(
                    x0=float(x0),
                    t0=t_lo + t0_frac * height,
                    ax=ax,
                    bt=min(0.3, 0.95 - t0_frac) * height,
                )
            )
            bumps.append(
                BumpTest(
                    x0=float(x0),
                    t0=t_lo + 0.1 * height,
                    ax=ax,
                    bt=0.35 * height,
                )
            )
    return bumps


def default_battery_for(traj) -> list[BumpTest]:
    if traj.t_end <= traj.t_start:
        raise FluxRangeError(
            "the weak-form battery needs a trajectory spanning positive time, "
            f"got [{traj.t_start}, {traj.t_end}]"
        )
    lo, hi = traj.support_bbox()
    pad = max(1.0, 0.2 * (hi - lo))
    return bump_battery(lo - pad, hi + pad, traj.t_start, traj.t_end)


def _front_sum(flux, t0, rows, psi: BumpTest) -> float:
    """The front sum of one bump, telescoped along each row.

    With lo = max(t_lo_psi, t0) and hi = t_hi_psi, row r adds +[u] T XA(x)
    at a birth in (lo, hi), -[u] T XA(x) at a death in (lo, hi), and
    -D_r int T X(x(t)) dt over its life clipped to (lo, hi), where
    D_r = [f] - sigma [u]. Only rows with D_r != 0.0 are integrated, on at
    least four Gauss panels of psi's support, none wider than bt/12.
    """
    t_lo_psi, hi = psi.t_support
    lo = max(t_lo_psi, t0)
    if hi <= lo:
        return 0.0
    jumps_u = rows.u_plus - rows.u_minus
    born = (rows.t_birth > lo) & (rows.t_birth < hi)
    died = (rows.t_death > lo) & (rows.t_death < hi)
    r = np.flatnonzero(born | died)
    t_b, t_d, x_b = rows.t_birth[r], rows.t_death[r], rows.x_birth[r]
    x_d = x_b + rows.sigma[r] * (t_d - t_b)
    at_birth = np.where(born[r], psi.t_part(t_b) * psi.x_anti(x_b), 0.0)
    at_death = np.where(died[r], psi.t_part(t_d) * psi.x_anti(x_d), 0.0)
    total = float(np.dot(jumps_u[r], at_birth - at_death))
    jumps_f = np.asarray(flux.f(rows.u_plus)) - np.asarray(flux.f(rows.u_minus))
    defect = jumps_f - rows.sigma * jumps_u
    d = np.flatnonzero((defect != 0.0) & (rows.t_birth < hi) & (rows.t_death > lo))
    if d.size:
        nodes, weights = leggauss(_N_GAUSS)
        n_panels = max(4, int(np.ceil((hi - lo) / (psi.bt / 12.0))))
        edges = np.linspace(lo, hi, n_panels + 1)
        a = np.maximum(edges[None, :-1], rows.t_birth[d, None])
        b = np.minimum(edges[None, 1:], rows.t_death[d, None])
        i, p = np.nonzero(b > a)
        a, b, d = a[i, p], b[i, p], d[i]
        half = 0.5 * (b - a)
        ts = (0.5 * (a + b))[:, None] + half[:, None] * nodes[None, :]
        xs = rows.x_birth[d, None] + rows.sigma[d, None] * (ts - rows.t_birth[d, None])
        total -= float(np.dot(half * defect[d], (psi.t_part(ts) * psi.x_part(xs)) @ weights))
    return total


def _refuse_alive_at(psi: BumpTest, t_end: float) -> None:
    # the identity has no terminal term, so psi must be dead by t_end
    if psi.t_part(t_end) > 0.0:
        raise FluxRangeError(f"the test function {psi} is still alive at the end time {t_end}")


def _max_residual(flux, t0, t_end, make_rows, battery) -> float:
    """Largest |front sum| over a non-empty battery of bumps dead by t_end;
    make_rows() builds the lifetime rows once, after the checks."""
    battery = list(battery)
    if not battery:
        raise FluxRangeError("the weak-form battery is empty: no bump, no max residual")
    for psi in battery:
        _refuse_alive_at(psi, t_end)
    rows = make_rows()
    res = [_front_sum(flux, t0, rows, psi) for psi in battery]
    return float(np.max(np.abs(res)))  # NaN if any is NaN, unlike the builtin max


def trajectory_max_residual(traj, battery=None) -> float:
    if battery is None:
        battery = default_battery_for(traj)
    return _max_residual(traj.flux, traj.t_start, traj.t_end, traj.lifetimes, battery)


def _fan_rows(fan: WaveFan, t_max: float) -> Lifetimes:
    """The fan's jumps as rows born at the origin at t = 0, dying at t_max.

    A shock is one row at sigma. A rarefaction's edges are the rows
    u_lo -> (f')^{-1}(omega_lo) at omega_lo and (f')^{-1}(omega_hi) -> u_hi
    at omega_hi. A row whose two states are equal carries no jump and is
    left out.
    """
    jumps = []
    for w in fan.waves:
        if isinstance(w, Rarefaction):
            in_lo, in_hi = inverse_derivative(fan.flux, np.array(w.support))
            jumps += [(w.omega_lo, w.u_lo, in_lo), (w.omega_hi, in_hi, w.u_hi)]
        else:
            jumps.append((w.sigma, w.u_minus, w.u_plus))
    rows = np.array([(0.0, t_max, 0.0, *j) for j in jumps if j[1] != j[2]], dtype=float)
    return Lifetimes(np.arange(len(rows)), *rows.reshape(-1, 6).T)


def fan_weak_residual(fan: WaveFan, psi: BumpTest, t_max: float) -> float:
    """Residual of a self-similar fan on the strip (0, t_max].

    One front sum over the fan's jumps (_fan_rows): shocks, and the edges
    of rarefactions stretched past their characteristics. A rarefaction
    interior is classical and adds nothing, so exact fans score at
    rounding. The edge rows assume ordered wave supports, which
    validate_fan checks; fans built without it are scored as given.
    """
    check_positive("t_max", t_max)
    _refuse_alive_at(psi, t_max)
    return _front_sum(fan.flux, 0.0, _fan_rows(fan, t_max), psi)


def fan_max_residual(fan: WaveFan, t_max: float = 1.0, battery=None) -> float:
    check_positive("t_max", t_max)
    if battery is None:
        speeds = fan_breakpoints(fan) or [0.0]
        lo = min(speeds) * t_max
        hi = max(speeds) * t_max
        pad = max(1.0, 0.3 * (hi - lo))
        battery = bump_battery(lo - pad, hi + pad, 0.0, t_max)
    return _max_residual(fan.flux, 0.0, t_max, lambda: _fan_rows(fan, t_max), battery)
