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
only Gauss panels in t remain and residuals of exact weak solutions sit
at quadrature noise (< 1e-9). A fan is the same sum over fronts born at
the origin, one per wave; only rarefaction interiors add a remainder,
integrated in omega = x / t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_finite, check_positive
from .quadrature import leggauss
from .fronts import Lifetimes
from .riemann import Rarefaction, WaveFan, evaluate_fan, fan_breakpoints

_N_GAUSS = 14  # Gauss-Legendre nodes per panel, in t and in omega

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

    def value(self, x, t) -> np.ndarray:
        return self.x_part(x) * self.t_part(t)

    def dx(self, x, t) -> np.ndarray:
        return (
            _dbump((np.asarray(x, dtype=float) - self.x0) / self.ax)
            / self.ax
            * self.t_part(t)
        )

    def dt(self, x, t) -> np.ndarray:
        return self.x_part(x) * self.dt_part(t)

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
    lo, hi = traj.support_bbox()
    pad = max(1.0, 0.2 * (hi - lo))
    return bump_battery(lo - pad, hi + pad, traj.t_start, traj.t_end)


def _front_sum(flux, t0, rows, psi: BumpTest) -> float:
    """One Gauss sum over front lifetimes x time panels x nodes.

    psi's time support is cut into at least four panels, none wider than
    bt/12; each lifetime integrates the panels clipped to its life.
    """
    nodes, weights = leggauss(_N_GAUSS)
    t_lo_psi, t_hi_psi = psi.t_support
    jumps_u = rows.u_plus - rows.u_minus
    lo = max(t_lo_psi, t0)
    total = 0.0
    if t_hi_psi > lo:
        n_panels = max(4, int(np.ceil((t_hi_psi - lo) / (psi.bt / 12.0))))
        edges = np.linspace(lo, t_hi_psi, n_panels + 1)
        a = np.maximum(edges[None, :-1], rows.t_birth[:, None])
        b = np.minimum(edges[None, 1:], rows.t_death[:, None])
        r, p = np.nonzero(b > a)
        a, b = a[r, p], b[r, p]
        half = 0.5 * (b - a)
        ts = (0.5 * (a + b))[:, None] + half[:, None] * nodes[None, :]
        xs = rows.x_birth[r, None] + rows.sigma[r, None] * (ts - rows.t_birth[r, None])
        f = flux.f
        jumps_f = np.asarray(f(rows.u_plus)) - np.asarray(f(rows.u_minus))
        term_t = psi.dt_part(ts) * jumps_u[r, None] * psi.x_anti(xs)
        term_x = psi.t_part(ts) * jumps_f[r, None] * psi.x_part(xs)
        total = -float(np.dot(half, (term_t + term_x) @ weights))
    # initial-data term, from the fronts alive at t0
    if t_lo_psi < t0 < t_hi_psi:
        born = rows.t_birth == t0
        total -= float(psi.t_part(t0)) * float(
            np.dot(jumps_u[born], psi.x_anti(rows.x_birth[born]))
        )
    return total


def trajectory_max_residual(traj, battery=None) -> float:
    if battery is None:
        battery = default_battery_for(traj)
    rows = traj.lifetimes()
    res = [_front_sum(traj.flux, traj.t_start, rows, psi) for psi in battery]
    return float(np.max(np.abs(res)))  # NaN if any is NaN, unlike the builtin max


def _gauss_nodes(lo: float, hi: float, n_panels: int):
    """Nodes and weights of n_panels equal Gauss panels on [lo, hi]."""
    nodes, weights = leggauss(_N_GAUSS)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    return (
        ((0.5 * (edges[:-1] + edges[1:]))[:, None] + half * nodes).ravel(),
        (half * weights).ravel(),
    )


def fan_weak_residual(fan: WaveFan, psi: BumpTest, t_max: float) -> float:
    """Residual of a self-similar fan on the strip (0, t_max].

    Each wave is a front born at the origin at its stored lower speed, so
    the front sum is exact on every constant sector. Inside a rarefaction
    the profile differs from that front's right state; the remainder is
    integrated in omega = x / t on fixed Gauss nodes.
    """
    check_positive("t_max", t_max)
    n = len(fan.waves)
    rows = Lifetimes(
        front_id=np.arange(n),
        t_birth=np.zeros(n),
        t_death=np.full(n, float(t_max)),
        x_birth=np.zeros(n),
        sigma=np.array([w.support[0] for w in fan.waves], dtype=float),
        u_minus=np.array([w.left_value for w in fan.waves], dtype=float),
        u_plus=np.array([w.right_value for w in fan.waves], dtype=float),
    )
    total = _front_sum(fan.flux, 0.0, rows, psi)
    lo, hi = max(psi.t_support[0], 0.0), min(psi.t_support[1], t_max)
    if hi <= lo:
        return total
    n_t = max(4, int(np.ceil((hi - lo) / (psi.bt / 12.0))))
    ts, w_t = _gauss_nodes(lo, hi, n_t)
    ts = ts[:, None]
    for w in fan.waves:
        if not isinstance(w, Rarefaction):
            continue
        n_om = max(2, int(np.ceil((w.omega_hi - w.omega_lo) * hi / (psi.ax / 6.0))))
        om, w_om = _gauss_nodes(w.omega_lo, w.omega_hi, n_om)
        u = np.asarray(evaluate_fan(fan, om), dtype=float)
        du = u - w.u_hi
        df = np.asarray(fan.flux.f(u), dtype=float) - float(fan.flux.f(w.u_hi))
        # (u - u_hi, f(u) - f(u_hi)) against (psi_t, psi_x) at x = omega t,
        # where dx = t d(omega)
        xs = om * ts
        integrand = ts * (psi.dt(xs, ts) * du + psi.dx(xs, ts) * df)
        total += float(w_t @ integrand @ w_om)
    return total


def fan_max_residual(fan: WaveFan, t_max: float = 1.0, battery=None) -> float:
    check_positive("t_max", t_max)
    if battery is None:
        speeds = fan_breakpoints(fan) or [0.0]
        lo = min(speeds) * t_max
        hi = max(speeds) * t_max
        pad = max(1.0, 0.3 * (hi - lo))
        battery = bump_battery(lo - pad, hi + pad, 0.0, t_max)
    return float(np.max(np.abs([fan_weak_residual(fan, psi, t_max) for psi in battery])))
