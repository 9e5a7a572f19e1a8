"""Finite-volume oracle: Godunov scheme with discrete entropy accounting.

The interface flux is the flux of the exact local fan sampled on the
interface ray, which for convex flux reduces to the extremum rule

    F(u_L, u_R) = min over [u_L, u_R] of f   if u_L <= u_R,
                  max over [u_R, u_L] of f   otherwise,

attained at an interface state u*. The matching numerical entropy flux
xi(u*) makes the scheme entropy stable cell by cell, so the recorded
per-step production is nonpositive for every run; for a single shock it
converges to -D dt, the negative of the jump production rate times the
step. Grids are values: stepping returns a new grid.

The working interval pads the initial support by t_end times the
largest characteristic speed of the initial state range plus two cells,
and ghost cells hold the constant tail states of the data, so the
boundary cells never activate: for compact data mass telescopes
exactly, and for unequal tails the mass grows by exactly the net flux
f(tail_left) - f(tail_right) per unit time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .compare import observed_orders
from .entropy import _as_pair, quadratic_pair
from .errors import CFLError, FluxRangeError
from .fluxes import ConvexFlux, inverse_derivative


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-average grid on [x_min, x_max] at a fixed time.

    tail_left and tail_right are the ghost values outside the interval;
    with sufficient padding the adjacent cells hold them exactly.
    """

    x_min: float
    x_max: float
    n_cells: int
    nu: float
    time: float
    u: np.ndarray
    tail_left: float = 0.0
    tail_right: float = 0.0

    def __post_init__(self):
        if self.n_cells < 2:
            raise FluxRangeError(f"need at least 2 cells, got {self.n_cells}")
        if not (0.0 < self.nu <= 1.0):
            raise FluxRangeError(f"CFL number must lie in (0, 1], got {self.nu}")
        if self.x_max <= self.x_min:
            raise FluxRangeError(
                f"empty interval [{self.x_min}, {self.x_max}]"
            )
        if self.u.shape != (self.n_cells,):
            raise FluxRangeError(
                f"cell array has shape {self.u.shape}, expected ({self.n_cells},)"
            )

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_cells + 1)

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def mass(self) -> float:
        return float(np.sum(self.u)) * self.dx

    def to_step(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell averages as a step function extended by the tails."""
        vals = np.concatenate(([self.tail_left], self.u, [self.tail_right]))
        return self.edges, vals


def _sonic_state(flux: ConvexFlux) -> float:
    R = flux.domain_radius
    lo = float(flux.df(-R))
    hi = float(flux.df(R))
    if lo >= 0.0:
        return -R
    if hi <= 0.0:
        return R
    return float(inverse_derivative(flux, 0.0))


def interface_state(flux: ConvexFlux, u_left, u_right) -> np.ndarray:
    """State whose flux is the Godunov interface flux (vectorized).

    Ascending data take the minimum of f over [u_left, u_right], which
    convexity puts at the sonic state clipped to the interval; descending
    data take the maximum, at whichever endpoint has the larger flux,
    with ties resolved to the left.
    """
    return _interface_state(flux, u_left, u_right, _sonic_state(flux))


def _interface_state(flux: ConvexFlux, u_left, u_right, u_s: float) -> np.ndarray:
    ul = np.asarray(u_left, dtype=float)
    ur = np.asarray(u_right, dtype=float)
    rarefaction = np.clip(u_s, np.minimum(ul, ur), np.maximum(ul, ur))
    shock = np.where(
        np.asarray(flux.f(ur)) > np.asarray(flux.f(ul)), ur, ul
    )
    return np.where(ul <= ur, rarefaction, shock)


def interface_flux(flux: ConvexFlux, u_left, u_right) -> np.ndarray:
    return np.asarray(flux.f(interface_state(flux, u_left, u_right)))


def max_char_speed(flux: ConvexFlux, u) -> float:
    """Largest |f'| over the closed hull of the given states."""
    u = np.asarray(u, dtype=float)
    lo = float(np.min(u))
    hi = float(np.max(u))
    return max(abs(float(flux.df(lo))), abs(float(flux.df(hi))))


def cfl_dt(grid: Grid1D, flux: ConvexFlux) -> float:
    """Largest step honoring dt * max|f'| / dx <= nu, from [-R, R]."""
    R = flux.domain_radius
    speed = max(abs(float(flux.df(-R))), abs(float(flux.df(R))))
    if speed == 0.0:
        raise FluxRangeError("flux has no characteristic speed on the band")
    return grid.nu * grid.dx / speed


def godunov_step(grid: Grid1D, flux: ConvexFlux, dt: float | None = None) -> Grid1D:
    """One conservative update with zero ghost cells.

    dt defaults to the CFL-limited step; passing a larger dt raises.
    """
    if dt is None:
        dt = cfl_dt(grid, flux)
    return _step(grid, flux, dt, _sonic_state(flux))


def _step(grid: Grid1D, flux: ConvexFlux, dt: float, u_s: float) -> Grid1D:
    limit = grid.dx / max(max_char_speed(flux, grid.u), 1e-300)
    if dt > grid.nu * limit * (1.0 + 1e-12):
        raise CFLError(
            f"dt={dt} exceeds the CFL bound {grid.nu * limit} "
            f"(nu={grid.nu}, dx={grid.dx})"
        )
    padded = np.concatenate(([grid.tail_left], grid.u, [grid.tail_right]))
    F = np.asarray(flux.f(_interface_state(flux, padded[:-1], padded[1:], u_s)))
    u_new = grid.u - (dt / grid.dx) * (F[1:] - F[:-1])
    return replace(grid, time=grid.time + dt, u=u_new)


def cell_averages_from_step(xs, us, edges: np.ndarray) -> np.ndarray:
    """Exact cell averages of the step function (xs, us) on the grid."""
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    # Primitive of the step at the cell edges, then difference.
    if xs.size == 0:
        return np.full(edges.size - 1, float(us[0]))
    knots = np.concatenate(([0.0], np.cumsum(us[1:-1] * np.diff(xs))))
    prim = np.interp(edges, xs, knots)
    prim += np.where(edges < xs[0], (edges - xs[0]) * us[0], 0.0)
    prim += np.where(edges > xs[-1], (edges - xs[-1]) * us[-1], 0.0)
    return np.diff(prim) / np.diff(edges)


@dataclass(frozen=True)
class GodunovRun:
    """History of one run: per-step production and requested snapshots."""

    flux_name: str
    grid0: Grid1D
    grid: Grid1D
    step_times: np.ndarray
    step_ep: np.ndarray
    mass_drift: float
    snapshots: tuple[Grid1D, ...]


def numerical_ep(grids, flux: ConvexFlux, pair=None) -> np.ndarray:
    """Signed per-step entropy production of a grid sequence.

    For each consecutive pair, sum of [eta(u_new) - eta(u_old)] dx plus
    dt times the telescoped numerical entropy flux difference at the two
    outer interfaces (zero ghosts). Nonpositive for every Godunov step;
    for a lone entropic shock it approaches -D dt.
    """
    pair = quadratic_pair(flux) if pair is None else _as_pair(pair)
    u_s = _sonic_state(flux)
    return np.asarray([
        _step_ep(before, after, flux, pair, u_s)
        for before, after in zip(grids[:-1], grids[1:])
    ])


def _step_ep(before: Grid1D, after: Grid1D, flux: ConvexFlux, pair, u_s: float) -> float:
    dt = after.time - before.time
    dx = before.dx
    d_eta = np.sum(
        np.asarray(pair.eta(after.u)) - np.asarray(pair.eta(before.u))
    ) * dx
    u_left_ghost = _interface_state(flux, before.tail_left, before.u[0], u_s)
    u_right_ghost = _interface_state(flux, before.u[-1], before.tail_right, u_s)
    boundary = float(np.asarray(pair.xi(u_right_ghost))) - float(
        np.asarray(pair.xi(u_left_ghost))
    )
    return float(d_eta) + dt * boundary


def run_godunov(
    flux: ConvexFlux,
    xs,
    us,
    t_end: float,
    n_cells: int,
    nu: float = 0.9,
    snapshot_times=(),
) -> GodunovRun:
    """Evolve step data to t_end on a padded grid, recording production.

    Snapshots are emitted at the first step reaching each requested time
    (the step is shortened to land exactly on it, CFL still honored).
    """
    if t_end < 0.0:
        raise FluxRangeError(f"t_end must be nonnegative, got {t_end}")
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    if us.size != xs.size + 1:
        raise FluxRangeError(
            f"need len(us) == len(xs) + 1, got {us.size} and {xs.size}"
        )
    span_lo = float(xs[0]) if xs.size else -1.0
    span_hi = float(xs[-1]) if xs.size else 1.0
    pad = t_end * max_char_speed(flux, us)
    base = (span_hi - span_lo) + 2.0 * pad
    if n_cells < 8:
        raise FluxRangeError(f"need at least 8 cells, got {n_cells}")
    dx = base / (n_cells - 4)
    x_min = span_lo - pad - 2.0 * dx
    x_max = span_hi + pad + 2.0 * dx
    edges = np.linspace(x_min, x_max, n_cells + 1)
    grid = Grid1D(
        x_min=x_min,
        x_max=x_max,
        n_cells=n_cells,
        nu=nu,
        time=0.0,
        u=cell_averages_from_step(xs, us, edges),
        tail_left=float(us[0]),
        tail_right=float(us[-1]),
    )
    grid0 = grid
    wanted = sorted(float(t) for t in snapshot_times)
    for t in wanted:
        if t < 0.0 or t > t_end + 1e-12:
            raise FluxRangeError(f"snapshot time {t} outside [0, {t_end}]")
    mass0 = grid.mass
    # With tail ghosts, mass changes by exactly the net boundary flux.
    net_influx = float(np.asarray(flux.f(us[0]))) - float(np.asarray(flux.f(us[-1])))
    drift = 0.0
    times = [0.0]
    eps = []
    snaps = []
    w_idx = 0
    while w_idx < len(wanted) and wanted[w_idx] <= 0.0:
        snaps.append(grid)
        w_idx += 1
    # Per-run invariants: the grid's dx and nu never change, nor the flux.
    dt_cfl = cfl_dt(grid, flux)
    u_s = _sonic_state(flux)
    pair = quadratic_pair(flux)
    while grid.time < t_end - 1e-14:
        target = t_end
        if w_idx < len(wanted):
            target = min(target, wanted[w_idx])
        dt = min(dt_cfl, target - grid.time)
        new = _step(grid, flux, dt, u_s)
        eps.append(_step_ep(grid, new, flux, pair, u_s))
        grid = new
        times.append(grid.time)
        drift = max(drift, abs(grid.mass - mass0 - net_influx * grid.time))
        while w_idx < len(wanted) and grid.time >= wanted[w_idx] - 1e-14:
            snaps.append(grid)
            w_idx += 1
    return GodunovRun(
        flux_name=flux.name,
        grid0=grid0,
        grid=grid,
        step_times=np.asarray(times),
        step_ep=np.asarray(eps),
        mass_drift=drift,
        snapshots=tuple(snaps),
    )


def convergence_study(
    flux: ConvexFlux,
    xs,
    us,
    t_end: float,
    n_list,
    reference,
    nu: float = 0.9,
) -> dict:
    """Exact L1 errors against a tracked reference at t_end, with orders.

    reference is a trajectory exposing state_at(t); both sides are step
    functions with zero tails, so the distance integrates exactly.
    """
    from .compare import fitted_order, l1_steps

    ref_xs, ref_vals = reference.state_at(t_end).to_step()
    errors = []
    widths = []
    for n in n_list:
        run = run_godunov(flux, xs, us, t_end, int(n), nu=nu)
        sx, sv = run.grid.to_step()
        errors.append(l1_steps(sx, sv, ref_xs, ref_vals))
        widths.append(run.grid.dx)
    orders = observed_orders(widths, errors)
    return {
        "n_cells": [int(n) for n in n_list],
        "dx": widths,
        "l1_error": errors,
        "observed_order": orders,
        "fitted_order": fitted_order(widths, errors),
    }
