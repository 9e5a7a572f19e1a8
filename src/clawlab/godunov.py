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

The step kernel takes the same flux from the max rule (LeVeque, Finite
Volume Methods for Hyperbolic Problems, 2002, ch. 12)

    F(u_L, u_R) = max(f(max(u_L, u_s)), f(min(u_R, u_s))),

u_s the sonic state (ConvexFlux.sonic_state, computed once per flux
object). A step writes max(u, u_s) and min(u, u_s) of the padded cells
into the two rows of one work array and evaluates f once, on both rows;
besides f it makes six numpy calls, none of which allocates. In each
case the extremum rule's state u* is u_L, u_R or u_s, and the max rule
picks the same f value whenever f in floating point has its minimum at
f(u_s) and is monotone on each side of u_s. That holds for burgers,
cosh and poly4 (u_s = 0 and f(0) = 0 <= f) and for a shifted quadratic,
so there both rules agree bit for bit. A user flux need not have its
floating-point minimum at f(u_s): exp(u) - 2u rounds below f(log 2)
within about 1e-8 of log 2, and an interface with a state that close to
u_s can take a flux one rounding step (2.2e-16) away from the extremum
rule's. The interface states themselves stay in use:
interface_state and the step ledger's ghost states need u*, because xi
takes the state, not its flux.

The working interval pads the initial support by t_end times the
largest characteristic speed of the initial state range plus two cells,
and ghost cells hold the constant tail states of the data. The exact
waves never reach the boundary cells, but numerical diffusion runs
ahead of them, so on long runs it can: burgers data on [-0.6, 0.7] run
to t_end = 3.468 on 110 cells end with the last cell 2.0e-5 below its
tail. While the boundary cells hold the tails, mass telescopes exactly
for compact data, and for unequal tails it grows by exactly the net flux
f(tail_left) - f(tail_right) per unit time; mass_drift measures any leak
from the end cells beyond that. The padding stays as it is, because a
wider one moves every grid and so every number computed from one.

The step is cfl_dt, which bounds the speed over the whole band [-R, R]
on purpose: a step from the data's hull raises the effective Courant
number of a lone shock and changes every number.

run_godunov's loop only advances cells: each step writes its cells into
one row of a short history buffer, and the time the steps aim at (the
next snapshot time or t_end) is recomputed only when a step reaches it.
Once per chunk of steps, one array pass over the rows checks every
step's CFL bound against the hull of its starting cells and books the
per-step entropy production and the mass drift. No step reads these
numbers, so they can come from the stored rows after the fact. The
check is sound when deferred: the first offending step raises the same
CFLError that an immediate check would, before run_godunov returns, so
a violating run yields no result. A correct run never trips it: the
scheme is monotone under the CFL bound (Crandall & Majda, Math. Comp.
34, 1980), so the cells stay in the data's hull, and cfl_dt bounds the
whole band. godunov_step checks its one step at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .compare import fitted_order, l1_steps, observed_orders, step_data, step_primitive
from .entropy import quadratic_pair
from .errors import CFLError, FluxRangeError, check_finite
from .fluxes import ConvexFlux, _check_band


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
        for name in ("x_min", "x_max", "time", "tail_left", "tail_right"):
            check_finite(name, getattr(self, name))
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
        return self.edges, _padded(self)


def interface_state(flux: ConvexFlux, u_left, u_right) -> np.ndarray:
    """State whose flux is the Godunov interface flux (vectorized).

    Ascending data take the minimum of f over [u_left, u_right], which
    convexity puts at the sonic state clipped to the interval; descending
    data take the maximum, at whichever endpoint has the larger flux,
    with ties resolved to the left.
    """
    ul = np.asarray(u_left, dtype=float)
    ur = np.asarray(u_right, dtype=float)
    return _interface_states(
        ul, ur, np.asarray(flux.f(ul)), np.asarray(flux.f(ur)), flux.sonic_state
    )


def _interface_states(ul, ur, f_left, f_right, u_s: float) -> np.ndarray:
    """The rule of interface_state, given f on both sides of each interface."""
    rarefaction = np.minimum(np.maximum(u_s, ul), ur)
    shock = np.where(f_right > f_left, ur, ul)
    return np.where(ul <= ur, rarefaction, shock)


def interface_flux(flux: ConvexFlux, u_left, u_right) -> np.ndarray:
    return np.asarray(flux.f(interface_state(flux, u_left, u_right)))


def max_char_speed(flux: ConvexFlux, u) -> float:
    """Largest |f'| over the closed hull of the given states."""
    u = np.asarray(u, dtype=float)
    return float(_hull_speed(flux, u.min(), u.max()))


def _hull_speed(flux: ConvexFlux, lo, hi):
    """Largest |f'| over [lo, hi], elementwise: f' is monotone, so an end
    of the interval attains it."""
    return np.maximum(np.abs(flux.df(lo)), np.abs(flux.df(hi)))


def _check_cfl(flux: ConvexFlux, rows: np.ndarray, dts: np.ndarray, dx: float, nu: float):
    """Raise CFLError for the first step whose dt breaks the CFL bound.

    rows[i] holds the cells at the start of step i and dts[i] its dt; the
    bound comes from the hull of those cells.
    """
    speed = _hull_speed(flux, rows.min(axis=1), rows.max(axis=1))
    limit = nu * (dx / np.maximum(speed, 1e-300))
    bad = dts > limit * (1.0 + 1e-12)
    if bad.any():
        i = int(np.argmax(bad))
        raise CFLError(
            f"dt={float(dts[i])} exceeds the CFL bound {float(limit[i])} (nu={nu}, dx={dx})"
        )


def cfl_dt(grid: Grid1D, flux: ConvexFlux) -> float:
    """Largest step honoring dt * max|f'| / dx <= nu, from [-R, R]."""
    R = flux.domain_radius
    speed = float(_hull_speed(flux, -R, R))
    if speed == 0.0:
        raise FluxRangeError("flux has no characteristic speed on the band")
    return grid.nu * grid.dx / speed


def godunov_step(grid: Grid1D, flux: ConvexFlux, dt: float | None = None) -> Grid1D:
    """One conservative update with zero ghost cells.

    dt defaults to the CFL-limited step; passing a larger dt raises, and
    so does a negative or non-finite one.
    """
    if dt is None:
        dt = cfl_dt(grid, flux)
    if not 0.0 <= dt < np.inf:
        raise FluxRangeError(f"dt must be finite and nonnegative, got dt = {dt}")
    _check_cfl(flux, grid.u[None, :], np.array([dt]), grid.dx, grid.nu)
    u = np.empty(grid.n_cells)
    _update(_padded(grid), u, dt, grid.dx, flux.f, flux.sonic_state)
    return replace(grid, time=grid.time + dt, u=u)


def _padded(grid: Grid1D) -> np.ndarray:
    return np.concatenate(([grid.tail_left], grid.u, [grid.tail_right]))


def _kernel_work(n_cells: int) -> tuple:
    """Scratch arrays of _update for n_cells cells, with the views it
    writes through: the (2, n + 2) array lr and its rows, the n + 1
    interface fluxes F and their right and left ends, and the n flux
    differences d. A caller stepping many times makes them once."""
    lr, F, d = np.empty((2, n_cells + 2)), np.empty(n_cells + 1), np.empty(n_cells)
    return lr, lr[0], lr[1], F, F[1:], F[:-1], d


def _update(
    padded: np.ndarray, out: np.ndarray, dt: float, dx: float, f, u_s: float, work=None
):
    """The step kernel: write the cells padded[1:-1] advanced by dt to out.

    The ends of padded hold the tails. The interface flux is the max rule
    max(f(max(u_L, u_s)), f(min(u_R, u_s))) of the module docstring: the
    rows of lr hold max(padded, u_s) and min(padded, u_s), and f is
    evaluated once, on both rows. work is _kernel_work(n), made here when
    not passed; apart from f, no call allocates.
    """
    lr, lr_max, lr_min, F, F_right, F_left, d = work or _kernel_work(out.size)
    np.maximum(padded, u_s, out=lr_max)
    np.minimum(padded, u_s, out=lr_min)
    g = f(lr)
    np.maximum(g[0, :-1], g[1, 1:], out=F)
    np.subtract(F_right, F_left, out=d)
    np.multiply(d, dt / dx, out=d)
    np.subtract(padded[1:-1], d, out=out)


def cell_averages_from_step(xs, us, edges: np.ndarray) -> np.ndarray:
    """Exact cell averages of the step function (xs, us) on the grid."""
    xs, us = step_data(xs, us)
    check_finite("edges", edges)
    if xs.size == 0:
        return np.full(edges.size - 1, float(us[0]))
    return np.diff(step_primitive(xs, us, edges)) / np.diff(edges)


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


def numerical_ep(grids, flux: ConvexFlux) -> np.ndarray:
    """Signed per-step quadratic entropy production of a grid sequence.

    For each consecutive pair, sum of [eta(u_new) - eta(u_old)] dx plus
    dt times the telescoped numerical entropy flux difference at the two
    outer interfaces (zero ghosts). Nonpositive for every Godunov step;
    for a lone entropic shock it approaches -D dt.
    """
    before, after = grids[:-1], grids[1:]
    return _step_ledger(
        np.stack([_padded(g) for g in grids]),
        np.array([b.time - a.time for a, b in zip(before, after)], dtype=float),
        np.array([g.dx for g in before], dtype=float),
        flux,
        quadratic_pair(flux),
        flux.sonic_state,
    )


def _step_ledger(rows: np.ndarray, dts, dx, flux: ConvexFlux, pair, u_s: float) -> np.ndarray:
    """Discrete entropy production of each step of a sequence of padded rows.

    Step i takes the cells rows[i, 1:-1] to rows[i + 1, 1:-1] in dts[i];
    the end columns hold the tails. Its production is the sum of
    [eta(u_new) - eta(u_old)] dx plus dt times the numerical entropy flux
    difference xi(right ghost) - xi(left ghost), the ghosts being the
    interface states of (tail_left, u[0]) and (u[-1], tail_right) at the
    step's start.
    """
    eta = np.asarray(pair.eta(rows[:, 1:-1]))
    d_eta = (eta[1:] - eta[:-1]).sum(axis=1) * dx
    ul, ur = rows[:-1, [0, -2]], rows[:-1, [1, -1]]
    ghosts = _interface_states(ul, ur, np.asarray(flux.f(ul)), np.asarray(flux.f(ur)), u_s)
    xi = np.asarray(pair.xi(ghosts))
    return d_eta + dts * (xi[:, 1] - xi[:, 0])


def _chunk_steps(n_cells: int) -> int:
    """Steps per chunk of run_godunov: its history buffer holds at most
    131072 cells (1 MiB), and at most 64 steps share one pass.

    A step makes six numpy calls besides f; a chunk's pass makes about 55
    (burgers) to 70 (poly4) whatever its size, so too few steps per chunk
    pay that cost too often, and a buffer far past the CPU's cache slows
    every pass over the rows.
    """
    return max(1, min(64, 131072 // n_cells))


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
    (the step is shortened to land exactly on it, CFL still honored), one
    per requested time: a time up to 1e-12 past t_end gets the final grid.
    A state outside the flux band, NaN included, raises FluxRangeError, and
    so does any other illegal step data (compare.step_data).
    """
    if not 0.0 <= t_end < np.inf:
        raise FluxRangeError(f"t_end must be finite and nonnegative, got {t_end}")
    _check_band(flux, us, "state")
    xs, us = step_data(xs, us)
    span_lo = float(xs[0]) if xs.size else -1.0
    span_hi = float(xs[-1]) if xs.size else 1.0
    pad = t_end * max_char_speed(flux, us)
    base = (span_hi - span_lo) + 2.0 * pad
    if base == 0.0:  # one breakpoint that does not move gets constant data's width
        span_lo, span_hi, base = span_lo - 1.0, span_hi + 1.0, 2.0
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
        if not 0.0 <= t <= t_end + 1e-12:
            raise FluxRangeError(f"snapshot time {t} outside [0, {t_end}]")
    wanted.append(np.inf)  # past the last snapshot time
    mass0 = grid.mass
    # With tail ghosts, mass changes by exactly the net boundary flux.
    net_influx = float(np.asarray(flux.f(us[0]))) - float(np.asarray(flux.f(us[-1])))
    drift = 0.0
    times = [0.0]
    eps = []
    snaps = []
    w_idx = 0
    while wanted[w_idx] <= 0.0:
        snaps.append(grid)
        w_idx += 1
    # Per-run invariants: the grid's dx and nu never change, nor the flux.
    dx = grid.dx
    dt_cfl = cfl_dt(grid, flux)
    f = flux.f
    u_s = flux.sonic_state
    pair = quadratic_pair(flux)
    # Step i of a chunk reads row i of hist and writes row i + 1; the end
    # columns hold the tails. After each chunk one pass over the rows checks
    # CFL and books EP and mass drift, and the last row becomes row 0.
    chunk = _chunk_steps(n_cells)
    hist = np.tile(_padded(grid), (chunk + 1, 1))
    rows = [(hist[k], hist[k + 1, 1:-1]) for k in range(chunk)]
    work = _kernel_work(n_cells)
    time = 0.0
    # The step lands on target, the next snapshot time or t_end; it changes
    # only once the run reaches it.
    target = min(t_end, wanted[w_idx])
    while time < t_end - 1e-14:
        dts = []  # the CFL check reads dt, the EP the step's time difference
        for padded, out in rows:
            dt = min(dt_cfl, target - time)
            _update(padded, out, dt, dx, f, u_s, work)
            dts.append(dt)
            time = time + dt
            times.append(time)
            if time >= target - 1e-14:
                while time >= wanted[w_idx] - 1e-14:
                    snaps.append(replace(grid0, time=time, u=out.copy()))
                    w_idx += 1
                target = min(t_end, wanted[w_idx])
                if time >= t_end - 1e-14:
                    break
        k = len(dts)
        cells = hist[: k + 1, 1:-1]
        _check_cfl(flux, cells[:-1], np.array(dts), dx, nu)
        t_rows = np.asarray(times[-k - 1 :])
        eps.append(_step_ledger(hist[: k + 1], np.diff(t_rows), dx, flux, pair, u_s))
        mass = cells[1:].sum(axis=1) * dx
        drift = max(drift, float(np.max(np.abs(mass - mass0 - net_influx * t_rows[1:]))))
        hist[0] = hist[k]
    if eps:
        grid = replace(grid0, time=time, u=hist[0, 1:-1].copy())
    # Times that no step reached lie past the last one by at most 1e-12
    # (when t_end is 0, no step runs): they get the final grid.
    snaps += [grid] * (len(wanted) - 1 - w_idx)
    return GodunovRun(
        flux_name=flux.name,
        grid0=grid0,
        grid=grid,
        step_times=np.asarray(times),
        step_ep=np.concatenate(eps) if eps else np.zeros(0),
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
