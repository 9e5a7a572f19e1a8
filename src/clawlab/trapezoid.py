"""Trapezoid space-time domains and the boundary re-solve (splice).

The domain Gamma between times t1 < t2 has a flat bottom [-delta, delta]
at t1 and lateral edges spreading at slope 1/lambda_hat, so at time t its
section is [theta_minus(t), theta_plus(t)] with

    theta_plus(t) = delta + (t - t1) / lambda_hat,   theta_minus = -theta_plus.

With lambda_hat below the reciprocal of the largest admissible wave speed
(lambda0), every tracked front crosses the lateral boundary Lambda
transversally and the whole boundary is spacelike: the solution inside
Gamma is determined by its trace on Lambda alone.

trace_on_lambda intersects a trajectory's front lifetimes with Lambda
and records each crossing as a breakpoint of a step function in the
boundary parameter s (the x-coordinate of the boundary point). The trace
values come from the crossings: Lambda meets no front between two of
them, so each piece holds the state its left crossing hands on.
trapezoid_splice then rebuilds the solution inside Gamma from that trace
alone: the flat part of the trace seeds an entropic re-solve at t1, and
each lateral breakpoint becomes a timed uncover event injecting the newly
exposed boundary value at the moving edge, resolved entropically on
insertion.
Outside Gamma the original trajectory is kept verbatim; the two pieces
agree along Lambda by construction, so the composite is again a weak
solution on the whole strip, with every non-entropic front that lived
inside Gamma replaced by admissible structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compare import step_values
from .entropy import _Domain
from .errors import ClawError, FluxRangeError, InvariantViolation, TangencyError
from .errors import check_finite, check_positive
from .fluxes import ConvexFlux
from .fronts import (
    FrontState,
    Trajectory,
    _fragment_step,
    _track,
    entropic_resolve_state,
    front_state,
)

_CORNER_TOL = 1e-9
_TANGENT_TOL = 1e-10


@dataclass(frozen=True)
class TrapezoidDomain(_Domain):
    """Open trapezoid {(x, t): t1 < t < t2, |x| < delta + (t - t1)/lambda_hat}.

    t1, t2 and delta are finite; `edges` gives the lateral edges as lines."""

    t1: float
    t2: float
    delta: float
    lambda_hat: float

    def __post_init__(self):
        if not (-np.inf < self.t1 < self.t2 < np.inf):
            raise FluxRangeError(f"need finite t1 < t2, got [{self.t1}, {self.t2}]")
        check_positive("delta", self.delta)
        if not (0.0 < self.lambda_hat <= 1.0):
            raise FluxRangeError(
                f"lambda_hat must lie in (0, 1], got {self.lambda_hat}"
            )

    def theta_plus(self, t) -> np.ndarray | float:
        return self.delta + (np.asarray(t, dtype=float) - self.t1) / self.lambda_hat

    def theta_minus(self, t) -> np.ndarray | float:
        return -self.theta_plus(t)

    @property
    def s_max(self) -> float:
        return float(self.theta_plus(self.t2))

    def boundary_time(self, s: float) -> float:
        """Time at which the lateral boundary passes the x-coordinate s."""
        return self.t1 + self.lambda_hat * max(abs(s) - self.delta, 0.0)

    def contains(self, x: float, t: float) -> bool:
        if not (self.t1 < t < self.t2):
            return False
        return abs(x) < float(self.theta_plus(t))

    @property
    def span(self) -> tuple[float, float]:
        return (self.t1, self.t2)

    @property
    def edges(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Left and right lateral edges x = p + q t, as (p, q)."""
        inv = 1.0 / self.lambda_hat
        return ((-self.delta + inv * self.t1, -inv), (self.delta - inv * self.t1, inv))


def lambda0(flux: ConvexFlux, boundary_sup: float = 1.0) -> float:
    """Largest admissible lambda_hat for traces bounded by boundary_sup.

    Reciprocal of the flux derivative at R + 1 + boundary_sup, a strict
    upper bound for every chord speed of states in the working band.
    """
    check_finite("boundary_sup", boundary_sup)
    reach = flux.domain_radius + 1.0 + abs(boundary_sup)
    return 1.0 / max(abs(float(flux.df(reach))), abs(float(flux.df(-reach))))


def validate_domain(
    dom: TrapezoidDomain, flux: ConvexFlux, boundary_sup: float = 1.0
) -> None:
    lam0 = lambda0(flux, boundary_sup)
    if dom.lambda_hat > lam0 + 1e-15:
        raise FluxRangeError(
            f"lambda_hat={dom.lambda_hat} exceeds lambda0={lam0}; lateral "
            "boundary would not be spacelike for this flux"
        )


@dataclass(frozen=True)
class Crossing:
    s: float
    time: float
    side: str  # "flat" | "left" | "right"
    front_id: int
    u_before: float  # value on the smaller-s side at the crossing
    u_after: float


@dataclass
class LambdaTrace:
    """Piecewise-constant boundary data along Lambda, in the parameter s."""

    dom: TrapezoidDomain
    s_breaks: np.ndarray
    values: np.ndarray
    crossings: list[Crossing] = field(default_factory=list)

    def value_at(self, s: float | np.ndarray):
        """Left-limit trace value at every point of s, which must be finite."""
        s = np.asarray(s, dtype=float)
        check_finite("s", s)
        return step_values(self.s_breaks, self.values, s)


def trace_on_lambda(traj: Trajectory, dom: TrapezoidDomain) -> LambdaTrace:
    """Boundary data of a tracked trajectory along Lambda.

    The fronts alive at t1 cross the flat bottom; each front lifetime is
    intersected with the two lateral edge lines of dom.edges. Tangent fronts (speed within
    1e-10 of the edge slope) raise TangencyError, crossings within 1e-9 of
    a corner raise ClawError, and t1 must not coincide with an event time.
    Piece values come from the crossings; a crossing whose u_after is not
    the next one's u_before raises InvariantViolation.
    """
    if traj.t_start > dom.t1 or traj.t_end < dom.t2 - 1e-12:
        raise FluxRangeError(
            f"trajectory spans [{traj.t_start}, {traj.t_end}], cannot trace "
            f"the domain [{dom.t1}, {dom.t2}]"
        )
    for te in traj.event_times():
        if abs(te - dom.t1) <= 1e-12:
            raise ClawError(
                f"t1={dom.t1} coincides with an event time; shift the window"
            )
    edges = dom.edges
    crossings: list[Crossing] = []

    flat = traj.state_at(dom.t1)
    states, ids = flat.states.tolist(), flat.front_ids.tolist()
    for j, x in enumerate(flat.positions.tolist()):
        if abs(abs(x) - dom.delta) <= _CORNER_TOL:
            raise ClawError(
                f"front crosses within {_CORNER_TOL} of a trapezoid corner "
                f"(x={x}, t={dom.t1}); adjust delta or t1"
            )
        if abs(x) < dom.delta:
            crossings.append(
                Crossing(
                    s=x,
                    time=dom.t1,
                    side="flat",
                    front_id=ids[j],
                    u_before=states[j],
                    u_after=states[j + 1],
                )
            )

    for fid, t_b, t_d, x_b, sigma, um, up in traj.lifetimes():
        lo_t = max(t_b, dom.t1)
        hi_t = min(t_d, dom.t2)
        if hi_t <= lo_t:
            continue
        for _, q in edges:
            if abs(sigma - q) <= _TANGENT_TOL:
                raise TangencyError(
                    f"front {fid} speed {sigma} is tangent to the lateral boundary slope {q}"
                )
        for (p, q), side in zip(edges, ("left", "right")):
            t_star = (p - x_b + sigma * t_b) / (sigma - q)
            if not (lo_t < t_star <= hi_t):
                continue
            s = x_b + sigma * (t_star - t_b)
            if abs(abs(s) - dom.delta) <= _CORNER_TOL:
                raise ClawError(
                    f"front crosses within {_CORNER_TOL} of a trapezoid "
                    f"corner (s={s}); adjust delta or t1"
                )
            if (side == "left" and s >= -dom.delta) or (
                side == "right" and s <= dom.delta
            ):
                continue
            if abs(s) > dom.s_max + 1e-12:
                continue
            crossings.append(Crossing(s, t_star, side, fid, u_before=um, u_after=up))

    crossings.sort(key=lambda c: c.s)
    s_breaks = np.array([c.s for c in crossings])
    if s_breaks.size > 1 and float(np.min(np.diff(s_breaks))) <= 1e-12:
        raise ClawError("two boundary crossings coincide; adjust the window")
    for c, nxt in zip(crossings, crossings[1:]):
        if c.u_after != nxt.u_before:
            raise InvariantViolation(
                f"boundary crossings at s={c.s} and s={nxt.s} do not chain: "
                f"{c.u_after} vs {nxt.u_before}"
            )
    first = crossings[0].u_before if crossings else float(flat.value_at(0.0))
    values = [first] + [c.u_after for c in crossings]
    return LambdaTrace(dom, s_breaks, np.asarray(values), crossings)


def _merge_states(
    orig: FrontState,
    res: FrontState,
    t_emit: float,
    t_ref: float,
    dom: TrapezoidDomain,
    id_offset: int,
    flux: ConvexFlux,
) -> FrontState:
    """Composite snapshot at t_emit: orig outside Gamma's section at t_ref, res inside.

    Reads each snapshot once, as rows of its front table. orig's fronts left
    of the section (a prefix), res's inside it (a contiguous run) and orig's
    right of it (a suffix) give the composite's columns; res's ids get
    id_offset in int64, so an id past the int32 range is refused by name,
    not wrapped. Seam states more than 1e-9 apart raise InvariantViolation;
    zero-width jumps left by seam rounding are dropped.
    """
    bl = float(dom.theta_minus(t_ref))
    br = float(dom.theta_plus(t_ref))
    o_rows, r_rows = orig.rows, res.rows
    o_speeds, r_speeds = orig.table.speed.take(o_rows), res.table.speed.take(r_rows)
    xo = orig.positions + (t_ref - orig.time) * o_speeds
    xr = res.positions + (t_ref - res.time) * r_speeds
    # orig's fronts [0, a) lie left of the section and [b, m) right of it,
    # res's fronts [lo, hi) inside it
    m = len(o_rows)
    a = int(np.count_nonzero(xo < bl))
    b = m - int(np.count_nonzero(xo > br))
    inside = np.flatnonzero((xr > bl) & (xr < br))
    o_states = np.concatenate(([orig.left_state], orig.table.u_plus.take(o_rows)))
    r_states = np.concatenate(([res.left_state], res.table.u_plus.take(r_rows)))
    if inside.size:
        lo, hi = int(inside[0]), int(inside[-1]) + 1
        r_first, r_last = r_states[lo], r_states[hi]
    else:
        lo = hi = 0
        r_first = r_last = float(res.value_at(0.5 * (bl + br)))
    for seam, u_l, u_r in (("left", o_states[a], r_first), ("right", r_last, o_states[b])):
        if abs(u_l - u_r) > 1e-9:
            raise InvariantViolation(
                f"splice seam mismatch on the {seam} edge at t={t_ref}: "
                f"{u_l} vs {u_r}"
            )
    # the composite's fronts, as places in orig's fronts followed by res's
    pick = np.concatenate((np.arange(a), np.arange(m + lo, m + hi), np.arange(b, m)))
    positions = np.concatenate((
        orig.positions + (t_emit - orig.time) * o_speeds,
        res.positions + (t_emit - res.time) * r_speeds,
    ))[pick]
    u_plus = np.concatenate((o_states[1:], r_states[1:]))[pick]
    kinds = np.concatenate((orig.table.kind.take(o_rows), res.table.kind.take(r_rows)))[pick]
    ids = np.concatenate((
        orig.table.id.take(o_rows),
        res.table.id.take(r_rows).astype(np.int64) + id_offset,
    ))[pick]
    # Drop zero-width jumps introduced by seam rounding.
    keep = np.flatnonzero(u_plus != np.concatenate(([orig.left_state], u_plus[:-1])))
    pos = positions[keep].tolist()
    for j in range(1, len(pos)):
        # propagating to t_ref and back to t_emit can lose an ulp
        if 0.0 < pos[j - 1] - pos[j] <= 1e-9:
            pos[j] = pos[j - 1]
    states = np.concatenate(([orig.left_state], u_plus[keep]))
    return front_state(flux, t_emit, pos, states, kinds[keep], ids[keep])


def trapezoid_splice(traj: Trajectory, dom: TrapezoidDomain) -> Trajectory:
    """Replace traj inside Gamma by the entropic re-solve of its trace.

    Returns a full trajectory on [traj.t_start, dom.t2]: identical to traj
    before t1 and outside the domain's sections, entropic inside. The
    composite stays a weak solution (the pieces agree along the spacelike
    boundary), so expansion shocks that lived inside Gamma are gone and
    entropy production over any window containing Gamma cannot increase
    beyond the staircase discretization of the re-solved rarefactions.
    The re-solve uses traj.rarefaction_step, checked by _fragment_step.
    """
    flux = traj.flux
    rarefaction_step = _fragment_step(flux, traj.rarefaction_step)
    # one read of each snapshot's rows gives the state bound and the id offset
    state_sup, top_ids = 0.0, []
    for s in traj.snapshots:
        rows = s.rows
        states = np.concatenate(([s.left_state], s.table.u_plus.take(rows)))
        state_sup = max(state_sup, float(np.max(np.abs(states))))
        if rows.size:
            top_ids.append(int(np.max(s.table.id.take(rows))))
    id_offset = 1 + max(top_ids, default=0)
    validate_domain(dom, flux, boundary_sup=state_sup)
    trace = trace_on_lambda(traj, dom)

    # the crossings are sorted by s: the left ones, the flat ones, the right ones
    sides = [c.side for c in trace.crossings]
    lo, hi = sides.count("left"), len(sides) - sides.count("right")
    seed = front_state(flux, dom.t1, trace.s_breaks[lo:hi], trace.values[lo : hi + 1])
    seed = entropic_resolve_state(flux, seed, rarefaction_step)

    uncovers = []
    for c in trace.crossings[:lo] + trace.crossings[hi:]:
        t_u = dom.boundary_time(c.s)
        new_value = c.u_before if c.side == "left" else c.u_after
        uncovers.append((t_u, c.s, c.side, new_value))

    resolved = _track(flux, seed, dom.t2, "entropic", rarefaction_step, uncovers)

    times = {dom.t1, dom.t2}
    times.update(t for t in (s.time for s in traj.snapshots) if dom.t1 < t < dom.t2)
    times.update(t for t in (s.time for s in resolved.snapshots) if dom.t1 <= t <= dom.t2)
    times = sorted(times)

    snapshots = [s for s in traj.snapshots if s.time < dom.t1]
    events = [
        e
        for e in traj.events
        if e.time <= dom.t2 and not dom.contains(e.x, e.time)
    ] + resolved.events
    for i, tau in enumerate(times):
        tau_next = times[i + 1] if i + 1 < len(times) else dom.t2
        if tau_next > tau:
            t_ref = 0.5 * (tau + tau_next)
        else:
            t_ref = tau - 1e-12 * max(1.0, abs(tau))
        orig = traj.state_at(min(t_ref, traj.t_end))
        res = resolved.state_at(min(max(t_ref, dom.t1), dom.t2))
        snapshots.append(
            _merge_states(orig, res, tau, t_ref, dom, id_offset, flux)
        )
    return Trajectory(
        flux=flux,
        snapshots=snapshots,
        t_end=dom.t2,
        mode="spliced",
        rarefaction_step=rarefaction_step,
        events=sorted(events, key=lambda e: e.time),
    )
