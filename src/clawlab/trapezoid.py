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
boundary parameter s (the x-coordinate of the boundary point).
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
    KindLabels,
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

    @property
    def s_min(self) -> float:
        return -self.s_max

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
    for j in range(flat.n_fronts):
        x = float(flat.positions[j])
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
                    front_id=int(flat.front_ids[j]),
                    u_before=float(flat.states[j]),
                    u_after=float(flat.states[j + 1]),
                )
            )

    for fid, t_b, t_d, x_b, sigma, um, up in traj.lifetimes():
        lo_t = max(t_b, dom.t1)
        hi_t = min(t_d, dom.t2)
        if hi_t <= lo_t:
            continue
        if min(abs(sigma - q) for _, q in edges) <= _TANGENT_TOL:
            raise TangencyError(
                f"front {fid} speed {sigma} is tangent to the lateral boundary slope {edges[1][1]}"
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
    values = []
    if s_breaks.size:
        eval_pts = [0.5 * (dom.s_min + s_breaks[0])]
        eval_pts += list(0.5 * (s_breaks[:-1] + s_breaks[1:]))
        eval_pts += [0.5 * (s_breaks[-1] + dom.s_max)]
    else:
        eval_pts = [0.0]
    for s in eval_pts:
        t_on = min(dom.boundary_time(float(s)), dom.t2 - 1e-13)
        values.append(float(traj.state_at(t_on).value_at(float(s))))
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
    """Composite snapshot: original outside Gamma's section, re-solve inside."""
    bl = float(dom.theta_minus(t_ref))
    br = float(dom.theta_plus(t_ref))
    dt_o = t_ref - orig.time
    dt_r = t_ref - res.time
    xo = orig.positions + dt_o * orig.speeds
    xr = res.positions + dt_r * res.speeds
    left_sel = xo < bl
    right_sel = xo > br
    mid_sel = (xr > bl) & (xr < br)

    def emit(base: FrontState, sel, offset: int):
        dt = t_emit - base.time
        return (
            list(base.positions[sel] + dt * base.speeds[sel]),
            base.kinds.codes[sel],
            [i + offset for i in base.front_ids[sel].tolist()],
        )

    pos_l, kinds_l, ids_l = emit(orig, left_sel, 0)
    pos_m, kinds_m, ids_m = emit(res, mid_sel, id_offset)
    pos_r, kinds_r, ids_r = emit(orig, right_sel, 0)

    states_l = list(orig.states[: int(np.sum(left_sel)) + 1])
    mid_idx = np.where(mid_sel)[0]
    if mid_idx.size:
        states_m = list(res.states[mid_idx[0] : mid_idx[-1] + 2])
    else:
        states_m = [float(res.value_at(0.5 * (bl + br)))]
    n_right = int(np.sum(right_sel))
    states_r = list(orig.states[len(orig.states) - n_right - 1 :])

    for seam, a, b in (("left", states_l[-1], states_m[0]), ("right", states_m[-1], states_r[0])):
        if abs(a - b) > 1e-9:
            raise InvariantViolation(
                f"splice seam mismatch on the {seam} edge at t={t_ref}: "
                f"{a} vs {b}"
            )
    positions = pos_l + pos_m + pos_r
    states = states_l + states_m[1:] + states_r[1:]
    codes = np.concatenate((kinds_l, kinds_m, kinds_r))
    ids = ids_l + ids_m + ids_r
    # Drop zero-width jumps introduced by seam rounding.
    keep_pos, keep_states, keep, keep_ids = [], [states[0]], [], []
    for j in range(len(positions)):
        if states[j + 1] == keep_states[-1]:
            continue
        x = positions[j]
        # propagating to t_ref and back to t_emit can lose an ulp
        if keep_pos and 0.0 < keep_pos[-1] - x <= 1e-9:
            x = keep_pos[-1]
        keep_pos.append(x)
        keep_states.append(states[j + 1])
        keep.append(j)
        keep_ids.append(ids[j])
    kinds = KindLabels.from_codes(codes[keep])
    return front_state(flux, t_emit, keep_pos, keep_states, kinds, keep_ids)


def trapezoid_splice(
    traj: Trajectory,
    dom: TrapezoidDomain,
    rarefaction_step: float | None = None,
) -> Trajectory:
    """Replace traj inside Gamma by the entropic re-solve of its trace.

    Returns a full trajectory on [traj.t_start, dom.t2]: identical to traj
    before t1 and outside the domain's sections, entropic inside. The
    composite stays a weak solution (the pieces agree along the spacelike
    boundary), so expansion shocks that lived inside Gamma are gone and
    entropy production over any window containing Gamma cannot increase
    beyond the staircase discretization of the re-solved rarefactions.
    rarefaction_step, traj's by default, follows _fragment_step's rule.
    """
    flux = traj.flux
    if rarefaction_step is None:
        rarefaction_step = traj.rarefaction_step
    rarefaction_step = _fragment_step(flux, rarefaction_step)
    state_sup = max(
        (float(np.max(np.abs(s.states))) for s in traj.snapshots), default=0.0
    )
    validate_domain(dom, flux, boundary_sup=state_sup)
    trace = trace_on_lambda(traj, dom)

    flat = [c for c in trace.crossings if c.side == "flat"]
    lateral = [c for c in trace.crossings if c.side != "flat"]
    pos0 = [c.s for c in flat]
    vals0 = [trace.value_at(-dom.delta + 1e-12)]
    for c in flat:
        vals0.append(c.u_after)
    seed = front_state(flux, dom.t1, pos0, vals0)
    seed = entropic_resolve_state(flux, seed, rarefaction_step)

    uncovers = []
    for c in lateral:
        t_u = dom.boundary_time(c.s)
        side = "left" if c.s < 0 else "right"
        new_value = c.u_before if side == "left" else c.u_after
        uncovers.append((t_u, c.s, side, new_value))

    resolved = _track(flux, seed, dom.t2, "entropic", rarefaction_step, uncovers)

    id_offset = 1 + max(
        (int(np.max(s.front_ids)) for s in traj.snapshots if s.n_fronts), default=0
    )
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
