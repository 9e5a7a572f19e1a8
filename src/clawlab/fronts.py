"""Wavefront tracking for piecewise-constant weak solutions.

States are step functions; fronts move at their chord (Rankine-Hugoniot)
speed so every configuration is a weak solution by construction. The
evolve loop advances a priority queue of pairwise collision events:

  * entropic mode re-solves each collision with the admissible local fan,
    replacing ascending jumps by staircases of rarefaction fragments that
    rise at most rarefaction_step each;
  * as_given mode merges colliding fronts into the single chord-speed
    front, preserving non-entropic jumps indefinitely.

The tracker holds positions, speeds, states, kind codes and ids in numpy
arrays. An event costs one C pass per array, to move the fronts and to
splice its group in, plus interpreted work in the size of its collision
group; a group of any size is one Riemann problem. A queued pair whose
front has since been replaced is dropped by a table of dead ids, with no
search of the fronts. Every event builds new arrays and never writes into
old ones, so each event's snapshot keeps that event's arrays without a
copy. A snapshot's kinds are a KindLabels: one uint8 code per front, read
as the labels of a tuple.

Snapshots are emitted at every event time. Snapshots taken exactly at an
event carry coincident positions with strictly increasing speeds there;
ordering is strict immediately after. Between events a front keeps its
states and speed, so Trajectory.lifetimes() derives one row per front
life from the snapshots, once per trajectory; ledgers, traces and
residuals read those rows.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .compare import l1_steps, step_data, step_values
from .errors import FluxRangeError, InvariantViolation
from .errors import check_finite, check_positive
from .fluxes import ConvexFlux, _band_bound, _check_band, chord_slopes
from .riemann import (
    ENTROPIC_SHOCK,
    EXPANSION_SHOCK,
    Shock,
    WaveFan,
)

RAREFACTION_FRAGMENT = "rarefaction_fragment"

_TIME_TOL = 1e-12

# The label of each front kind code. It starts with the three kinds the
# package emits; a label that a caller gives is appended the first time it
# is seen, so a code keeps its label for the life of the process.
_KIND_LABELS: list[str] = [ENTROPIC_SHOCK, EXPANSION_SHOCK, RAREFACTION_FRAGMENT]
_KIND_CODES: dict[str, int] = {k: i for i, k in enumerate(_KIND_LABELS)}


def _kind_code(label: str) -> int:
    code = _KIND_CODES.get(label)
    if code is None:
        code = len(_KIND_LABELS)
        if code > np.iinfo(np.uint8).max:
            raise InvariantViolation(f"more than {code} front kinds; cannot add {label!r}")
        _KIND_LABELS.append(label)
        _KIND_CODES[label] = code
    return code


class KindLabels(Sequence):
    """Front kinds of a snapshot: one uint8 code per front, read as labels.

    A read-only sequence of str that iterates, indexes and compares equal
    like the tuple of its labels. An integer index gives a label; a slice,
    an index array or a boolean mask gives a KindLabels.
    """

    __slots__ = ("codes",)

    def __init__(self, labels):
        """Codes of an iterable of str labels."""
        self.codes = np.array([_kind_code(k) for k in labels], dtype=np.uint8)
        self.codes.flags.writeable = False

    @classmethod
    def from_codes(cls, codes: np.ndarray) -> KindLabels:
        """Wrap a uint8 code array, which becomes read-only."""
        out = cls.__new__(cls)
        codes.flags.writeable = False
        out.codes = codes
        return out

    def __len__(self) -> int:
        return self.codes.size

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            return _KIND_LABELS[self.codes[i]]
        return KindLabels.from_codes(self.codes[i])

    def __iter__(self):
        return map(_KIND_LABELS.__getitem__, self.codes.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, KindLabels):
            return self.codes.size == other.codes.size and bool(
                np.all(self.codes == other.codes)
            )
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"KindLabels({tuple(self)!r})"


@dataclass(frozen=True)
class FrontState:
    """Snapshot of a tracked solution: m fronts separating m + 1 states.

    kinds given as a tuple or list of labels is stored as a KindLabels.
    """

    time: float
    positions: np.ndarray
    states: np.ndarray
    speeds: np.ndarray
    kinds: KindLabels
    front_ids: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.kinds, KindLabels):
            object.__setattr__(self, "kinds", KindLabels(self.kinds))

    @property
    def n_fronts(self) -> int:
        return len(self.positions)

    def value_at(self, x: float | np.ndarray) -> float | np.ndarray:
        """Left-limit evaluation of the step function at finite points x."""
        x = np.asarray(x, dtype=float)
        check_finite("x", x)
        return step_values(self.positions, self.states, x)

    def to_step(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.positions), np.array(self.states)


@dataclass(frozen=True)
class EventRecord:
    time: float
    x: float
    kind: str  # "collision" | "uncover"


@dataclass(frozen=True)
class Lifetimes:
    """Front lifetimes as struct-of-arrays rows.

    Row r is front front_id[r] on [t_birth[r], t_death[r]], at
    x_birth[r] + sigma[r] (t - t_birth[r]), with state u_minus[r] on its
    left and u_plus[r] on its right.
    """

    front_id: np.ndarray
    t_birth: np.ndarray
    t_death: np.ndarray
    x_birth: np.ndarray
    sigma: np.ndarray
    u_minus: np.ndarray
    u_plus: np.ndarray

    def __len__(self) -> int:
        return len(self.front_id)

    def __iter__(self):
        """Rows as tuples of Python scalars, in field order."""
        return zip(*(getattr(self, f.name).tolist() for f in fields(self)))


@dataclass
class Trajectory:
    """Ordered snapshots at event times plus the final time."""

    flux: ConvexFlux
    snapshots: list[FrontState]
    t_end: float
    mode: str
    rarefaction_step: float
    events: list[EventRecord] = field(default_factory=list)
    _lifetimes: Lifetimes | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def t_start(self) -> float:
        return self.snapshots[0].time

    def event_times(self) -> list[float]:
        return [e.time for e in self.events]

    def state_at(self, t: float) -> FrontState:
        """Snapshot advanced to time t (last event snapshot, positions moved)."""
        if not self.t_start - _TIME_TOL <= t <= self.t_end + _TIME_TOL:
            raise FluxRangeError(
                f"t={t} outside the trajectory span "
                f"[{self.t_start}, {self.t_end}]"
            )
        times = [s.time for s in self.snapshots]
        i = bisect_right(times, t) - 1
        if i < 0:
            i = 0
        base = self.snapshots[i]
        dt = t - base.time
        return FrontState(
            time=t,
            positions=base.positions + dt * base.speeds,
            states=base.states,
            speeds=base.speeds,
            kinds=base.kinds,
            front_ids=base.front_ids,
        )

    def sample(self, t: float, xs: np.ndarray) -> np.ndarray:
        return np.asarray(self.state_at(t).value_at(np.asarray(xs, dtype=float)))

    def segments(self):
        """Yield (t_a, t_b, snapshot) with affine front motion on [t_a, t_b]."""
        snaps = self.snapshots
        for i, snap in enumerate(snaps):
            t_a = snap.time
            t_b = snaps[i + 1].time if i + 1 < len(snaps) else self.t_end
            if t_b > t_a + _TIME_TOL or (i + 1 == len(snaps) and t_b > t_a):
                yield (t_a, min(t_b, self.t_end), snap)

    def lifetimes(self) -> Lifetimes:
        """Front lifetimes derived from the snapshots on the first call.

        One row per maximal run of consecutive segments in which a front
        keeps its id, both states and its stored speed; a front whose id
        survives a change of states starts a new row. Rows are in order of
        birth segment, then left to right. Later calls return the same
        table, whose arrays are read-only.
        """
        if self._lifetimes is None:
            rows = self._derive_lifetimes()
            for f in fields(rows):
                getattr(rows, f.name).flags.writeable = False
            self._lifetimes = rows
        return self._lifetimes

    def _derive_lifetimes(self) -> Lifetimes:
        segs = list(self.segments())
        snaps = [s for _, _, s in segs]
        seg = np.repeat(np.arange(len(segs)), [s.n_fronts for s in snaps])
        if seg.size == 0:
            return Lifetimes(*([np.empty(0)] * 7))
        ids = np.concatenate([s.front_ids for s in snaps])
        u_minus = np.concatenate([s.states[:-1] for s in snaps])
        u_plus = np.concatenate([s.states[1:] for s in snaps])
        sigma = np.concatenate([s.speeds for s in snaps])
        order = np.lexsort((seg, ids))
        a, b = order[:-1], order[1:]
        same = (
            (ids[a] == ids[b])
            & (seg[a] + 1 == seg[b])
            & (u_minus[a] == u_minus[b])
            & (u_plus[a] == u_plus[b])
            & (sigma[a] == sigma[b])
        )
        first = order[np.concatenate(([True], ~same))]
        last = order[np.concatenate((~same, [True]))]
        birth_order = np.argsort(first)
        first, last = first[birth_order], last[birth_order]
        x_birth = np.concatenate([s.positions for s in snaps])
        t_a = np.array([t for t, _, _ in segs])
        t_b = np.array([t for _, t, _ in segs])
        return Lifetimes(
            front_id=ids[first],
            t_birth=t_a[seg[first]],
            t_death=t_b[seg[last]],
            x_birth=x_birth[first],
            sigma=sigma[first],
            u_minus=u_minus[first],
            u_plus=u_plus[first],
        )

    def support_bbox(self) -> tuple[float, float]:
        rows = self.lifetimes()
        if len(rows) == 0:
            return (0.0, 0.0)
        x_death = rows.x_birth + rows.sigma * (rows.t_death - rows.t_birth)
        ends = np.concatenate((rows.x_birth, x_death))
        return (float(ends.min()), float(ends.max()))


# ---------------------------------------------------------------------------
# construction helpers


def _label(u_l: float, u_r: float) -> str:
    return ENTROPIC_SHOCK if u_l > u_r else EXPANSION_SHOCK


def front_state(
    flux: ConvexFlux,
    time: float,
    positions,
    states,
    kinds=None,
    front_ids=None,
) -> FrontState:
    """Build a validated snapshot at a finite time; speeds are computed from chords."""
    check_finite("time", time)
    pos = np.asarray(positions, dtype=float)
    vals = np.asarray(states, dtype=float)
    if len(vals) != len(pos) + 1:
        raise InvariantViolation(
            f"{len(pos)} fronts need {len(pos) + 1} states, got {len(vals)}"
        )
    if np.any(np.diff(pos) < 0.0):
        raise InvariantViolation(f"front positions must be non-decreasing: {pos}")
    _check_band(flux, vals, "state")
    flat = np.flatnonzero(vals[:-1] == vals[1:])
    if flat.size:
        i = int(flat[0])
        raise InvariantViolation(
            f"front {i} at x={pos[i]} separates equal states {vals[i]}"
        )
    speeds = chord_slopes(flux, vals[:-1], vals[1:])
    # Where positions coincide (event instants) the fronts must fan out.
    same = np.where(np.diff(pos) <= 0.0)[0]
    for i in same:
        if speeds[i + 1] <= speeds[i] + 0.0:
            raise InvariantViolation(
                f"coincident fronts at x={pos[i]} do not fan out: speeds "
                f"{speeds[i]}, {speeds[i + 1]}"
            )
    if kinds is None:
        # _label of every front: entropic where the states descend
        codes = np.where(
            vals[:-1] > vals[1:], _KIND_CODES[ENTROPIC_SHOCK], _KIND_CODES[EXPANSION_SHOCK]
        )
        kinds = KindLabels.from_codes(codes.astype(np.uint8))
    if front_ids is None:
        front_ids = np.arange(len(pos), dtype=int)
    else:
        front_ids = np.asarray(front_ids, dtype=int)
    return FrontState(float(time), pos, vals, speeds, kinds, front_ids)


def state_from_data(flux: ConvexFlux, xs, us, time: float = 0.0) -> FrontState:
    """Snapshot straight from step-function data.

    us[i] is the value on (xs[i-1], xs[i]); illegal data (compare.step_data)
    raise FluxRangeError. Zero-width pieces (repeated breakpoints) carry no
    mass in L1 and are dropped first, so a repeated breakpoint becomes one
    jump from the value on its left to the value on its right; then zero
    jumps are dropped. time must be finite.
    """
    if len(us) != len(xs) + 1:
        raise InvariantViolation(
            f"{len(xs)} breakpoints need {len(xs) + 1} values, got {len(us)}"
        )
    xs, us = step_data(xs, us)
    wide = np.diff(xs, append=np.inf) > 0.0
    pos, vals = xs[wide], np.concatenate((us[:1], us[1:][wide]))
    jump = vals[1:] != vals[:-1]
    return front_state(flux, time, pos[jump], np.concatenate((vals[:1], vals[1:][jump])))


def resolve_jump(
    flux: ConvexFlux, u_l: float, u_r: float, rarefaction_step: float
) -> tuple[list[float], list[str]]:
    """Entropic local resolution of the jump (u_l, u_r).

    Returns the state chain [u_l, ..., u_r] and one kind per front:
    a single entropic shock when descending, a staircase of fragments
    rising at most rarefaction_step each when ascending. Both states must
    lie in the flux band; rarefaction_step follows _fragment_step's rule.
    """
    _check_band(flux, u_l, "u_l")
    _check_band(flux, u_r, "u_r")
    return _resolve(u_l, u_r, _fragment_step(flux, rarefaction_step))


def _resolve(u_l: float, u_r: float, rarefaction_step: float) -> tuple[list[float], list[str]]:
    """resolve_jump for states in the band and a checked rarefaction_step."""
    if u_l == u_r:
        return ([u_l], [])
    if u_l > u_r:
        return ([u_l, u_r], [ENTROPIC_SHOCK])
    k = max(1, int(math.ceil((u_r - u_l) / rarefaction_step - 1e-12)))
    chain = list(np.linspace(u_l, u_r, k + 1))
    return (chain, [RAREFACTION_FRAGMENT] * k)


def _fragment_step(flux: ConvexFlux, rarefaction_step: float | None) -> float:
    """rarefaction_step, 1% of the band radius by default; positive and finite."""
    if rarefaction_step is None:
        return 0.01 * flux.domain_radius
    check_positive("rarefaction_step", rarefaction_step)
    return rarefaction_step


def from_fan(fan: WaveFan, t: float, rarefaction_step: float | None = None) -> FrontState:
    """Discretize a fan at time t > 0 into a tracked snapshot.

    Shocks keep their speed; each rarefaction becomes a staircase whose
    fragments sit at their own chord speeds times t.
    """
    check_positive("t", t)
    flux = fan.flux
    rarefaction_step = _fragment_step(flux, rarefaction_step)
    pos: list[float] = []
    vals: list[float] = [fan.left_state]
    kinds: list[str] = []
    for w in fan.waves:
        if isinstance(w, Shock):
            pos.append(w.sigma * t)
            vals.append(w.u_plus)
            kinds.append(w.kind)
        else:
            chain, ks = _resolve(w.u_lo, w.u_hi, rarefaction_step)
            pos.extend(chord_slopes(flux, chain[:-1], chain[1:]) * t)
            vals.extend(chain[1:])
            kinds.extend(ks)
    return front_state(flux, t, pos, vals, kinds)


def entropic_resolve_state(
    flux: ConvexFlux, state: FrontState, rarefaction_step: float
) -> FrontState:
    """Re-solve every front of a snapshot with its admissible local fan.

    Descending jumps stay single shocks; ascending jumps become fragment
    staircases emitted at the front's position. The step function is
    unchanged as an L1 object; only the front decomposition differs.
    rarefaction_step follows _fragment_step's rule.
    """
    rarefaction_step = _fragment_step(flux, rarefaction_step)
    pos: list[float] = []
    vals: list[float] = [float(state.states[0])]
    kinds: list[str] = []
    for i in range(state.n_fronts):
        chain, ks = _resolve(float(state.states[i]), float(state.states[i + 1]), rarefaction_step)
        pos.extend([float(state.positions[i])] * (len(chain) - 1))
        vals.extend(chain[1:])
        kinds.extend(ks)
    return front_state(flux, state.time, pos, vals, kinds)


def mass(state: FrontState) -> float:
    """Integral of the step function; requires compactly supported data."""
    vals = state.states
    if state.n_fronts == 0:
        if vals[0] != 0.0:
            raise InvariantViolation("mass of a nonzero constant state diverges")
        return 0.0
    if vals[0] != 0.0 or vals[-1] != 0.0:
        raise InvariantViolation(
            f"mass needs zero tail states, got {vals[0]}, {vals[-1]}"
        )
    widths = np.diff(state.positions)
    return float(np.dot(vals[1:-1], widths))


def linf(state: FrontState) -> float:
    return float(np.max(np.abs(state.states)))


def l1_between_states(a: FrontState, b: FrontState) -> float:
    """Exact L1 distance between two step functions with matching tails."""
    return l1_steps(*a.to_step(), *b.to_step())


# ---------------------------------------------------------------------------
# the event loop


class _Tracker:
    """State of the event loop, fronts held left to right in numpy arrays.

    pos, speeds, kinds (uint8 codes into _KIND_LABELS) and ids have one
    entry per front and vals one more (the states between them). Moving
    every front is one vectorized speeds * dt + pos, and a collision or
    uncover splices its group in with one np.concatenate per array. Both
    build new arrays and never write into old ones, so a snapshot keeps the
    current arrays as they are; only the final snapshot, which would share
    all but pos with the last event's, copies. So an event costs one C pass
    per array plus interpreted work in the size of its group: the group's
    coincidence compares Python scalars, the emitted chain is checked in one
    Python loop and takes its speeds from one flux evaluation, and the new
    neighbour pairs are pushed from one tolist() per array. Heap entries
    hold Python scalars. An entry whose front has died since it was pushed
    is stale; dead holds every id a group replaced, so such an entry is
    dropped without a search for its fronts.
    """

    def __init__(self, flux: ConvexFlux, snap: FrontState, mode: str, step: float):
        self.flux = flux
        self.mode = mode
        self.step = step
        self.band = _band_bound(flux)
        self.t = snap.time
        self.pos = np.array(snap.positions, dtype=float)
        self.vals = np.array(snap.states, dtype=float)
        self.kinds = snap.kinds.codes
        self.speeds = np.array(snap.speeds, dtype=float)
        self.ids = np.array(snap.front_ids, dtype=int)
        # dead ids mark stale heap entries, so no two fronts may share an id
        sorted_ids = np.sort(self.ids)
        twice = sorted_ids[1:][sorted_ids[1:] == sorted_ids[:-1]]
        if twice.size:
            raise InvariantViolation(f"front id {int(twice[0])} is held by more than one front")
        self._next_id = int(self.ids.max()) + 1 if self.ids.size else 0
        self._counter = itertools.count()
        self.dead: set[int] = set()
        self.heap: list[tuple] = []
        self.snapshots: list[FrontState] = []
        self.events: list[EventRecord] = []

    def snapshot(self, copy: bool = False) -> FrontState:
        """The fronts now, holding the tracker's arrays unless copy is set."""
        arrays = (self.pos, self.vals, self.speeds, self.kinds, self.ids)
        if copy:
            arrays = tuple(a.copy() for a in arrays)
        pos, vals, speeds, kinds, ids = arrays
        return FrontState(self.t, pos, vals, speeds, KindLabels.from_codes(kinds), ids)

    def advance_to(self, t: float) -> None:
        dt = t - self.t
        if dt < -_TIME_TOL:
            raise InvariantViolation(f"time regression {self.t} -> {t}")
        if dt != 0.0:
            # the bits of pos + speeds * dt, in one new array
            pos = np.multiply(self.speeds, dt)
            pos += self.pos
            self.pos = pos
        self.t = t

    def push_pairs(self, lo: int, hi: int, t_stop: float) -> None:
        """Push each pair (i, i + 1), lo <= i < hi, that collides by t_stop."""
        lo = max(lo, 0)
        hi = min(hi, self.pos.size - 1)
        if lo >= hi:
            return
        speeds = self.speeds[lo : hi + 1].tolist()
        pos = self.pos[lo : hi + 1].tolist()
        ids = self.ids[lo : hi + 1].tolist()
        t, heap, limit = self.t, self.heap, t_stop + _TIME_TOL
        for j in range(hi - lo):
            s_l = speeds[j]
            rel = s_l - speeds[j + 1]
            if rel <= 1e-14:
                continue
            x_l = pos[j]
            dt = max(pos[j + 1] - x_l, 0.0) / rel
            t_col = t + dt
            if t_col > limit:
                continue
            entry = (t_col, x_l + s_l * dt, next(self._counter), ids[j], ids[j + 1])
            heapq.heappush(heap, entry)

    def _pair_indices(self, id_l: int, id_r: int) -> tuple[int, int] | None:
        if id_l in self.dead or id_r in self.dead:
            return None
        ids = self.ids
        i = int((ids == id_l).argmax())
        if ids[i : i + 2].tolist() != [id_l, id_r]:
            return None
        return (i, i + 1)

    def replace_group(
        self, p: int, q: int, x: float, chain: list[float], kinds: list[str]
    ) -> tuple[int, int]:
        """Replace fronts p..q (inclusive) by the chain emitted at x.

        q = p - 1 inserts the chain's fronts before front p, replacing
        only the state vals[p].
        """
        k = len(chain) - 1
        vals = np.asarray(chain, dtype=float)
        band = self.band
        prev = None
        for u in chain:
            if not abs(u) <= band or u == prev:
                # chord_slopes names the equal pair or the state off the band
                speeds = chord_slopes(self.flux, vals[:-1], vals[1:])
                break
            prev = u
        else:
            # the chords of chord_slopes, with one flux evaluation per state
            fv = self.flux.f(vals)
            speeds = (fv[:-1] - fv[1:]) / (vals[:-1] - vals[1:])
        codes = np.array([_KIND_CODES[kind] for kind in kinds], dtype=np.uint8)
        ids = np.arange(self._next_id, self._next_id + k)
        self._next_id += k
        self.dead.update(self.ids[p : q + 1].tolist())
        self.pos = np.concatenate((self.pos[:p], [x] * k, self.pos[q + 1 :]))
        self.speeds = np.concatenate((self.speeds[:p], speeds, self.speeds[q + 1 :]))
        self.kinds = np.concatenate((self.kinds[:p], codes, self.kinds[q + 1 :]))
        self.ids = np.concatenate((self.ids[:p], ids, self.ids[q + 1 :]))
        self.vals = np.concatenate((self.vals[:p], vals, self.vals[q + 2 :]))
        return (p, p + k - 1)

    def run(self, t_end: float, uncover_events: list | None = None) -> None:
        """Drive the queue to t_end. uncover_events inject boundary fronts."""
        uncovers = sorted(uncover_events or [], key=lambda e: e[0])
        u_idx = 0
        self.push_pairs(0, self.pos.size - 1, t_end)
        while True:
            next_col = self.heap[0][0] if self.heap else math.inf
            next_unc = uncovers[u_idx][0] if u_idx < len(uncovers) else math.inf
            t_next = min(next_col, next_unc)
            if t_next > t_end + _TIME_TOL or not math.isfinite(t_next):
                break
            if next_unc <= next_col:
                t, x, side, new_value = uncovers[u_idx]
                u_idx += 1
                self.advance_to(t)
                self._apply_uncover(x, side, new_value, t_end)
                continue
            entry = heapq.heappop(self.heap)
            t, x = entry[0], entry[1]
            pair = self._pair_indices(entry[3], entry[4])
            if pair is None:
                continue
            lo, hi = pair
            group = []  # the other live pairs that meet at (t, x)
            stash = []
            while self.heap and self.heap[0][0] <= t + _TIME_TOL:
                e2 = heapq.heappop(self.heap)
                p2 = self._pair_indices(e2[3], e2[4])
                if p2 is None:
                    continue
                if abs(e2[1] - x) <= 1e-9:
                    group.append(e2)
                    lo, hi = min(lo, p2[0]), max(hi, p2[1])
                else:
                    stash.append(e2)
            self.advance_to(t)
            # Guard against accidental grouping of distinct collisions: every
            # front in the merged span must actually sit at the event point.
            # A lone pair is the span it would fall back to.
            tol = 1e-8 * max(1.0, abs(x))
            if group and not all(abs(p - x) <= tol for p in self.pos[lo : hi + 1].tolist()):
                lo, hi = pair
                for e2 in group:
                    heapq.heappush(self.heap, e2)
            for e2 in stash:
                heapq.heappush(self.heap, e2)
            self._apply_collision(lo, hi, x, t_end)
        self.advance_to(t_end)
        self.snapshots.append(self.snapshot(copy=True))

    def _apply_collision(self, p: int, q: int, x: float, t_end: float) -> None:
        u_left = float(self.vals[p])
        u_right = float(self.vals[q + 1])
        if self.mode == "entropic":
            chain, kinds = _resolve(u_left, u_right, self.step)
        elif u_left == u_right:
            # the one state has no chord whose band check would refuse it
            _check_band(self.flux, u_left, "state")
            chain, kinds = [u_left], []
        else:
            chain, kinds = [u_left, u_right], [_label(u_left, u_right)]
        first, last = self.replace_group(p, q, x, chain, kinds)
        self.events.append(EventRecord(self.t, x, "collision"))
        self.snapshots.append(self.snapshot())
        self.push_pairs(first - 1, last + 1, t_end)

    def _apply_uncover(self, x: float, side: str, new_value: float, t_end: float) -> None:
        """Inject boundary data at the moving edge of a trapezoid re-solve."""
        if side == "left":
            old = float(self.vals[0])
            chain, kinds = _resolve(new_value, old, self.step)
            first, last = self.replace_group(0, -1, x, chain, kinds)
        else:
            old = float(self.vals[-1])
            chain, kinds = _resolve(old, new_value, self.step)
            n = self.pos.size
            first, last = self.replace_group(n, n - 1, x, chain, kinds)
        self.events.append(EventRecord(self.t, x, "uncover"))
        self.snapshots.append(self.snapshot())
        self.push_pairs(first - 1, last + 2, t_end)


def evolve(
    initial: FrontState,
    flux: ConvexFlux,
    t_end: float,
    mode: str = "entropic",
    rarefaction_step: float | None = None,
) -> Trajectory:
    """Track the solution from `initial` up to t_end.

    entropic mode first re-solves every ascending jump of the initial
    snapshot into a fragment staircase, then handles each collision with
    the admissible local fan. as_given mode keeps the data verbatim and
    merges collisions into single chord-speed fronts. t_end and
    rarefaction_step must be finite numbers.
    """
    if mode not in ("entropic", "as_given"):
        raise FluxRangeError(f"mode must be 'entropic' or 'as_given', got {mode!r}")
    if not initial.time <= t_end < math.inf:
        raise FluxRangeError(
            f"t_end={t_end} must be finite and not precede the initial time {initial.time}"
        )
    rarefaction_step = _fragment_step(flux, rarefaction_step)
    start = initial
    if mode == "entropic":
        start = entropic_resolve_state(flux, initial, rarefaction_step)
    return _track(flux, start, t_end, mode, rarefaction_step)


def _track(flux, start, t_end, mode, rarefaction_step, uncover_events=None) -> Trajectory:
    """Trajectory of the event loop run from `start` to t_end."""
    tracker = _Tracker(flux, start, mode, rarefaction_step)
    tracker.snapshots.append(tracker.snapshot())
    tracker.run(t_end, uncover_events)
    return Trajectory(
        flux=flux,
        snapshots=tracker.snapshots,
        t_end=float(t_end),
        mode=mode,
        rarefaction_step=rarefaction_step,
        events=tracker.events,
    )
