"""Wavefront tracking for piecewise-constant weak solutions.

States are step functions; fronts move at their chord (Rankine-Hugoniot)
speed so every configuration is a weak solution by construction. The
evolve loop advances a priority queue of pairwise collision events:

  * entropic mode re-solves each collision with the admissible local fan,
    replacing ascending jumps by staircases of rarefaction fragments that
    rise at most rarefaction_step each;
  * as_given mode merges colliding fronts into the single chord-speed
    front, preserving non-entropic jumps indefinitely.

The tracker holds the front positions, speeds and rows in numpy arrays.
A row indexes the trajectory's front table, which holds the states,
speed, kind label and id of one front life: in tracker output a front id
never changes its states, speed or kind, so these are stored once per
front, as in front tracking (Holden & Risebro, ch. 2), and not once per
snapshot. An event costs one C pass to move the fronts and one per array
to splice its group in, plus interpreted work in the size of its
collision group; a group of any size is one Riemann problem. A queued
pair whose front has since been replaced is dropped by a table of dead
rows, with no search of the fronts. Every event builds new arrays and
never writes into old ones, so each event's snapshot keeps that event's
positions without a copy. The table logs each event's splice of the
rows, so a snapshot stores only float64 positions, 8 bytes a front, and
its event's index: its rows are replayed from the log, and its states,
speeds, kinds (a tuple of labels) and int32 front ids are read through
the table at those rows.

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
from dataclasses import dataclass, field, fields

import numpy as np

from .compare import step_data, step_values
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

_ID_DTYPE = np.dtype(np.int32)
_ID_RANGE = np.iinfo(_ID_DTYPE)
_ROW_DTYPE = np.dtype(np.int32)
# A front table keeps the rows of every _CHECKPOINT_EVENTS-th event, 4 bytes
# a front; any other event's rows are at most _CHECKPOINT_EVENTS - 1 splices
# away.
_CHECKPOINT_EVENTS = 16


def _front_ids(ids) -> np.ndarray:
    """ids (an array or any sequence) as an int32 array, the same array if
    it is one already.

    Any other ids are range-checked as an array: an id outside the int32
    range raises InvariantViolation naming it, so no id wraps on the way in.
    """
    if isinstance(ids, np.ndarray) and ids.dtype is _ID_DTYPE:
        return ids
    arr = np.asarray(ids)
    inside = (arr >= _ID_RANGE.min) & (arr <= _ID_RANGE.max)  # NaN is outside
    if not np.all(inside):
        bad = arr.ravel()[np.argmin(np.ravel(inside))]
        raise InvariantViolation(
            f"front id {bad} outside the int32 range [{_ID_RANGE.min}, {_ID_RANGE.max}]"
        )
    return arr.astype(_ID_DTYPE)


class _FrontTable:
    """The fronts of one trajectory, one row a front life; rows are only appended.

    Columns: u_minus and u_plus, the states on the front's left and right,
    and speed (float64), kind (the label, in an object column) and id
    (int32). Rows [0, size) are set; the columns of a growing table have
    spare room past size.

    The table also keeps the splice log of the fronts' rows: at event 0
    they are rows 0..size-1, and event e + 1 replaces rows [p, stop) of
    event e by the new rows [first, end). The rows of every
    _CHECKPOINT_EVENTS-th event are kept as they were made, and rows_at
    rebuilds any other event's by replaying splices from the nearest such
    checkpoint, or from the last rows it rebuilt when those are nearer.
    """

    _COLUMNS = ("u_minus", "u_plus", "speed", "kind", "id")
    __slots__ = (*_COLUMNS, "size", "_splices", "_checkpoints", "_last")

    def __init__(self, u_minus, u_plus, speed, kind, ids):
        self.u_minus, self.u_plus, self.speed, self.kind, self.id = (
            u_minus, u_plus, speed, kind, ids
        )
        self.size = ids.size
        rows = np.arange(self.size, dtype=_ROW_DTYPE)
        self._splices: list[tuple[int, int, int, int]] = []
        self._checkpoints = [rows]
        self._last = (0, rows)  # (event, rows) of the last rows_at

    @property
    def events(self) -> int:
        """The number of splices logged, which is the last event's index."""
        return len(self._splices)

    def append(self, u_minus, u_plus, speed, kind, ids) -> int:
        """Append len(ids) rows and return the first; columns grow by doubling."""
        first, stop = self.size, self.size + ids.size
        if stop > self.id.size:
            for name in self._COLUMNS:
                old = getattr(self, name)
                new = np.empty(2 * stop, dtype=old.dtype)
                new[:first] = old[:first]
                setattr(self, name, new)
        self.u_minus[first:stop] = u_minus
        self.u_plus[first:stop] = u_plus
        self.speed[first:stop] = speed
        self.kind[first:stop] = kind
        self.id[first:stop] = ids
        self.size = stop
        return first

    def log_splice(self, p: int, stop: int, first: int, rows: np.ndarray) -> None:
        """Log the next event: rows [p, stop) replaced by rows [first, size).

        rows are the event's rows, kept as a checkpoint (not copied: no
        caller writes them) when the event's index is a multiple of
        _CHECKPOINT_EVENTS.
        """
        self._splices.append((p, stop, first, self.size))
        if len(self._splices) % _CHECKPOINT_EVENTS == 0:
            self._checkpoints.append(rows)

    def rows_at(self, event: int) -> np.ndarray:
        """The int32 rows of the fronts at an event, left to right."""
        done, rows = self._last
        if done != event:
            start = event - event % _CHECKPOINT_EVENTS
            if not start < done < event:
                done, rows = start, self._checkpoints[start // _CHECKPOINT_EVENTS]
            for p, stop, first, end in self._splices[done:event]:
                new = np.arange(first, end, dtype=_ROW_DTYPE)
                rows = np.concatenate((rows[:p], new, rows[stop:]))
            self._last = (event, rows)
        return rows


@dataclass(frozen=True, slots=True, init=False)
class FrontState:
    """Snapshot of a tracked solution: m fronts separating m + 1 states.

    A snapshot stores its time, m float64 positions, the state left of
    every front, a front table and the index of its event in the table's
    splice log, so a stored front costs 8 bytes. rows (the fronts' int32
    rows of the table) are rebuilt from that log on each read; states
    (float64, m + 1), speeds (float64), front_ids (int32) and their
    28 m + 8 bytes, and kinds (the tuple of the fronts' labels) are read
    through the table, each read a new object. Snapshots of one trajectory
    share its table.

    FrontState(time, positions, states, speeds, kinds, front_ids) builds a
    one-snapshot table from any sequence of kind labels. A position that
    is not finite raises FluxRangeError; an id outside the int32 range, or
    arrays whose lengths do not fit m positions, raise InvariantViolation.
    """

    time: float
    positions: np.ndarray
    table: _FrontTable
    left_state: float
    event: int

    def __init__(self, time, positions, states, speeds, kinds, front_ids):
        pos = np.asarray(positions, dtype=float)
        check_finite("positions", pos)
        vals = np.asarray(states, dtype=float)
        speeds = np.asarray(speeds, dtype=float)
        kinds = np.array(list(kinds), dtype=object)
        ids = _front_ids(front_ids)
        m = len(pos)
        if (len(vals), len(speeds), len(kinds), len(ids)) != (m + 1, m, m, m):
            raise InvariantViolation(
                f"{m} positions need {m + 1} states and {m} speeds, kinds and "
                f"front ids; got {len(vals)} states, {len(speeds)} speeds, "
                f"{len(kinds)} kinds and {len(ids)} front ids"
            )
        table = _FrontTable(vals[:-1], vals[1:], speeds, kinds, ids)
        self._set(time, pos, table, float(vals[0]), 0)

    @classmethod
    def _of(cls, time, positions, table, left_state, event) -> FrontState:
        """The snapshot of a table's fronts at an event, at given positions."""
        out = cls.__new__(cls)
        out._set(time, positions, table, left_state, event)
        return out

    def _set(self, time, positions, table, left_state, event) -> None:
        set_field = object.__setattr__  # the one place a frozen snapshot is written
        set_field(self, "time", time)
        set_field(self, "positions", positions)
        set_field(self, "table", table)
        set_field(self, "left_state", left_state)
        set_field(self, "event", event)

    @property
    def rows(self) -> np.ndarray:
        return self.table.rows_at(self.event)

    @property
    def states(self) -> np.ndarray:
        return np.concatenate(([self.left_state], self.table.u_plus.take(self.rows)))

    @property
    def speeds(self) -> np.ndarray:
        return self.table.speed.take(self.rows)

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(self.table.kind.take(self.rows).tolist())

    @property
    def front_ids(self) -> np.ndarray:
        return self.table.id.take(self.rows)

    @property
    def n_fronts(self) -> int:
        return len(self.positions)

    def value_at(self, x: float | np.ndarray) -> float | np.ndarray:
        """Left-limit evaluation of the step function at finite points x."""
        x = np.asarray(x, dtype=float)
        check_finite("x", x)
        return step_values(self.positions, self.states, x)

    def to_step(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.positions), self.states


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
    left and u_plus[r] on its right. front_id is int32, as in the
    snapshots; the other columns are float64.
    """

    front_id: np.ndarray
    t_birth: np.ndarray
    t_death: np.ndarray
    x_birth: np.ndarray
    sigma: np.ndarray
    u_minus: np.ndarray
    u_plus: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "front_id", _front_ids(self.front_id))

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
        i = bisect_right(self.snapshots, t, key=lambda s: s.time) - 1
        base = self.snapshots[max(i, 0)]
        # the bits of positions + dt * speeds, in one new array
        pos = base.table.speed.take(base.rows)
        pos *= t - base.time
        pos += base.positions
        return FrontState._of(t, pos, base.table, base.left_state, base.event)

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
        """Front lifetimes derived on the first call from the snapshots' rows.

        The snapshots are read in time order, so their front tables replay
        one splice a snapshot.

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
        # Each table row is read once per run of consecutive segments on its
        # table; the runs are then joined as rows: one id, equal states and
        # speed, consecutive segments (the one-snapshot tables of a splice
        # hold fronts that live on across them).
        segs = list(self.segments())
        pieces, start = [], 0
        for stop in range(1, len(segs) + 1):
            if stop == len(segs) or segs[stop][2].table is not segs[start][2].table:
                pieces.append(_table_runs([s for _, _, s in segs[start:stop]], start))
                start = stop
        if sum(rows.size for _, _, _, rows, _ in pieces) == 0:
            return Lifetimes(*([np.empty(0)] * 7))
        seg_a, seg_b, x_birth = (
            np.concatenate([p[i] for p in pieces]) for i in (0, 1, 4)
        )
        ids, u_minus, u_plus, sigma = (
            np.concatenate([getattr(table, col).take(rows) for _, _, table, rows, _ in pieces])
            for col in ("id", "u_minus", "u_plus", "speed")
        )
        order = np.lexsort((seg_a, ids))
        a, b = order[:-1], order[1:]
        same = (
            (ids[a] == ids[b])
            & (seg_b[a] + 1 == seg_a[b])
            & (u_minus[a] == u_minus[b])
            & (u_plus[a] == u_plus[b])
            & (sigma[a] == sigma[b])
        )
        first = order[np.concatenate(([True], ~same))]
        last = order[np.concatenate((~same, [True]))]
        birth_order = np.argsort(first)
        first, last = first[birth_order], last[birth_order]
        t_a = np.array([t for t, _, _ in segs])
        t_b = np.array([t for _, t, _ in segs])
        return Lifetimes(
            front_id=ids[first],
            t_birth=t_a[seg_a[first]],
            t_death=t_b[seg_b[last]],
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


def _table_runs(snaps: list[FrontState], k0: int):
    """The rows that consecutive snapshots on one table hold, from segment k0.

    Returns the first and last segment, the table, the row and the position
    in its first segment of each row, in order of first segment, then left
    to right. In snapshots ordered in time a row sits in consecutive ones:
    the tracker emits a front once and replaces it once. One pass serves
    any number of snapshots, a spliced composite's one-snapshot table too.
    """
    table = snaps[0].table
    first = np.full(table.size, -1)
    last = np.empty(table.size, dtype=np.intp)
    slot = np.empty(table.size, dtype=np.intp)  # left-to-right place in the first snapshot
    x_birth = np.empty(table.size)
    for k, snap in enumerate(snaps, k0):
        rows = snap.rows
        born = np.flatnonzero(first.take(rows) < 0)
        new = rows.take(born)
        first[new] = k
        slot[new] = born
        x_birth[new] = snap.positions.take(born)
        last[rows] = k
    rows = np.flatnonzero(first >= 0)
    rows = rows[np.lexsort((slot[rows], first[rows]))]
    return first[rows], last[rows], table, rows, x_birth[rows]


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
    check_finite("positions", pos)
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
        kinds = list(map(_label, vals[:-1].tolist(), vals[1:].tolist()))
    if front_ids is None:
        front_ids = np.arange(len(pos), dtype=_ID_DTYPE)
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
    states = state.states.tolist()
    pos: list[float] = []
    vals: list[float] = [states[0]]
    kinds: list[str] = []
    for x, u_l, u_r in zip(state.positions.tolist(), states[:-1], states[1:]):
        chain, ks = _resolve(u_l, u_r, rarefaction_step)
        pos.extend([x] * (len(chain) - 1))
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


# ---------------------------------------------------------------------------
# the event loop


class _Tracker:
    """State of the event loop, fronts held left to right in numpy arrays.

    pos and speeds (float64) and rows (int32 rows of table) have one entry
    per front; left is the state left of every front. table holds each
    front's states, speed, kind label and id (int32, minted in order and
    refused past 2**31 - 1), appended when an event emits the front, and
    logs each event's splice of rows. Moving every front is one vectorized
    speeds * dt + pos, and a collision or uncover splices its group in with
    one np.concatenate per array. Both build new arrays and never write
    into old ones, so a snapshot keeps the current positions as they are,
    and the table keeps every few events' rows as its checkpoints; only the
    final snapshot, which would share its positions with the last event's,
    copies. So an event costs one C pass per
    array plus interpreted work in the size of its group: the group's
    coincidence compares Python scalars, the emitted chain is checked in one
    Python loop and takes its speeds from one flux evaluation, and the new
    neighbour pairs are pushed from one tolist() per array. Heap entries
    hold Python scalars and the rows of the pair. An entry whose front has
    died since it was pushed is stale; dead marks every row a group
    replaced, so such an entry is dropped without a search for its fronts.
    """

    def __init__(self, flux: ConvexFlux, snap: FrontState, mode: str, step: float):
        self.flux = flux
        self.mode = mode
        self.step = step
        self.band = _band_bound(flux)
        self.t = snap.time
        self.pos = np.array(snap.positions, dtype=float)
        # pairs are queued from neighbours, so the fronts must be in order
        if np.any(np.diff(self.pos) < 0.0):
            raise InvariantViolation(f"front positions must be non-decreasing: {self.pos}")
        given, rows = snap.table, snap.rows
        ids = given.id.take(rows)
        # lifetimes() follows a front from snapshot to snapshot by its id,
        # so no two fronts may share one
        sorted_ids = np.sort(ids)
        twice = sorted_ids[1:][sorted_ids[1:] == sorted_ids[:-1]]
        if twice.size:
            raise InvariantViolation(f"front id {int(twice[0])} is held by more than one front")
        self.table = _FrontTable(
            given.u_minus.take(rows), given.u_plus.take(rows), given.speed.take(rows),
            given.kind.take(rows), ids
        )
        self.rows = self.table.rows_at(0)
        self.speeds = self.table.speed.copy()
        self.left = snap.left_state
        self._next_id = int(ids.max()) + 1 if ids.size else 0
        self._counter = itertools.count()
        self.dead = bytearray(ids.size)
        self.heap: list[tuple] = []
        self.snapshots: list[FrontState] = []
        self.events: list[EventRecord] = []

    def state(self, j: int) -> float:
        """The state left of front j; j = n_fronts gives the rightmost."""
        return self.left if j == 0 else float(self.table.u_plus[self.rows[j - 1]])

    def snapshot(self, copy: bool = False) -> FrontState:
        """The fronts now, holding the tracker's positions unless copy is set."""
        pos = self.pos.copy() if copy else self.pos
        return FrontState._of(self.t, pos, self.table, self.left, self.table.events)

    def advance_to(self, t: float) -> None:
        dt = t - self.t
        if dt < -_TIME_TOL:
            raise InvariantViolation(f"time regression {self.t} -> {t}")
        if dt != 0.0:
            # the bits of pos + speeds * dt, in one new array
            pos = self.speeds * dt
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
        rows = self.rows[lo : hi + 1].tolist()
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
            entry = (t_col, x_l + s_l * dt, next(self._counter), rows[j], rows[j + 1])
            heapq.heappush(heap, entry)

    def _pair_indices(self, row_l: int, row_r: int) -> tuple[int, int] | None:
        if self.dead[row_l] or self.dead[row_r]:
            return None
        rows = self.rows
        i = int((rows == row_l).argmax())
        if rows[i : i + 2].tolist() != [row_l, row_r]:
            return None
        return (i, i + 1)

    def replace_group(
        self, p: int, q: int, x: float, chain: list[float], kinds: list[str]
    ) -> tuple[int, int]:
        """Replace fronts p..q (inclusive) by the chain emitted at x.

        q = p - 1 inserts the chain's fronts before front p, replacing
        only the state left of front p.
        """
        k = len(chain) - 1
        vals = np.asarray(chain, dtype=float)
        band = self.band
        prev = None
        for u in chain:
            if not abs(u) <= band or u == prev:
                # chord_slopes names the equal pair or the state off the band
                new_speeds = chord_slopes(self.flux, vals[:-1], vals[1:])
                break
            prev = u
        else:
            # the chords of chord_slopes, with one flux evaluation per state
            fv = self.flux.f(vals)
            new_speeds = (fv[:-1] - fv[1:]) / (vals[:-1] - vals[1:])
        if self._next_id + k - 1 > _ID_RANGE.max:
            raise InvariantViolation(
                f"front id {self._next_id + k - 1} would pass the int32 limit {_ID_RANGE.max}"
            )
        ids = np.arange(self._next_id, self._next_id + k, dtype=_ID_DTYPE)
        self._next_id += k
        first = self.table.append(vals[:-1], vals[1:], new_speeds, kinds, ids)
        for r in self.rows[p : q + 1].tolist():
            self.dead[r] = 1
        self.dead += bytes(k)
        new_rows = np.arange(first, first + k, dtype=_ROW_DTYPE)
        self.pos = np.concatenate((self.pos[:p], [x] * k, self.pos[q + 1 :]))
        self.speeds = np.concatenate((self.speeds[:p], new_speeds, self.speeds[q + 1 :]))
        self.rows = np.concatenate((self.rows[:p], new_rows, self.rows[q + 1 :]))
        self.table.log_splice(p, q + 1, first, self.rows)
        if p == 0:
            self.left = float(chain[0])
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
        u_left = self.state(p)
        u_right = self.state(q + 1)
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
            chain, kinds = _resolve(new_value, self.left, self.step)
            first, last = self.replace_group(0, -1, x, chain, kinds)
        else:
            n = self.pos.size
            chain, kinds = _resolve(self.state(n), new_value, self.step)
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
