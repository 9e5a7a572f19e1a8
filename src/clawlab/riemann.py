"""Self-similar solutions of the Riemann problem, entropic and otherwise.

A WaveFan is a finite ordered list of waves in the similarity variable
omega = x / t. Shocks occupy a single speed sigma given by the chord slope
(so every fan here is a genuine weak solution); rarefactions occupy the
interval [f'(u_lo), f'(u_hi)] and carry the profile u = (f')^{-1}(omega).

The entropic solver produces the single admissible fan: one shock when
u_l > u_r, one rarefaction when u_l < u_r. The family generator produces
the non-entropic competitors used by the dissipation-rate comparisons:
ascending chains of expansion shocks and partial rarefactions through
chosen intermediate states. Descending data admits no monotone chain
(adjacent descending chords always regress), which the generator reports
as an unsupported family rather than an ordering bug. Non-monotone chains
exist: for Burgers data (1, 0) the chain 1 -> -0.5 -> 1.5 -> 0 has the
ordered speeds 0.25, 0.5 and 0.75. The generator does not build them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import FanOrderingError, FluxRangeError, UnsupportedFamilyError
from .errors import check_finite, check_positive
from .fluxes import ConvexFlux, _check_band, chord_slope, inverse_derivative

EXPANSION_SHOCK = "expansion_shock"
RAREFACTION = "rarefaction"
ENTROPIC_SHOCK = "entropic_shock"

_SPEED_TOL = 1e-12


@dataclass(frozen=True)
class Shock:
    """Jump from u_minus (left) to u_plus (right) travelling at sigma."""

    u_minus: float
    u_plus: float
    sigma: float

    @property
    def kind(self) -> str:
        return ENTROPIC_SHOCK if self.u_minus > self.u_plus else EXPANSION_SHOCK

    @property
    def left_value(self) -> float:
        return self.u_minus

    @property
    def right_value(self) -> float:
        return self.u_plus

    @property
    def support(self) -> tuple[float, float]:
        return (self.sigma, self.sigma)


@dataclass(frozen=True)
class Rarefaction:
    """Continuous wave from u_lo up to u_hi over speeds [omega_lo, omega_hi]."""

    u_lo: float
    u_hi: float
    omega_lo: float
    omega_hi: float

    @property
    def kind(self) -> str:
        return RAREFACTION

    @property
    def left_value(self) -> float:
        return self.u_lo

    @property
    def right_value(self) -> float:
        return self.u_hi

    @property
    def support(self) -> tuple[float, float]:
        return (self.omega_lo, self.omega_hi)


Wave = Shock | Rarefaction


@dataclass(frozen=True)
class WaveFan:
    """Ordered self-similar wave group connecting left_state to right_state."""

    flux: ConvexFlux
    left_state: float
    right_state: float
    waves: tuple[Wave, ...]
    entropic_flag: str  # "entropic" | "non-entropic"


def validate_fan(fan: WaveFan, tol: float = 1e-10) -> None:
    """Structural audit: state chaining, RH speeds, support ordering.

    Raises FanOrderingError naming the offending adjacent speeds when wave
    supports overlap or regress, FluxRangeError when a shock speed is not
    the chord slope or a rarefaction profile is inconsistent with f'.
    """
    flux = fan.flux
    state = fan.left_state
    prev_hi = -np.inf
    prev_support: tuple[float, float] | None = None
    for w in fan.waves:
        if abs(w.left_value - state) > tol:
            raise FanOrderingError(
                f"state chain breaks: wave starts at {w.left_value}, expected {state}"
            )
        if isinstance(w, Shock):
            rh = chord_slope(flux, w.u_minus, w.u_plus)
            if abs(rh - w.sigma) > tol * max(1.0, abs(rh)):
                raise FluxRangeError(
                    f"shock speed {w.sigma} violates the chord slope {rh}"
                )
        else:
            if not (w.u_lo < w.u_hi):
                raise FanOrderingError(
                    f"rarefaction must ascend, got ({w.u_lo}, {w.u_hi})"
                )
            lo = float(flux.df(w.u_lo))
            hi = float(flux.df(w.u_hi))
            if abs(lo - w.omega_lo) > tol or abs(hi - w.omega_hi) > tol:
                raise FluxRangeError(
                    f"rarefaction support ({w.omega_lo}, {w.omega_hi}) is not "
                    f"(f'(u_lo), f'(u_hi)) = ({lo}, {hi})"
                )
        lo, hi = w.support
        if lo < prev_hi - _SPEED_TOL:
            raise FanOrderingError(
                f"wave supports regress: {prev_support} then {(lo, hi)}"
            )
        prev_hi = hi
        prev_support = (lo, hi)
        state = w.right_value
    if abs(state - fan.right_state) > tol:
        raise FanOrderingError(
            f"state chain ends at {state}, expected right state {fan.right_state}"
        )


def solve_riemann(flux: ConvexFlux, u_l: float, u_r: float) -> WaveFan:
    """Entropy solution of the Riemann problem (u_l, u_r)."""
    _check_band(flux, [u_l, u_r], "state")
    if u_l == u_r:
        waves: tuple[Wave, ...] = ()
    elif u_l > u_r:
        waves = (Shock(u_l, u_r, chord_slope(flux, u_l, u_r)),)
    else:
        waves = (
            Rarefaction(u_l, u_r, float(flux.df(u_l)), float(flux.df(u_r))),
        )
    fan = WaveFan(flux, float(u_l), float(u_r), waves, "entropic")
    validate_fan(fan)
    return fan


def non_entropic_family(
    flux: ConvexFlux,
    u_l: float,
    u_r: float,
    intermediate_states: Sequence[float],
    wave_kinds: Sequence[str],
) -> WaveFan:
    """Weak but non-entropic fan through the given ascending intermediates.

    States u_l < s_1 < ... < s_k < u_r split the data into k+1 segments;
    wave_kinds marks each segment "expansion_shock" or "rarefaction". At
    least one expansion shock is required (otherwise the result is just the
    entropic rarefaction, not a competitor). Descending data has no
    monotone chain and raises UnsupportedFamilyError; it has non-monotone
    ones (module docstring), which this generator does not build.
    """
    if not u_l < u_r:
        raise UnsupportedFamilyError(
            f"non-entropic chains need ascending data, got ({u_l}, {u_r}); "
            "descending segment chords always regress"
        )
    states = [float(u_l), *map(float, intermediate_states), float(u_r)]
    if any(not states[i] < states[i + 1] for i in range(len(states) - 1)):
        raise UnsupportedFamilyError(
            f"intermediate states must strictly ascend from u_l to u_r: {states}"
        )
    if len(wave_kinds) != len(states) - 1:
        raise UnsupportedFamilyError(
            f"{len(states) - 1} segments but {len(wave_kinds)} wave kinds"
        )
    bad = sorted(set(wave_kinds) - {EXPANSION_SHOCK, RAREFACTION})
    if bad:
        raise UnsupportedFamilyError(f"unknown wave kinds {bad}")
    if EXPANSION_SHOCK not in wave_kinds:
        raise UnsupportedFamilyError(
            "family member without any expansion shock is the entropic fan; "
            "use solve_riemann for it"
        )
    waves: list[Wave] = []
    for a, b, kind in zip(states[:-1], states[1:], wave_kinds):
        if kind == EXPANSION_SHOCK:
            waves.append(Shock(a, b, chord_slope(flux, a, b)))
        else:
            waves.append(Rarefaction(a, b, float(flux.df(a)), float(flux.df(b))))
    fan = WaveFan(flux, float(u_l), float(u_r), tuple(waves), "non-entropic")
    validate_fan(fan)
    return fan


def equal_split_family(
    flux: ConvexFlux, u_l: float, u_r: float, n_intermediates: int
) -> WaveFan:
    """All-expansion-shock chain through n equally spaced intermediates."""
    states = np.linspace(u_l, u_r, n_intermediates + 2)[1:-1]
    kinds = [EXPANSION_SHOCK] * (n_intermediates + 1)
    return non_entropic_family(flux, u_l, u_r, list(states), kinds)


def family_sweep(
    flux: ConvexFlux,
    u_l: float,
    u_r: float,
    members: int = 20,
    max_intermediates: int = 5,
    seed: int = 0,
) -> list[tuple[str, WaveFan]]:
    """Deterministic roster for dissipation-rate comparisons.

    The entropic fan first, then the equal-split chains with 0 to
    max_intermediates interior states (0 is the single expansion shock),
    then seeded random members until the roster has `members` entries.
    """
    if members < 2:
        raise UnsupportedFamilyError(f"a sweep needs at least 2 members, got {members}")
    roster = [("entropic", solve_riemann(flux, u_l, u_r))]
    n = 0
    while len(roster) < members and n <= max_intermediates:
        roster.append((f"equal_split_{n}", equal_split_family(flux, u_l, u_r, n)))
        n += 1
    rng = np.random.default_rng(seed)
    i = 0
    while len(roster) < members:
        roster.append(
            (f"random_{i}", random_family_member(rng, flux, u_l, u_r, max_intermediates))
        )
        i += 1
    return roster


def random_family_member(
    rng: np.random.Generator,
    flux: ConvexFlux,
    u_l: float,
    u_r: float,
    max_intermediates: int = 5,
) -> WaveFan:
    """Seeded random competitor: random intermediates, random segment kinds."""
    k = int(rng.integers(0, max_intermediates + 1))
    intermediates = np.sort(rng.uniform(u_l, u_r, size=k))
    # Degenerate splits (too close to the endpoints or each other) are rejected.
    states = np.concatenate(([u_l], intermediates, [u_r]))
    if np.min(np.diff(states)) < 1e-3 * (u_r - u_l):
        return random_family_member(rng, flux, u_l, u_r, max_intermediates)
    kinds = [
        EXPANSION_SHOCK if rng.random() < 0.6 else RAREFACTION for _ in range(k + 1)
    ]
    if EXPANSION_SHOCK not in kinds:
        kinds[int(rng.integers(0, len(kinds)))] = EXPANSION_SHOCK
    return non_entropic_family(flux, u_l, u_r, list(intermediates), kinds)


def evaluate_fan(fan: WaveFan, omega: float | np.ndarray) -> float | np.ndarray:
    """Value of the self-similar profile at speed(s) omega.

    Constant between wave supports; (f')^{-1}(omega) inside a rarefaction.
    At a shock speed the left limit is returned, so the profile is the
    caglad representative in omega. Every omega must be finite.
    """
    flux = fan.flux
    arr = np.atleast_1d(np.asarray(omega, dtype=float))
    check_finite("omega", arr)
    out = np.full(arr.shape, fan.left_state, dtype=float)
    for w in fan.waves:
        lo, hi = w.support
        if isinstance(w, Shock):
            out = np.where(arr > lo, w.u_plus, out)
        else:
            inside = (arr > lo) & (arr < hi)
            if np.any(inside):
                out[inside] = inverse_derivative(flux, arr[inside])
            out = np.where(arr >= hi, w.u_hi, out)
    if np.ndim(omega) == 0:
        return float(out[0])
    return out


def fan_ordering_holds(
    flux: ConvexFlux, states: Sequence[float], kinds: Sequence[str]
) -> bool:
    """True when the chain through `states` has non-regressing supports."""
    prev_hi = -np.inf
    for a, b, kind in zip(states[:-1], states[1:], kinds):
        if kind == RAREFACTION:
            if not a < b:
                return False
            lo, hi = float(flux.df(a)), float(flux.df(b))
        else:
            s = chord_slope(flux, a, b)
            lo, hi = s, s
        if lo < prev_hi - _SPEED_TOL:
            return False
        prev_hi = hi
    return True


def fan_to_dict(fan: WaveFan) -> dict:
    """JSON-ready fan description (flux carried by name only)."""
    waves = []
    for w in fan.waves:
        if isinstance(w, Shock):
            waves.append(
                {
                    "kind": w.kind,
                    "u_minus": w.u_minus,
                    "u_plus": w.u_plus,
                    "sigma": w.sigma,
                }
            )
        else:
            waves.append(
                {
                    "kind": RAREFACTION,
                    "u_minus": w.u_lo,
                    "u_plus": w.u_hi,
                    "omega_lo": w.omega_lo,
                    "omega_hi": w.omega_hi,
                }
            )
    return {
        "left_state": fan.left_state,
        "right_state": fan.right_state,
        "waves": waves,
        "entropic_flag": fan.entropic_flag,
    }


def fan_from_dict(flux: ConvexFlux, data: dict) -> WaveFan:
    """Rebuild and re-validate a fan serialized by fan_to_dict."""
    waves: list[Wave] = []
    for w in data["waves"]:
        if w["kind"] == RAREFACTION:
            waves.append(
                Rarefaction(w["u_minus"], w["u_plus"], w["omega_lo"], w["omega_hi"])
            )
        else:
            waves.append(Shock(w["u_minus"], w["u_plus"], w["sigma"]))
    fan = WaveFan(
        flux,
        float(data["left_state"]),
        float(data["right_state"]),
        tuple(waves),
        str(data["entropic_flag"]),
    )
    validate_fan(fan)
    return fan


def fan_breakpoints(fan: WaveFan) -> list[float]:
    """All support endpoints, ascending; sectors between them are smooth."""
    pts: list[float] = []
    for w in fan.waves:
        lo, hi = w.support
        pts.append(lo)
        if hi > lo:
            pts.append(hi)
    return pts


def sample_fan(
    fan: WaveFan, t: float, xs: np.ndarray
) -> np.ndarray:
    """Profile u(x, t) = fan value at omega = x / t for t > 0 and finite xs."""
    check_positive("t", t)
    xs = np.asarray(xs, dtype=float)
    check_finite("xs", xs)
    return np.asarray(evaluate_fan(fan, xs / t))
