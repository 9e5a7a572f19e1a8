"""Variational oracle: the potential of the entropy solution.

If g0 is a primitive of the initial data, the value function

    g(x, t) = min over y of [ g0(y) + t fstar((x - y) / t) ]

solves the Hamilton-Jacobi equation dg/dt + f(dg/dx) = 0 in the
viscosity sense, and its space derivative is the entropy solution of
the conservation law with data u0 = g0'. Evaluation needs only the
convex conjugate and the data. Its only code in common with front
tracking and Godunov is the reader of step data (compare.step_data and
compare.step_primitive), so it serves as an independent oracle for both.

For Lipschitz g0 with slopes in [-R, R], the minimizer y satisfies
(x - y)/t in the characteristic speed range [f'(-R), f'(R)], which
gives a finite bracket for y.

For step data g0 is piecewise linear. On piece i, with slope u_i, the
objective is linear plus the convex t fstar((x - y)/t), so it is convex
there, and it is stationary at the characteristic foot y = x - t f'(u_i).
Clipping that foot to the piece intersected with the bracket therefore
gives the exact minimum over the piece, and g(x, t) is the least of the
m + 1 piece candidates; its argmin is the minimizer. All points are
evaluated at once as one (points x pieces) array. Nothing is sampled in
y, so no piece is too narrow to be seen and there is no seed spacing or
search tolerance to choose.

oracle_u is the centred difference (g(x + h) - g(x - h)) / 2h. Next to
a shock it is intermediate (the quotient straddles the jump), so callers
compare pointwise only away from fronts, and otherwise in L1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compare import step_data, step_primitive
from .errors import FluxRangeError
from .fluxes import ConvexFlux, convex_conjugate


@dataclass(frozen=True, eq=False)
class PotentialData:
    """The step data (breakpoints, values) and its primitive g0.

    values[i] is the value on (breakpoints[i-1], breakpoints[i]) and the
    slope of g0 there; the outer values extend as the tail slopes. Both
    are read by compare.step_data, so illegal data raise FluxRangeError
    and a non-finite entry is named.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xs, us = step_data(self.breakpoints, self.values)
        object.__setattr__(self, "breakpoints", xs)
        object.__setattr__(self, "values", us)

    def g0(self, y):
        """The primitive, anchored so g0(0) = 0."""
        xs, us = self.breakpoints, self.values
        shift = step_primitive(xs, us, 0.0) if xs.size else 0.0
        return step_primitive(xs, us, y) - shift

    @property
    def lipschitz_bound(self) -> float:
        return float(np.max(np.abs(self.values)))


def potential_from_step(xs, us) -> PotentialData:
    """Piecewise-linear primitive of the step function (xs, us)."""
    return PotentialData(xs, us)


def potential_from_state(state) -> PotentialData:
    """Primitive of a front-tracking snapshot, as step data."""
    xs, us = state.to_step()
    return potential_from_step(xs, us)


def _minimize(
    data: PotentialData, flux: ConvexFlux, x, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Minimizer y and value g(x, t) at every point of x."""
    if not (np.isfinite(t) and t > 0.0):
        raise FluxRangeError(f"Hopf-Lax evaluation needs a finite t > 0, got t = {t}")
    xs, us = data.breakpoints, data.values
    x = np.ravel(np.asarray(x, dtype=float))[:, None]
    R = flux.domain_radius
    s_lo, s_hi = float(flux.df(-R)), float(flux.df(R))
    # piece i is [xs[i-1], xs[i]], unbounded at both tails, cut to the bracket
    lo = np.maximum(np.concatenate(([-np.inf], xs)), x - t * s_hi)
    hi = np.minimum(np.concatenate((xs, [np.inf])), x - t * s_lo)
    y = np.minimum(np.maximum(x - t * np.asarray(flux.df(us)), lo), hi)
    # g0 is linear on each piece: anchor piece 0 at its right end, the rest
    # at their left ends (no anchor but 0 for constant data)
    anchors = np.concatenate((xs[:1], xs)) if xs.size else np.zeros(1)
    p = np.clip((x - y) / t, s_lo, s_hi)
    vals = data.g0(anchors) + us * (y - anchors) + t * convex_conjugate(flux, p)
    vals[lo > hi] = np.inf
    best = np.argmin(vals, axis=1)
    rows = np.arange(x.shape[0])
    return y[rows, best], vals[rows, best]


def hopf_lax_minimizer(
    data: PotentialData, flux: ConvexFlux, x: float, t: float
) -> tuple[float, float]:
    """Minimizing y and the value g(x, t)."""
    y, g = _minimize(data, flux, x, t)
    return float(y[0]), float(g[0])


def hopf_lax_value(data: PotentialData, flux: ConvexFlux, x: float, t: float) -> float:
    return hopf_lax_minimizer(data, flux, x, t)[1]


def oracle_u(
    data: PotentialData, flux: ConvexFlux, x: float, t: float, h: float = 1e-6
) -> float:
    """Central difference quotient of the potential: the solution value.

    Away from fronts this is the entropy solution to O(h / t); straddling
    a front it returns an intermediate value, so compare it pointwise
    only away from fronts.
    """
    return float(sample_oracle(data, flux, [x], t, h)[0])


def sample_oracle(
    data: PotentialData, flux: ConvexFlux, xs, t: float, h: float = 1e-6
) -> np.ndarray:
    """oracle_u at every point of xs, from one call for all 2n potentials."""
    if not (np.isfinite(h) and h > 0.0):
        raise FluxRangeError(f"difference step h must be finite and positive, got h = {h}")
    xs = np.ravel(np.asarray(xs, dtype=float))
    g = _minimize(data, flux, np.concatenate((xs + h, xs - h)), t)[1]
    return (g[: xs.size] - g[xs.size :]) / (2.0 * h)


def sample_potential(data: PotentialData, flux: ConvexFlux, xs, t: float) -> np.ndarray:
    return _minimize(data, flux, xs, t)[1]
