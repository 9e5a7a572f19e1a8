"""Step functions: the one reader of step data, and L1 distances.

Step data (xs, us) is a step function on the real line: us[i] is the
value on (xs[i-1], xs[i]), and us[0] and us[-1] extend to -inf and +inf.
It is legal when len(us) == len(xs) + 1, every entry is finite
(errors.check_finite), and the breakpoints do not decrease; a repeated
breakpoint is a piece of zero width. step_data enforces this for every
entry point that takes (xs, us), step_values evaluates the left limit (at
x = xs[i] it gives us[i]), and step_primitive integrates with the outer
values as tail slopes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import FluxRangeError, InvariantViolation, check_finite


def step_data(xs, us) -> tuple[np.ndarray, np.ndarray]:
    """(xs, us) as new float arrays; illegal data raise FluxRangeError."""
    xs = np.array(xs, dtype=float)
    us = np.array(us, dtype=float)
    if us.size != xs.size + 1:
        raise FluxRangeError(
            f"need len(us) == len(xs) + 1, got {us.size} and {xs.size}"
        )
    check_finite("xs", xs)
    check_finite("us", us)
    if np.any(np.diff(xs) < 0.0):
        raise FluxRangeError("breakpoints must be non-decreasing")
    return xs, us


def step_values(xs: np.ndarray, us: np.ndarray, x):
    """Left-limit value of legal step data at every point of x."""
    out = us[np.searchsorted(xs, np.asarray(x, dtype=float), side="left")]
    return float(out) if np.ndim(x) == 0 else out


def step_primitive(xs: np.ndarray, us: np.ndarray, y):
    """Integral of legal step data, zero at xs[0] (at 0 if there is none)."""
    y = np.asarray(y, dtype=float)
    if xs.size == 0:
        out = us[0] * y
    else:
        knots = np.concatenate(([0.0], np.cumsum(us[1:-1] * np.diff(xs))))
        out = np.interp(y, xs, knots)
        out += np.where(y < xs[0], (y - xs[0]) * us[0], 0.0)
        out += np.where(y > xs[-1], (y - xs[-1]) * us[-1], 0.0)
    return float(out) if out.ndim == 0 else out


def _distinct_sorted(xs: np.ndarray) -> np.ndarray:
    """The sorted distinct values of finite xs, as np.unique gives them.

    It is np.unique's sort and mask of repeats, without the import of
    numpy.ma that np.unique makes on its first call.
    """
    xs = np.sort(xs)
    keep = np.empty(xs.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = xs[1:] != xs[:-1]
    return xs[keep]


def l1_steps(
    xs_a: np.ndarray, vals_a: np.ndarray, xs_b: np.ndarray, vals_b: np.ndarray
) -> float:
    """Exact L1 distance between two step functions with equal tails."""
    xs_a, vals_a = step_data(xs_a, vals_a)
    xs_b, vals_b = step_data(xs_b, vals_b)
    if vals_a[0] != vals_b[0] or vals_a[-1] != vals_b[-1]:
        raise InvariantViolation("step functions must agree at infinity")
    cuts = _distinct_sorted(np.concatenate([xs_a, xs_b]))
    if cuts.size < 2:
        return 0.0
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    ua = step_values(xs_a, vals_a, mids)
    ub = step_values(xs_b, vals_b, mids)
    return float(np.dot(np.abs(ua - ub), np.diff(cuts)))


def l1_step_vs_fn(
    xs: np.ndarray,
    vals: np.ndarray,
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    max_cell: float = 1e-3,
) -> float:
    """L1 distance between a step function and a callable on [lo, hi].

    Composite midpoint quadrature on a grid refined below max_cell and
    split at the step breakpoints, so the only error left is the kinks of
    |difference| inside cells.
    """
    xs, vals = step_data(xs, vals)
    cuts = _distinct_sorted(np.concatenate(([lo, hi], xs[(lo < xs) & (xs < hi)])))
    counts = np.maximum(4, np.ceil(np.diff(cuts) / max_cell).astype(int))
    # every cell of every piece at once: its piece, its index in the piece
    piece = np.repeat(np.arange(counts.size), counts)
    index = np.arange(piece.size) - np.repeat(np.cumsum(counts) - counts, counts)
    width = (np.diff(cuts) / counts)[piece]
    mids = cuts[piece] + (index + 0.5) * width
    u_step = step_values(xs, vals, mids)
    return float(np.dot(np.abs(u_step - np.asarray(fn(mids))), width))


def observed_orders(widths: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """Pairwise convergence orders log(e_i/e_{i+1}) / log(h_i/h_{i+1})."""
    widths = np.asarray(widths, dtype=float)
    errors = np.asarray(errors, dtype=float)
    return np.log(errors[:-1] / errors[1:]) / np.log(widths[:-1] / widths[1:])


def fitted_order(widths: np.ndarray, errors: np.ndarray) -> float:
    """Least-squares slope of log error against log width.

    Pairwise ratios wobble with how a shock lands inside its cell; the
    fitted slope is the stable single-number summary of a refinement run.
    """
    lw = np.log(np.asarray(widths, dtype=float))
    le = np.log(np.asarray(errors, dtype=float))
    if lw.size < 2:
        raise InvariantViolation("order fit needs at least two resolutions")
    return float(np.polyfit(lw, le, 1)[0])
