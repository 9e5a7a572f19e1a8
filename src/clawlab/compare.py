"""L1 comparison helpers shared by the oracle cross-checks."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InvariantViolation


def l1_steps(
    xs_a: np.ndarray, vals_a: np.ndarray, xs_b: np.ndarray, vals_b: np.ndarray
) -> float:
    """Exact L1 distance between two step functions with equal tails."""
    vals_a = np.asarray(vals_a, dtype=float)
    vals_b = np.asarray(vals_b, dtype=float)
    if vals_a[0] != vals_b[0] or vals_a[-1] != vals_b[-1]:
        raise InvariantViolation("step functions must agree at infinity")
    cuts = np.unique(np.concatenate([np.asarray(xs_a), np.asarray(xs_b)]))
    if cuts.size < 2:
        return 0.0
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    ua = vals_a[np.searchsorted(xs_a, mids, side="left")]
    ub = vals_b[np.searchsorted(xs_b, mids, side="left")]
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
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray(vals, dtype=float)
    cuts = np.unique(np.concatenate(([lo, hi], xs[(lo < xs) & (xs < hi)])))
    counts = np.maximum(4, np.ceil(np.diff(cuts) / max_cell).astype(int))
    # every cell of every piece at once: its piece, its index in the piece
    piece = np.repeat(np.arange(counts.size), counts)
    index = np.arange(piece.size) - np.repeat(np.cumsum(counts) - counts, counts)
    width = (np.diff(cuts) / counts)[piece]
    mids = cuts[piece] + (index + 0.5) * width
    u_step = vals[np.searchsorted(xs, mids, side="left")]
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
