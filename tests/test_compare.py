"""L1 helpers: the vectorized midpoint sum against its per-piece loop, and
the breakpoint merge against np.unique."""

import numpy as np
import pytest

from clawlab import l1_step_vs_fn
from clawlab.compare import _distinct_sorted


def loop_l1_step_vs_fn(xs, vals, fn, lo, hi, max_cell):
    """Reference: one piece at a time, as the sum was first written."""
    cuts = np.unique(np.asarray([lo, hi] + [x for x in xs if lo < x < hi]))
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        n = max(4, int(np.ceil((b - a) / max_cell)))
        edges = np.linspace(a, b, n + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        u_step = vals[np.searchsorted(xs, mids, side="left")]
        total += float(np.sum(np.abs(u_step - fn(mids))) * (b - a) / n)
    return total


def test_l1_step_vs_fn_matches_per_piece_loop():
    rng = np.random.default_rng(31)
    calls = []

    def fn(x):
        calls.append(x.size)
        return np.sin(3.0 * x) * np.exp(-x * x)

    for _ in range(40):
        n = int(rng.integers(0, 30))
        xs = np.sort(rng.uniform(-3.0, 3.0, size=n))
        vals = rng.uniform(-1.0, 1.0, size=n + 1)
        lo, hi = sorted(rng.uniform(-4.0, 4.0, size=2))
        max_cell = float(rng.choice([1e-3, 0.05, 0.7]))
        want = loop_l1_step_vs_fn(xs, vals, fn, lo, hi, max_cell)
        calls.clear()
        got = l1_step_vs_fn(xs, vals, fn, lo, hi, max_cell=max_cell)
        # summation order differs; both are sums of O(1) terms of one sign
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert len(calls) == 1


def test_distinct_sorted_matches_np_unique_bit_for_bit():
    """Repeated breakpoints and zeros of both signs, in random order: the
    cut points are np.unique's, down to the sign of each zero."""
    rng = np.random.default_rng(47)
    for _ in range(200):
        n = int(rng.integers(0, 40))
        xs = np.round(rng.uniform(-1.0, 1.0, size=n), 1)
        xs[rng.random(n) < 0.2] = 0.0
        xs[rng.random(n) < 0.2] = -0.0
        rng.shuffle(xs)
        got, want = _distinct_sorted(xs), np.unique(xs)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
