"""Helpers shared by several test modules."""

import numpy as np
import pytest


def _chebyshev_levels(lo, hi, n=33, margin=1e-6):
    k = np.arange(1, n + 1)
    nodes = np.cos((2 * k - 1) * np.pi / (2 * n))
    inside = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    return np.sort(inside), np.array([lo - margin, hi + margin])


@pytest.fixture
def chebyshev_levels():
    """(inside, outside) levels of [lo, hi]: n sorted Chebyshev points for
    the sign checks, and the probes lo - margin and hi + margin for the
    compact-support checks."""
    return _chebyshev_levels
