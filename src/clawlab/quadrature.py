"""Small numerics kernel: one integrator and one root finder.

Every adaptive integral and every root solve in the package goes through
these two: gauss_panels, composite 10-point Gauss-Legendre on many
intervals at once, and vector_bisect_newton, elementwise bisection with a
Newton or secant polish. Both are plain on purpose: tests pin their bits.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import QuadratureError

MAX_PANELS = 2**12
BISECT_ITERS = 40
POLISH_ITERS = 4


@lru_cache(maxsize=32)
def leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def gauss_panels(
    integrand: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    width: np.ndarray,
    atol: float,
    rtol: float,
) -> np.ndarray:
    """Signed (row 0) and absolute (row 1) integrals over [lo, lo + width].

    integrand(a, rows) gets the nodes a of shape (rows.size, panels, 10)
    for the intervals `rows` and returns the integrand there. Panels double
    only for the intervals whose absolute integral still moves by more than
    atol + rtol * itself; past 2**12 panels QuadratureError is raised. A
    negative width integrates leftward, so its signed integral is that of
    [lo + width, lo] with the sign flipped. Zero widths integrate to 0.
    """
    lo = np.asarray(lo, dtype=float)[:, None, None]
    half = 0.5 * np.asarray(width, dtype=float)[:, None, None]
    out, prev = np.zeros((2, lo.shape[0])), np.full(lo.shape[0], np.inf)
    rows = np.flatnonzero(half[:, 0, 0] != 0.0)
    nodes, weights = leggauss(10)
    panels = 1
    while rows.size:
        if panels > MAX_PANELS:
            raise QuadratureError(f"quadrature of {rows.size} intervals unsettled")
        # about 2**16 panels per integrand call bound the memory of rough integrands
        for part in np.array_split(rows, -(-rows.size * panels // 2**16)):
            h = half[part] / panels
            a = lo[part] + h * (2.0 * np.arange(panels)[:, None] + 1.0 + nodes)
            k = h * weights * integrand(a, part)
            out[:, part] = np.sum(k, axis=(1, 2)), np.sum(np.abs(k), axis=(1, 2))
        moved = np.abs(out[1, rows] - prev[rows]) > atol + rtol * out[1, rows]
        prev[rows] = out[1, rows]
        rows, panels = rows[moved], 2 * panels
    return out


def vector_bisect_newton(
    g: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    dg: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Elementwise root of a monotone increasing g with g(lo) <= 0 <= g(hi).

    Forty bisections shrink each bracket 2**40-fold. Then four Newton steps
    polish the midpoint, each clipped to the bracket; when dg is None, one
    secant step across the final bracket does instead.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        neg = g(mid) < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    if dg is None:
        g_lo = g(lo)
        rise = g(hi) - g_lo  # 0 where g(hi) and g(lo) round to the same float
        step = np.where(rise > 0.0, (hi - lo) / np.where(rise > 0.0, rise, 1.0), 0.0)
        return np.clip(lo - g_lo * step, lo, hi)
    x = 0.5 * (lo + hi)
    for _ in range(POLISH_ITERS):
        x = np.clip(x - g(x) / dg(x), lo, hi)
    return x
