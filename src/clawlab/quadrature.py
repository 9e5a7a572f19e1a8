"""Small numerics kernel: quadrature and root finding.

Everything here is deliberately plain. The algorithms are pinned by the
package's numeric contracts (adaptive Simpson with a hard interval cap,
bisection bracketing followed by Newton or secant polish), so a
general-purpose library would only hide the knobs the tests assert on.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np


class QuadratureError(Exception):
    """Adaptive quadrature failed to reach tolerance within the interval cap."""


def adaptive_simpson(
    fn: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 20,
) -> float:
    """Integrate fn over [a, b] by adaptive Simpson subdivision.

    max_depth = 20 caps the refinement at 2**20 leaf intervals. Raises
    QuadratureError if an interval still disagrees at the cap.
    """
    if a == b:
        return 0.0

    def simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = fn(lm)
        frm = fn(rm)
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        if depth <= 0:
            if abs(left + right - whole) > 15.0 * eps:
                raise QuadratureError(
                    f"adaptive Simpson hit the interval cap on [{lo}, {hi}]"
                )
            return left + right + (left + right - whole) / 15.0
        if abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, flm, fmid, left, 0.5 * eps, depth - 1) + recurse(
            mid, hi, fmid, frm, fhi, right, 0.5 * eps, depth - 1
        )

    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, max_depth)


def bisect_then_polish(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    dg: Callable[[float], float] | None = None,
    bracket_tol: float = 1e-6,
    polish_tol: float = 1e-12,
    max_polish: int = 60,
) -> float:
    """Root of a monotone increasing g on [lo, hi].

    Bisection narrows the bracket to width bracket_tol, then Newton (when dg
    is supplied) or secant iterations polish until |g| <= polish_tol scaled
    by max(1, |g(lo)|, |g(hi)|) local slope terms. The bracket is never left.
    """
    glo = g(lo)
    ghi = g(hi)
    if glo > 0.0 or ghi < 0.0:
        raise ValueError(f"root not bracketed on [{lo}, {hi}]: g={glo}, {ghi}")
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    while hi - lo > bracket_tol:
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if gm < 0.0:
            lo, glo = mid, gm
        else:
            hi, ghi = mid, gm

    x = 0.5 * (lo + hi)
    gx = g(x)
    x_prev, g_prev = lo, glo
    for _ in range(max_polish):
        if abs(gx) <= polish_tol:
            return x
        if dg is not None:
            slope = dg(x)
        else:
            slope = (gx - g_prev) / (x - x_prev) if x != x_prev else 0.0
        if slope <= 0.0:
            step_x = 0.5 * (lo + hi)
        else:
            step_x = x - gx / slope
            if not (lo <= step_x <= hi):
                step_x = 0.5 * (lo + hi)
        x_prev, g_prev = x, gx
        x = step_x
        gx = g(x)
        if gx < 0.0:
            lo = x
        else:
            hi = x
    if abs(gx) <= polish_tol * 10.0:
        return x
    raise ValueError(f"root polish stalled at x={x}, g={gx}")


@lru_cache(maxsize=32)
def leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def vector_bisect_newton(
    g: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    dg: Callable[[np.ndarray], np.ndarray] | None = None,
    bisect_iters: int = 40,
    polish_iters: int = 4,
) -> np.ndarray:
    """Vectorized root solve for elementwise-monotone-increasing g.

    Runs fixed-count bisection then a few Newton steps (secant fallback when
    dg is None). Used on arrays of targets, e.g. inverting f' along a
    rarefaction profile.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        neg = g(mid) < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    x = 0.5 * (lo + hi)
    if dg is not None:
        for _ in range(polish_iters):
            x = np.clip(x - g(x) / dg(x), lo, hi)
    return x
