"""Strictly convex flux functions and the scalar calculus built on them.

A ConvexFlux bundles the flux f, its derivative f', a positive lower bound
c on f'' over the working band [-R, R], and the two antiderivatives that
the entropy bookkeeping needs:

    F(u) = integral of f        from 0 to u
    G(u) = integral of s f'(s)  from 0 to u

F drives the closed-form jump dissipation rate; G is the entropy flux
paired with eta(u) = u^2 / 2. When closed forms are not supplied both fall
back to the package's one Gauss-Legendre kernel (quadrature.gauss_panels,
absolute and relative tolerance 1e-13), and a missing inverse of f' falls
back to its one root finder (quadrature.vector_bisect_newton). For smooth
fluxes both fallbacks agree with closed forms to about 1e-15.

The growth condition f -> infinity at infinity that guarantees rarefaction
coverage on the whole line is recorded here but not enforced: every
computation in this package lives on a bounded band where it is vacuous.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DegenerateChordError, FluxRangeError, check_positive
from .quadrature import gauss_panels, vector_bisect_newton

ArrayLike = float | np.ndarray
_AUDIT_SAMPLES, _AUDIT_TOL = 4001, 1e-7  # validate_flux's sampled audit


@dataclass(frozen=True)
class ConvexFlux:
    """Strictly convex flux on the band [-domain_radius, domain_radius].

    Fields
    ------
    name : identifier used by the CLI and serialization.
    f, df : vectorized flux and derivative.
    ddf_lower_bound : c > 0 with f'' >= c on the band.
    domain_radius : R > 0, half-width of the admissible state band.
    antiderivative_F, antiderivative_G : vectorized F and G above.
    inv_df : closed-form inverse of df when available (else None; the
        generic inverse falls back to bracketed root finding).
    ddf : second derivative when available, used only for Newton polish.
    """

    name: str
    f: Callable[[ArrayLike], ArrayLike]
    df: Callable[[ArrayLike], ArrayLike]
    ddf_lower_bound: float
    domain_radius: float
    antiderivative_F: Callable[[ArrayLike], ArrayLike]
    antiderivative_G: Callable[[ArrayLike], ArrayLike]
    inv_df: Callable[[ArrayLike], ArrayLike] | None = None
    ddf: Callable[[ArrayLike], ArrayLike] | None = None

    def __post_init__(self):
        check_positive("ddf_lower_bound", self.ddf_lower_bound)
        check_positive("domain_radius", self.domain_radius)

    @cached_property
    def sonic_state(self) -> float:
        """The minimizer of f on the band: the root of f', or the end of
        [-R, R] nearest it when f' keeps one sign there.

        Computed once per flux object, since without inv_df it bisects; a
        copy made by dataclasses.replace computes its own.
        """
        R = self.domain_radius
        if float(self.df(-R)) >= 0.0:
            return -R
        if float(self.df(R)) <= 0.0:
            return R
        return float(inverse_derivative(self, 0.0))


def _quadrature_antiderivative(fn: Callable) -> Callable:
    # Both tolerances are needed: near u = 0 a relative one alone never
    # settles, because e.g. cosh(s) - 1 loses relative accuracy there.
    def anti(u: ArrayLike) -> ArrayLike:
        flat = np.ravel(np.asarray(u, dtype=float))
        out = gauss_panels(
            lambda a, rows: fn(a), np.zeros(flat.size), flat, atol=1e-13, rtol=1e-13
        )[0]
        return float(out[0]) if np.ndim(u) == 0 else out.reshape(np.shape(u))

    return anti


def make_convex_flux(
    name: str,
    f: Callable,
    df: Callable,
    ddf_lower_bound: float,
    domain_radius: float = 2.0,
    antiderivative_F: Callable | None = None,
    antiderivative_G: Callable | None = None,
    inv_df: Callable | None = None,
    ddf: Callable | None = None,
) -> ConvexFlux:
    """Build a ConvexFlux, filling a missing F or G by quadrature.

    The fallback integrates all entries at once on quadrature.gauss_panels
    and raises QuadratureError where the integrand is too rough to settle.
    """
    if antiderivative_F is None:
        antiderivative_F = _quadrature_antiderivative(f)
    if antiderivative_G is None:
        antiderivative_G = _quadrature_antiderivative(lambda s: s * df(s))
    return ConvexFlux(
        name=name,
        f=f,
        df=df,
        ddf_lower_bound=float(ddf_lower_bound),
        domain_radius=float(domain_radius),
        antiderivative_F=antiderivative_F,
        antiderivative_G=antiderivative_G,
        inv_df=inv_df,
        ddf=ddf,
    )


def burgers_flux(domain_radius: float = 2.0) -> ConvexFlux:
    """f(u) = u^2 / 2. The closed-form workhorse: f'' = 1 everywhere."""
    return make_convex_flux(
        "burgers",
        f=lambda u: 0.5 * np.asarray(u, dtype=float) ** 2,
        df=lambda u: np.asarray(u, dtype=float),
        ddf_lower_bound=1.0,
        domain_radius=domain_radius,
        antiderivative_F=lambda u: np.asarray(u, dtype=float) ** 3 / 6.0,
        antiderivative_G=lambda u: np.asarray(u, dtype=float) ** 3 / 3.0,
        inv_df=lambda p: np.asarray(p, dtype=float),
        ddf=lambda u: np.ones_like(np.asarray(u, dtype=float)),
    )


def cosh_flux(domain_radius: float = 2.0) -> ConvexFlux:
    """f(u) = cosh(u) - 1, a transcendental flux with f'' >= 1 on any band."""
    return make_convex_flux(
        "cosh",
        f=lambda u: np.cosh(u) - 1.0,
        df=np.sinh,
        ddf_lower_bound=1.0,
        domain_radius=domain_radius,
        antiderivative_F=lambda u: np.sinh(u) - np.asarray(u, dtype=float),
        antiderivative_G=lambda u: np.asarray(u, dtype=float) * np.cosh(u) - np.sinh(u),
        inv_df=np.arcsinh,
        ddf=np.cosh,
    )


def poly4_flux(domain_radius: float = 2.0) -> ConvexFlux:
    """f(u) = u^2/2 + u^4/12, a quartic whose f' inverse has no closed form.

    Powers above the square are products of u * u: numpy's power has a fast
    path only up to the square, so f written with u ** 4 costs about seven
    times as much on a 402-entry array. Each closed form sums two
    same-signed terms, so it stays within 3 eps of the exact value.
    """

    def f(u: ArrayLike) -> ArrayLike:
        u = np.asarray(u, dtype=float)
        u2 = u * u
        return 0.5 * u2 + u2 * u2 / 12.0

    def df(u: ArrayLike) -> ArrayLike:
        u = np.asarray(u, dtype=float)
        return u + u * (u * u) / 3.0

    def antiderivative_F(u: ArrayLike) -> ArrayLike:
        u = np.asarray(u, dtype=float)
        u3 = u * u * u
        return u3 / 6.0 + u3 * (u * u) / 60.0

    def antiderivative_G(u: ArrayLike) -> ArrayLike:
        u = np.asarray(u, dtype=float)
        u3 = u * u * u
        return u3 / 3.0 + u3 * (u * u) / 15.0

    return make_convex_flux(
        "poly4",
        f=f,
        df=df,
        ddf_lower_bound=1.0,
        domain_radius=domain_radius,
        antiderivative_F=antiderivative_F,
        antiderivative_G=antiderivative_G,
        ddf=lambda u: 1.0 + np.asarray(u, dtype=float) ** 2,
    )


FLUX_CATALOG: dict[str, Callable[[float], ConvexFlux]] = {
    "burgers": burgers_flux,
    "cosh": cosh_flux,
    "poly4": poly4_flux,
}


def make_flux(name: str, domain_radius: float = 2.0) -> ConvexFlux:
    """Catalog lookup by name: burgers, cosh, or poly4."""
    try:
        factory = FLUX_CATALOG[name]
    except KeyError:
        raise FluxRangeError(
            f"unknown flux {name!r}; available: {sorted(FLUX_CATALOG)}"
        ) from None
    return factory(domain_radius)


def _band_bound(flux: ConvexFlux) -> float:
    """Largest |u| on the band: R with 1e-12 relative and absolute slack."""
    return flux.domain_radius * (1.0 + 1e-12) + 1e-12


def _check_band(flux: ConvexFlux, u: ArrayLike, what: str) -> None:
    r = flux.domain_radius
    arr = np.ravel(np.asarray(u, dtype=float))
    inside = np.abs(arr) <= _band_bound(flux)
    if not inside.all():
        raise FluxRangeError(
            f"{what} {float(arr[np.argmin(inside)])} outside the admissible band "
            f"[{-r}, {r}] of flux {flux.name!r}"
        )


def inverse_derivative(flux: ConvexFlux, slope: ArrayLike) -> ArrayLike:
    """Solve f'(u) = slope for u on the working band.

    slope must lie in [f'(-R), f'(R)]; anything else, NaN included, raises
    FluxRangeError naming the admissible interval. Closed-form inverses are
    used when the flux provides one. Otherwise scalars and arrays alike go
    through quadrature.vector_bisect_newton on [-R, R]: bisection, then a
    Newton polish with ddf, or one secant step across the final bracket
    without it.
    """
    r = flux.domain_radius
    lo_slope = float(flux.df(-r))
    hi_slope = float(flux.df(r))
    arr = np.asarray(slope, dtype=float)
    pad = 1e-12 * max(1.0, abs(lo_slope), abs(hi_slope))
    inside = (arr >= lo_slope - pad) & (arr <= hi_slope + pad)
    if not inside.all():
        raise FluxRangeError(
            f"slope {float(np.ravel(arr)[np.argmin(inside)])} outside admissible range "
            f"[{lo_slope}, {hi_slope}] for flux {flux.name!r} on [-{r}, {r}]"
        )
    arr = np.clip(arr, lo_slope, hi_slope)
    if flux.inv_df is not None:
        out = flux.inv_df(arr)
    else:
        flat = np.ravel(arr)
        lo, hi = np.full_like(flat, -r), np.full_like(flat, r)
        out = vector_bisect_newton(lambda u: flux.df(u) - flat, lo, hi, flux.ddf)
    out = np.asarray(out, dtype=float).reshape(arr.shape)
    return float(out) if np.ndim(slope) == 0 else out


def convex_conjugate(flux: ConvexFlux, p: ArrayLike) -> ArrayLike:
    """Legendre transform f*(p) = sup_u [p u - f(u)], attained at f'(u) = p."""
    u_star = inverse_derivative(flux, p)
    out = np.asarray(p, dtype=float) * u_star - flux.f(u_star)
    return float(out) if np.ndim(p) == 0 else np.asarray(out, dtype=float)


def chord_slopes(flux: ConvexFlux, a: ArrayLike, b: ArrayLike) -> np.ndarray:
    """Elementwise Rankine-Hugoniot speeds (f(a) - f(b)) / (a - b).

    Raises DegenerateChordError naming the first pair with a == b, then
    FluxRangeError if any state leaves the band.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    same = a == b
    if same.any():
        u = float(np.broadcast_to(a, same.shape)[same][0])
        raise DegenerateChordError(f"chord of the degenerate pair ({u}, {u})")
    _check_band(flux, np.concatenate((a, b), axis=None), "state")
    return (flux.f(a) - flux.f(b)) / (a - b)


def chord_slope(flux: ConvexFlux, a: float, b: float) -> float:
    """Rankine-Hugoniot speed (f(a) - f(b)) / (a - b) of the jump (a, b)."""
    return float(chord_slopes(flux, a, b))


def validate_flux(flux: ConvexFlux) -> None:
    """Sampled consistency audit on the working band.

    Checks f(0) = 0 normalization of the antiderivatives, monotonicity and
    the convexity lower bound for f' difference quotients, and agreement of
    F', G' with f and u f' through centered differences.
    """
    r = flux.domain_radius
    u = np.linspace(-r, r, _AUDIT_SAMPLES)
    fp = np.asarray(flux.df(u), dtype=float)
    du = u[1] - u[0]
    quot = np.diff(fp) / du
    if np.any(quot < flux.ddf_lower_bound - 1e-6):
        raise FluxRangeError(
            f"flux {flux.name!r}: f' difference quotients fall below c="
            f"{flux.ddf_lower_bound}"
        )
    h = 1e-5 * max(1.0, r)
    inner = u[(np.abs(u) <= r - 2 * h)]
    F = flux.antiderivative_F
    G = flux.antiderivative_G
    dF = (np.asarray(F(inner + h)) - np.asarray(F(inner - h))) / (2 * h)
    dG = (np.asarray(G(inner + h)) - np.asarray(G(inner - h))) / (2 * h)
    f_vals = np.asarray(flux.f(inner), dtype=float)
    g_vals = inner * np.asarray(flux.df(inner), dtype=float)
    scale = max(1.0, float(np.max(np.abs(f_vals))), float(np.max(np.abs(g_vals))))
    err_f = float(np.max(np.abs(dF - f_vals))) / scale
    err_g = float(np.max(np.abs(dG - g_vals))) / scale
    if err_f > _AUDIT_TOL or err_g > _AUDIT_TOL:
        raise FluxRangeError(
            f"flux {flux.name!r}: antiderivative audit failed "
            f"(F residual {err_f:.2e}, G residual {err_g:.2e})"
        )
    for anti, label in ((F, "F"), (G, "G")):
        at0 = float(np.asarray(anti(0.0)))
        if abs(at0) > 1e-12:
            raise FluxRangeError(f"flux {flux.name!r}: {label}(0) = {at0}, want 0")
