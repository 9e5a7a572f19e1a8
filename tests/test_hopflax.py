"""Variational oracle: potentials, minimizers, and difference quotients."""

import numpy as np
import pytest

from clawlab import (
    PotentialData,
    burgers_flux,
    cosh_flux,
    evolve,
    hopf_lax_minimizer,
    hopf_lax_value,
    l1_step_vs_fn,
    oracle_u,
    potential_from_state,
    potential_from_step,
    sample_oracle,
    sample_potential,
    state_from_data,
)
from clawlab import convex_conjugate, make_flux
from clawlab.compare import step_data
from clawlab.errors import FluxRangeError


def brute_primitive(xs, us, y):
    """Integral of the step function from 0 to y, summed cell by cell."""
    grid = np.sort(np.concatenate((xs, [0.0, y])))
    total = 0.0
    for a, b in zip(grid[:-1], grid[1:]):
        mid = 0.5 * (a + b)
        val = us[int(np.searchsorted(xs, mid, side="right"))]
        lo, hi = sorted((0.0, y))
        ov = max(0.0, min(b, hi) - max(a, lo))
        total += val * ov
    return total if y >= 0.0 else -total


def test_potential_matches_brute_integral():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        xs = np.sort(rng.uniform(-2.0, 2.0, size=n))
        us = rng.uniform(-1.5, 1.5, size=n + 1)
        data = potential_from_step(xs, us)
        assert data.g0(0.0) == pytest.approx(0.0, abs=1e-14)
        assert data.lipschitz_bound == pytest.approx(float(np.max(np.abs(us))))
        for y in rng.uniform(-4.0, 4.0, size=12):
            assert data.g0(float(y)) == pytest.approx(
                brute_primitive(xs, us, float(y)), abs=1e-12
            )


def test_potential_constant_data_and_validation():
    data = potential_from_step([], [0.7])
    ys = np.array([-2.0, 0.0, 3.0])
    assert np.allclose(data.g0(ys), 0.7 * ys)
    with pytest.raises(FluxRangeError):
        potential_from_step([0.0], [1.0])  # needs two values
    with pytest.raises(FluxRangeError):
        potential_from_step([1.0, 0.0], [1.0, 0.5, 0.0])


@pytest.mark.parametrize(
    "xs, us, name",
    [
        ([0.0], [0.0, np.nan], r"us\[1\] = nan"),
        ([np.nan], [0.0, 1.0], r"xs\[0\] = nan"),
        ([0.0, 1.0], [np.inf, 0.5, 0.0], r"us\[0\] = inf"),
    ],
    ids=["us-nan", "xs-nan", "us-inf"],
)
def test_potential_rejects_non_finite_data(xs, us, name):
    with pytest.raises(FluxRangeError, match=name):
        potential_from_step(xs, us)


@pytest.mark.parametrize(
    "xs, us",
    [([0.0], [1.0]), ([1.0, 0.0], [1.0, 0.5, 0.0]), ([0.0], [0.0, np.inf])],
    ids=["lengths", "unsorted", "us-inf"],
)
def test_potential_data_reads_step_data_like_potential_from_step(xs, us):
    with pytest.raises(FluxRangeError) as direct:
        PotentialData(xs, us)
    with pytest.raises(FluxRangeError) as built:
        potential_from_step(xs, us)
    with pytest.raises(FluxRangeError) as read:
        step_data(xs, us)
    assert str(direct.value) == str(built.value) == str(read.value)


def test_value_needs_positive_time():
    data = potential_from_step([0.0], [1.0, 0.0])
    with pytest.raises(FluxRangeError):
        hopf_lax_value(data, burgers_flux(), 0.0, 0.0)
    with pytest.raises(FluxRangeError):
        oracle_u(data, burgers_flux(), 0.0, 1.0, h=0.0)


def test_value_closed_form_shock():
    # data 1 for x<0, 0 for x>0: g(x, t) = min(x - t/2, 0)
    fl = burgers_flux()
    data = potential_from_step([0.0], [1.0, 0.0])
    rng = np.random.default_rng(3)
    for _ in range(40):
        t = float(rng.uniform(0.2, 2.0))
        x = float(rng.uniform(-2.0, 2.0))
        assert hopf_lax_value(data, fl, x, t) == pytest.approx(
            min(x - 0.5 * t, 0.0), abs=1e-11
        )


def test_value_closed_form_rarefaction():
    # data 0 for x<0, 1 for x>0: g = 0, x^2/(2t), x - t/2 on the sectors
    fl = burgers_flux()
    data = potential_from_step([0.0], [0.0, 1.0])
    for t in (0.3, 1.0, 1.7):
        for x in np.linspace(-1.5, 2.5, 33):
            if x <= 0.0:
                want = 0.0
            elif x <= t:
                want = x * x / (2.0 * t)
            else:
                want = x - 0.5 * t
            assert hopf_lax_value(data, fl, float(x), t) == pytest.approx(
                want, abs=1e-11
            )


def test_minimizer_is_characteristic_foot():
    fl = burgers_flux()
    data = potential_from_step([0.0], [1.0, 0.0])
    t = 1.0
    y, _ = hopf_lax_minimizer(data, fl, -0.5, t)  # left of shock: u = 1
    assert y == pytest.approx(-0.5 - t, abs=1e-6)
    y, _ = hopf_lax_minimizer(data, fl, 1.2, t)  # right of shock: u = 0
    assert y == pytest.approx(1.2, abs=1e-6)


def test_oracle_u_pointwise():
    fl = burgers_flux()
    shock = potential_from_step([0.0], [1.0, 0.0])
    assert oracle_u(shock, fl, -0.4, 1.0) == pytest.approx(1.0, abs=1e-6)
    assert oracle_u(shock, fl, 0.9, 1.0) == pytest.approx(0.0, abs=1e-6)
    fan = potential_from_step([0.0], [0.0, 1.0])
    for x in (0.1, 0.45, 0.8):
        assert oracle_u(fan, fl, x, 1.0) == pytest.approx(x, abs=1e-5)


def test_sampling_helpers_match_scalars():
    fl = burgers_flux()
    data = potential_from_step([0.0], [1.0, 0.0])
    xs = np.array([-1.0, 0.2, 1.5])
    g = sample_potential(data, fl, xs, 0.8)
    u = sample_oracle(data, fl, xs, 0.8)
    for i, x in enumerate(xs):
        assert g[i] == hopf_lax_value(data, fl, float(x), 0.8)
        assert u[i] == oracle_u(data, fl, float(x), 0.8)


def test_oracle_agrees_with_front_tracking_in_l1():
    for fl, l, r in ((burgers_flux(2.0), 1.5, -0.5), (cosh_flux(2.0), -0.25, 1.25)):
        data = potential_from_step([0.0], [l, r])
        t = 0.8
        state = state_from_data(fl, [0.0], [l, r])
        traj = evolve(state, fl, 1.0, rarefaction_step=1e-3)
        sx, sv = traj.state_at(t).to_step()
        err = l1_step_vs_fn(
            sx,
            sv,
            lambda x: sample_oracle(data, fl, x, t),
            -3.0,
            3.0,
            max_cell=0.05,
        )
        # front tracking discretizes rarefactions at 1e-3, oracle at h=1e-6
        assert err <= 2e-3


def test_potential_from_state_matches_step():
    fl = burgers_flux(2.0)
    traj = evolve(state_from_data(fl, [0.0, 1.0], [2.0, 1.0, 0.0]), fl, 2.0)
    st = traj.state_at(0.5)
    data = potential_from_state(st)
    xs, us = st.to_step()
    ref = potential_from_step(xs, us)
    for y in np.linspace(-2.0, 3.0, 21):
        assert data.g0(float(y)) == pytest.approx(ref.g0(float(y)), abs=1e-14)


CATALOG = ("burgers", "cosh", "poly4")


def random_step_data(rng):
    n = int(rng.integers(1, 7))
    xs = np.sort(rng.uniform(-1.0, 1.0, size=n))
    us = rng.uniform(-1.0, 1.0, size=n + 1)
    return xs, us


def objective(data, fl, x, t, y):
    """The Hopf-Lax objective g0(y) + t f*((x - y) / t), evaluated directly."""
    return np.asarray(data.g0(y)) + t * np.asarray(convex_conjugate(fl, (x - y) / t))


@pytest.mark.parametrize("name", CATALOG)
def test_value_matches_dense_brute_minimum(name):
    """The grid y = x - t f'(v) over dense v in [-R, R] spans the bracket,
    and there f*((x - y) / t) = v f'(v) - f(v) needs no inversion. The grid
    minimum is at least the exact minimum and exceeds it by at most
    Lip * gap / 2, where the objective's slope is bounded by |g0'| + R and
    gap is the widest spacing of the y grid."""
    fl = make_flux(name, domain_radius=1.5)
    R = fl.domain_radius
    v = np.linspace(-R, R, 20001)
    rng = np.random.default_rng(211)
    for _ in range(12):
        xs, us = random_step_data(rng)
        data = potential_from_step(xs, us)
        t = float(rng.uniform(0.2, 1.5))
        for x in rng.uniform(-2.5, 2.5, size=6):
            x = float(x)
            ys = x - t * fl.df(v)
            brute = float(np.min(data.g0(ys) + t * (v * fl.df(v) - fl.f(v))))
            slack = (data.lipschitz_bound + R) * 0.5 * float(np.max(-np.diff(ys)))
            got = hopf_lax_value(data, fl, x, t)
            assert got <= brute + 1e-12
            assert brute - got <= slack + 1e-12


@pytest.mark.parametrize("name", CATALOG)
def test_minimizer_attains_value(name):
    fl = make_flux(name, domain_radius=1.5)
    R = fl.domain_radius
    rng = np.random.default_rng(223)
    for _ in range(20):
        xs, us = random_step_data(rng)
        data = potential_from_step(xs, us)
        t = float(rng.uniform(0.2, 1.5))
        for x in rng.uniform(-2.5, 2.5, size=5):
            y, g = hopf_lax_minimizer(data, fl, float(x), t)
            assert x - t * float(fl.df(R)) <= y <= x - t * float(fl.df(-R))
            assert float(objective(data, fl, float(x), t, y)) == pytest.approx(
                g, abs=1e-13
            )


@pytest.mark.parametrize("name", CATALOG)
def test_sampling_matches_scalars_for_every_flux(name):
    fl = make_flux(name, domain_radius=1.5)
    rng = np.random.default_rng(227)
    for _ in range(6):
        xs, us = random_step_data(rng)
        data = potential_from_step(xs, us)
        t = float(rng.uniform(0.2, 1.5))
        pts = rng.uniform(-2.5, 2.5, size=17)
        g = sample_potential(data, fl, pts, t)
        u = sample_oracle(data, fl, pts, t)
        for i, x in enumerate(pts):
            assert g[i] == hopf_lax_value(data, fl, float(x), t)
            assert u[i] == oracle_u(data, fl, float(x), t)


# Random step data with a piece narrower than 1% of the characteristic
# bracket, on which a search seeded on a 201-point y grid put a shock
# 0.01-0.02 off (largest pointwise gap to front tracking 0.030 and 0.020).
NARROW_PIECES = (
    ("cosh",
     [-0.6660756804942891, 0.6757755221728177, 0.684987471379187],
     [0.0, -0.5180930402164101, 0.08635880993395917, 0.0]),
    ("burgers",
     [-0.964011597972056, 0.43409254069861203, 0.43590704009631054],
     [0.0, -0.504439716184691, 0.5694601804493704, 0.0]),
)


@pytest.mark.parametrize("name,xs,us", NARROW_PIECES, ids=["cosh", "burgers"])
def test_narrow_piece_agrees_with_front_tracking_pointwise(name, xs, us):
    """Away from fronts the staircase is within delta_u of the fan, so the
    oracle and front tracking agree to delta_u plus the difference error."""
    fl = make_flux(name, domain_radius=1.5)
    delta_u, t, h = 0.2 / 64, 1.0, 1e-6
    traj = evolve(state_from_data(fl, xs, us), fl, t, rarefaction_step=delta_u)
    fx, fv = traj.state_at(t).to_step()
    band = np.linspace(-1.5, 1.5, 257)
    ddf_max = float(np.max(np.diff(fl.df(band)) / np.diff(band)))
    # a shock moves by at most max f'' * delta_u * t when its states move
    # by delta_u; points that close to it, or within 2h, are not compared
    shocks = fx[np.abs(np.diff(fv)) > delta_u * (1.0 + 1e-9)]
    margin = delta_u * ddf_max * t + 2.0 * h
    pts = np.linspace(-2.0, 2.0, 801)
    pts = pts[np.all(np.abs(pts[:, None] - shocks[None, :]) > margin, axis=1)]
    u_hl = sample_oracle(potential_from_step(xs, us), fl, pts, t, h)
    gap = np.abs(traj.state_at(t).value_at(pts) - u_hl)
    assert float(np.max(gap)) <= delta_u + 1e-5


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
@pytest.mark.parametrize("call", ["sample_oracle", "oracle_u", "hopf_lax_value"])
def test_oracle_rejects_non_finite_time(call, t):
    data = potential_from_step([0.0], [1.0, 0.0])
    fl = burgers_flux()
    calls = {
        "sample_oracle": lambda: sample_oracle(data, fl, [0.1], t),
        "oracle_u": lambda: oracle_u(data, fl, 0.1, t),
        "hopf_lax_value": lambda: hopf_lax_value(data, fl, 0.1, t),
    }
    with pytest.raises(FluxRangeError, match=f"needs a finite t > 0, got t = {t}"):
        calls[call]()


@pytest.mark.parametrize("h", [float("nan"), float("inf"), 0.0, -1e-6])
@pytest.mark.parametrize("call", ["sample_oracle", "oracle_u"])
def test_oracle_rejects_a_non_finite_or_nonpositive_step(call, h):
    # NaN once passed the h <= 0 guard and failed later with a slope error
    data = potential_from_step([0.0], [1.0, 0.0])
    fl = burgers_flux()
    calls = {
        "sample_oracle": lambda: sample_oracle(data, fl, [0.1], 1.0, h=h),
        "oracle_u": lambda: oracle_u(data, fl, 0.1, 1.0, h=h),
    }
    with pytest.raises(FluxRangeError, match=f"step h must be finite and positive, got h = {h}"):
        calls[call]()
