"""Scalar parameters: one check refuses every illegal value and names it.

errors.check_finite and errors.check_positive are the one rule. Each row
below is an entry point, the parameter it is called with, and whether the
parameter must be positive as well as finite. Every call is refused before
any numerics run, so none can warn or hang.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from clawlab import l1_step_vs_fn, weak
from clawlab.entropy import (
    check_e_condition_fan,
    check_e_condition_samples,
    check_e_condition_state,
    delta_density,
    delta_density_chord,
    jump_abs_ep_rate_kinetic,
    jump_ep_rate,
    jump_ep_rate_kinetic,
    kinetic_density,
    kruzhkov_pair,
)
from clawlab.errors import FluxRangeError
from clawlab.fluxes import burgers_flux, make_convex_flux, make_flux
from clawlab.fronts import evolve, from_fan, front_state, resolve_jump, state_from_data
from clawlab.godunov import Grid1D
from clawlab.hopflax import hopf_lax_minimizer, potential_from_step, sample_oracle
from clawlab.riemann import evaluate_fan, sample_fan, solve_riemann
from clawlab.trapezoid import TrapezoidDomain, lambda0, trace_on_lambda
from clawlab.weak import BumpTest, fan_max_residual, fan_weak_residual, trajectory_max_residual

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FL = burgers_flux()
FAN = solve_riemann(FL, 0.0, 1.0)
STATE = state_from_data(FL, [0.0], [0.0, 0.25], time=1.0)
TRAJ = evolve(state_from_data(FL, [0.0], [1.0, 0.0]), FL, 1.0)
DATA = potential_from_step([0.0], [1.0, 0.0])
BUMP = BumpTest(0.0, 0.5, 0.5, 0.3)
GRID = dict(x_min=-1.0, x_max=1.0, n_cells=4, nu=0.9, time=0.0, u=np.zeros(4))
TRAPEZOID = dict(t1=0.0, t2=1.0, delta=0.1, lambda_hat=0.39)
TRACE = trace_on_lambda(TRAJ, TrapezoidDomain(t1=0.25, t2=0.75, delta=0.2, lambda_hat=0.25))

# (entry point, parameter, must be positive, call with the parameter set to v)
CALLS = [
    ("front_state", "time", False, lambda v: front_state(FL, v, [0.0], [1.0, 0.0])),
    ("value_at", "x", False, lambda v: STATE.value_at(v)),
    ("sample", "x", False, lambda v: TRAJ.sample(0.5, [0.1, v])),
    ("resolve_jump", "u_l", False, lambda v: resolve_jump(FL, v, 0.0, 0.1)),
    ("resolve_jump", "u_r", False, lambda v: resolve_jump(FL, 0.0, v, 0.1)),
    ("resolve_jump", "rarefaction_step", True, lambda v: resolve_jump(FL, 0.0, 1.0, v)),
    ("from_fan", "t", True, lambda v: from_fan(FAN, v)),
    ("from_fan", "rarefaction_step", True, lambda v: from_fan(FAN, 1.0, v)),
    ("kruzhkov_pair", "a", False, lambda v: kruzhkov_pair(FL, v)),
    ("check_e_condition_samples", "t", True,
     lambda v: check_e_condition_samples([0.0, 1.0], [0.0, 0.0], v, 1.0)),
    ("check_e_condition_samples", "c", True,
     lambda v: check_e_condition_samples([0.0, 1.0], [0.0, 0.0], 1.0, v)),
    ("check_e_condition_samples", "slack", False,
     lambda v: check_e_condition_samples([0.0, 1.0], [0.0, 0.0], 1.0, 1.0, v)),
    ("check_e_condition_samples", "xs", False,
     lambda v: check_e_condition_samples([0.0, v], [0.0, 0.0], 1.0, 1.0)),
    ("check_e_condition_samples", "us", False,
     lambda v: check_e_condition_samples([0.0, 1.0], [0.0, v], 1.0, 1.0)),
    ("check_e_condition_state", "c", True, lambda v: check_e_condition_state(STATE, v)),
    ("check_e_condition_state", "slack", False,
     lambda v: check_e_condition_state(STATE, 1.0, v)),
    ("check_e_condition_fan", "t", True, lambda v: check_e_condition_fan(FAN, v)),
    ("check_e_condition_fan", "c", True, lambda v: check_e_condition_fan(FAN, 1.0, v)),
    ("check_e_condition_fan", "slack", False,
     lambda v: check_e_condition_fan(FAN, 1.0, 1.0, v)),
    ("burgers_flux", "domain_radius", True, lambda v: burgers_flux(v)),
    ("make_flux", "domain_radius", True, lambda v: make_flux("cosh", domain_radius=v)),
    ("ConvexFlux", "domain_radius", True, lambda v: replace(FL, domain_radius=v)),
    ("make_convex_flux", "ddf_lower_bound", True,
     lambda v: make_convex_flux("burgers", FL.f, FL.df, ddf_lower_bound=v)),
    ("make_convex_flux", "domain_radius", True,
     lambda v: make_convex_flux("burgers", FL.f, FL.df, 1.0, domain_radius=v)),
    *[("Grid1D", name, False, lambda v, name=name: Grid1D(**{**GRID, name: v}))
      for name in ("x_min", "x_max", "time", "tail_left", "tail_right")],
    ("hopf_lax_minimizer", "t", True, lambda v: hopf_lax_minimizer(DATA, FL, 0.1, v)),
    ("hopf_lax_minimizer", "x", False, lambda v: hopf_lax_minimizer(DATA, FL, v, 1.0)),
    ("sample_oracle", "t", True, lambda v: sample_oracle(DATA, FL, [0.1], v)),
    ("sample_oracle", "h", True, lambda v: sample_oracle(DATA, FL, [0.1], 1.0, h=v)),
    ("sample_oracle", "xs", False, lambda v: sample_oracle(DATA, FL, [0.1, v], 1.0)),
    ("sample_fan", "t", True, lambda v: sample_fan(FAN, v, np.zeros(3))),
    ("sample_fan", "xs", False, lambda v: sample_fan(FAN, 1.0, [0.1, v])),
    ("evaluate_fan", "omega", False, lambda v: evaluate_fan(FAN, v)),
    ("TrapezoidDomain", "delta", True, lambda v: TrapezoidDomain(**{**TRAPEZOID, "delta": v})),
    ("lambda0", "boundary_sup", False, lambda v: lambda0(FL, v)),
    ("LambdaTrace.value_at", "s", False, lambda v: TRACE.value_at(v)),
    *[("BumpTest", name, name in ("ax", "bt"),
       lambda v, name=name: BumpTest(**{**vars(BUMP), name: v}))
      for name in ("x0", "t0", "ax", "bt")],
    ("fan_weak_residual", "t_max", True, lambda v: fan_weak_residual(FAN, BUMP, v)),
    ("fan_max_residual", "t_max", True, lambda v: fan_max_residual(FAN, v)),
    ("l1_step_vs_fn", "lo", False,
     lambda v: l1_step_vs_fn([0.0], [1.0, 0.0], np.zeros_like, v, 1.0)),
    ("l1_step_vs_fn", "hi", False,
     lambda v: l1_step_vs_fn([0.0], [1.0, 0.0], np.zeros_like, -1.0, v)),
    ("l1_step_vs_fn", "max_cell", True,
     lambda v: l1_step_vs_fn([0.0], [1.0, 0.0], np.zeros_like, -1.0, 1.0, v)),
    *[(fn.__name__, name, False,
       lambda v, fn=fn, i=i: fn(FL, v, 0.0) if i == 0 else fn(FL, 0.5, v))
      for fn, names in (
          (jump_ep_rate, ("u_minus", "u_plus")),
          (jump_ep_rate_kinetic, ("u_minus", "u_plus")),
          (jump_abs_ep_rate_kinetic, ("u_minus", "u_plus")),
          (delta_density, ("a", "b")),
          (delta_density_chord, ("a", "b")),
      )
      for i, name in enumerate(names)],
    ("kinetic_density", "u_minus", False, lambda v: kinetic_density(FL, v, 0.0, 0.25)),
    ("kinetic_density", "u_plus", False, lambda v: kinetic_density(FL, 0.5, v, 0.25)),
    ("kinetic_density", "a", False, lambda v: kinetic_density(FL, 0.5, 0.0, [0.25, v])),
]

CASES = [
    pytest.param(call, name, v, id=f"{entry}-{name}-{v}")
    for entry, name, positive, call in CALLS
    for v in (np.nan, np.inf, -np.inf, *((0.0, -1.0) if positive else ()))
]


@pytest.mark.parametrize("call, name, value", CASES)
def test_every_scalar_parameter_refuses_an_illegal_value_by_name(call, name, value):
    # NaN or inf once passed several of these: sample_fan gave the left
    # state, Grid1D a NaN dx, burgers_flux(inf) a Godunov run that never
    # ends, a BumpTest with bt <= 0 a residual of 0.0, and a NaN sample
    # let check_e_condition_samples hold
    with pytest.raises(FluxRangeError) as err:
        call(value)
    assert re.search(rf"\b{name}\b.*{re.escape(str(value))}", str(err.value)), str(err.value)


@pytest.mark.parametrize("residuals", [[1e-11, np.nan], [np.nan, 1e-11]], ids=["nan-last", "nan-first"])
def test_max_residuals_keep_a_nan_in_any_place(monkeypatch, residuals):
    # the builtin max kept a NaN only when it came first
    traj = evolve(state_from_data(FL, [0.0], [1.0, 0.0]), FL, 1.0)
    it = iter(residuals)
    monkeypatch.setattr(weak, "_front_sum", lambda *args: next(it))
    assert np.isnan(trajectory_max_residual(traj, [BUMP, BUMP]))
    it = iter(residuals)
    monkeypatch.setattr(weak, "fan_weak_residual", lambda *args: next(it))
    assert np.isnan(fan_max_residual(FAN, 1.0, [BUMP, BUMP]))
