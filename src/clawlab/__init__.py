"""clawlab: a desk-scale laboratory for 1D scalar conservation laws.

Strictly convex fluxes, exact Riemann fans (entropic and not), wavefront
tracking with trapezoid re-solves, Kruzhkov entropy-production ledgers, a
Hopf-Lax variational oracle, and a Godunov finite-volume cross-check.
"""

from .compare import fitted_order, l1_step_vs_fn, l1_steps, observed_orders
from .entropy import (
    EConditionReport,
    EntropyLedger,
    EntropyPair,
    LedgerRow,
    Window,
    check_e_condition_fan,
    check_e_condition_samples,
    check_e_condition_state,
    combined_entropy_P,
    delta_density,
    delta_density_chord,
    entropy_rate_Hdot,
    fan_ep_rate,
    jump_abs_ep_rate_kinetic,
    jump_ep_rate,
    jump_ep_rate_kinetic,
    kinetic_density,
    kruzhkov_pair,
    quadratic_pair,
    total_ep,
    total_ep_delta_h1,
    total_ep_kinetic,
    validate_pair,
)
from .errors import (
    CFLError,
    ClawError,
    ConfigError,
    DegenerateChordError,
    FanOrderingError,
    FluxRangeError,
    InvariantViolation,
    QuadratureError,
    TangencyError,
    UnsupportedFamilyError,
)
from .fluxes import (
    ConvexFlux,
    burgers_flux,
    chord_slope,
    chord_slopes,
    convex_conjugate,
    cosh_flux,
    inverse_derivative,
    make_convex_flux,
    make_flux,
    poly4_flux,
    validate_flux,
)
from .fronts import (
    EventRecord,
    FrontState,
    KindLabels,
    Trajectory,
    entropic_resolve_state,
    evolve,
    from_fan,
    front_state,
    mass,
    resolve_jump,
    state_from_data,
)
from .godunov import (
    Grid1D,
    GodunovRun,
    cell_averages_from_step,
    cfl_dt,
    convergence_study,
    godunov_step,
    interface_flux,
    interface_state,
    max_char_speed,
    numerical_ep,
    run_godunov,
)
from .hopflax import (
    PotentialData,
    hopf_lax_minimizer,
    potential_from_step,
    sample_oracle,
    sample_potential,
)
from .riemann import (
    Rarefaction,
    Shock,
    WaveFan,
    equal_split_family,
    evaluate_fan,
    family_sweep,
    fan_breakpoints,
    fan_from_dict,
    fan_to_dict,
    non_entropic_family,
    random_family_member,
    sample_fan,
    solve_riemann,
    validate_fan,
)
from .scenarios import SCENARIOS, Scenario, get_scenario
from .trapezoid import (
    Crossing,
    LambdaTrace,
    TrapezoidDomain,
    lambda0,
    trace_on_lambda,
    trapezoid_splice,
    validate_domain,
)
from .weak import (
    BumpTest,
    default_battery_for,
    fan_max_residual,
    fan_weak_residual,
    bump_battery,
    trajectory_max_residual,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
