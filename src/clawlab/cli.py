"""Command line entry point.

Every subcommand reads an optional JSON config, applies the shared flag
overrides, runs one experiment, writes its artifacts under the output
directory, and prints one line per declared check. Each of these
policies lives in one place:

- _SCHEMAS is the config table. Each command's schema is built from
  shared blocks (Riemann data, step data, tracking, window), and
  _check_keys rejects any key outside it.
- write_json, write_csv and _write_trajectory announce every file they
  write with one "wrote <path>" line, so stdout lists the artifacts in
  write order.
- _verdict prints each (name, ok, detail) check as [PASS] or [FAIL] and
  raises CheckFailure if any missed.

Exit codes: 0 when all checks pass, 1 when a run runs out of memory
(one "out of memory: <command>" line on stderr, no traceback), 2 for
configuration problems (unparseable config, unknown keys, precondition
violations, or any other ClawError), 3 when a numerical check fails its
declared tolerance.

All artifacts are deterministic: floats are serialized with repr, JSON
keys are sorted, and any randomness comes from a seed recorded in the
artifact headers.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np

from .compare import l1_step_vs_fn
from .entropy import (
    Window,
    check_e_condition_state,
    delta_density,
    delta_density_chord,
    entropy_rate_Hdot,
    combined_entropy_P,
    fan_ep_rate,
    jump_ep_rate,
    quadratic_pair,
    total_ep,
    total_ep_delta_h1,
    total_ep_kinetic,
)
from .errors import ClawError, ConfigError
from .fluxes import FLUX_CATALOG, chord_slopes, make_flux
from .fronts import evolve, state_from_data
from .godunov import convergence_study, max_char_speed, run_godunov
from .hopflax import potential_from_step, sample_oracle, sample_potential
from .riemann import family_sweep, fan_to_dict, solve_riemann, validate_fan
from .scenarios import get_scenario
from .trapezoid import TrapezoidDomain, lambda0, trapezoid_splice
from .weak import default_battery_for, trajectory_max_residual


class CheckFailure(Exception):
    """A declared numerical check missed its tolerance."""


# ---------------------------------------------------------------------------
# config plumbing

_TOLERANCE_DEFAULTS = {
    "ep": 1e-8,
    "weak": 1e-7,
    "l1": 5e-3,
    "mass": 1e-9,
    "entropy_step": 1e-12,
    "order_min": 0.5,
}

_INITIAL_SCHEMA = {
    "kind": str,
    "u_l": float,
    "u_r": float,
    "xs": [float],
    # entries are checked by _resolve_initial, so that a non-finite state
    # gets the one state message of _flux_for
    "us": list,
    "name": str,
}

_COMMON_SCHEMA = {
    "flux": str,
    "out": str,
    "seed": int,
    "tolerances": dict(_TOLERANCE_DEFAULTS),
}

_RIEMANN = {**_COMMON_SCHEMA, "u_l": float, "u_r": float}
_FAMILY = {**_RIEMANN, "members": int, "max_intermediates": int}
# the keys the shared flags override; every subcommand takes them all
_FLAGS = {**_COMMON_SCHEMA, "delta_u": float}
_STEP = {**_FLAGS, "initial": _INITIAL_SCHEMA}
_TRACKED = {**_STEP, "mode": str, "t_end": float}
_WINDOW = {"t_lo": float, "t_hi": float, "x_lo": float, "x_hi": float}

_SCHEMAS = {
    "riemann": _RIEMANN,
    "family": _FAMILY,
    "evolve": _TRACKED,
    "ep": {**_TRACKED, "window": _WINDOW},
    "rate-compare": _FAMILY,
    "econd": {**_TRACKED, "times": [float], "slack": float, "expect": str},
    "hopflax": {**_STEP, "t": float, "x_lo": float, "x_hi": float, "n_samples": int},
    "fv": {**_STEP, "t_end": float, "n_cells": int, "nu": float, "n_list": [int],
           "snapshot_times": [float]},
    "splice": {
        **_TRACKED,
        "domain": {"t1": float, "t2": float, "delta": float, "lambda_hat": float},
        "window": _WINDOW,
    },
    "delta-audit": {**_RIEMANN, "pairs": [[float]], "count": int},
}


def _check_keys(cfg: dict, schema: dict, path: str = "") -> None:
    for key, value in cfg.items():
        here = f"{path}{key}"
        if key not in schema:
            known = ", ".join(sorted(schema))
            raise ConfigError(f"unknown config key '{here}' (known here: {known})")
        want = schema[key]
        if isinstance(want, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key '{here}' must be an object")
            sub_schema = {k: float for k in want} if key == "tolerances" else want
            _check_keys(value, sub_schema, here + ".")
        else:
            _check_value(here, value, want)


def _check_value(here: str, value, want) -> None:
    if isinstance(want, list):
        # [item_type]: a list whose every entry is checked as item_type
        if not isinstance(value, list):
            raise ConfigError(f"config key '{here}' must be a list")
        for i, item in enumerate(value):
            _check_value(f"{here}[{i}]", item, want[0])
    elif want is float:
        # type() leaves out bool; the bound leaves out NaN, infinities, huge ints
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise ConfigError(f"config key '{here}' must be a finite number")
    elif want is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"config key '{here}' must be an integer")
    elif want is str:
        if not isinstance(value, str):
            raise ConfigError(f"config key '{here}' must be a string")
    elif want is list:
        if not isinstance(value, list):
            raise ConfigError(f"config key '{here}' must be a list")


def load_config(command: str, args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            cfg = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
    _check_keys(cfg, _SCHEMAS[command])
    # flags pass the same checks as the config keys they override
    flags = {k: getattr(args, k) for k in ("flux", "out", "seed", "delta_u")}
    flags = {k: v for k, v in flags.items() if v is not None}
    if args.tol_ep is not None:
        flags["tolerances"] = {"ep": args.tol_ep}
    _check_keys(flags, _FLAGS)
    tols = {**_TOLERANCE_DEFAULTS, **cfg.get("tolerances", {}), **flags.pop("tolerances", {})}
    cfg = {"flux": "burgers", "out": "clawlab_out", "seed": 0, **cfg, **flags}
    cfg["tolerances"] = tols
    if cfg["flux"] not in FLUX_CATALOG:
        known = ", ".join(sorted(FLUX_CATALOG))
        raise ConfigError(f"unknown flux '{cfg['flux']}' (known: {known})")
    return cfg


def _resolve_initial(cfg: dict) -> tuple[list[float], list[float], float | None]:
    """Step data (xs, us) and the fixture's default horizon, if any."""
    init = cfg.get("initial")
    if init is None:
        raise ConfigError("config needs an 'initial' object")
    kind = init.get("kind")
    if kind == "riemann":
        if "u_l" not in init or "u_r" not in init:
            raise ConfigError("initial.kind=riemann needs initial.u_l and initial.u_r")
        return [0.0], [float(init["u_l"]), float(init["u_r"])], None
    if kind == "piecewise":
        if "xs" not in init or "us" not in init:
            raise ConfigError("initial.kind=piecewise needs initial.xs and initial.us")
        for i, u in enumerate(init["us"]):
            if not isinstance(u, float):
                _check_value(f"initial.us[{i}]", u, float)
        xs = [float(x) for x in init["xs"]]
        us = [float(u) for u in init["us"]]
        if len(us) != len(xs) + 1:
            raise ConfigError(
                f"initial.us must have len(initial.xs)+1 entries, got {len(us)}"
            )
        return xs, us, None
    if kind == "fixture":
        if "name" not in init:
            raise ConfigError("initial.kind=fixture needs initial.name")
        sc = get_scenario(init["name"])
        return list(sc.xs), list(sc.us), sc.t_end
    raise ConfigError(
        f"initial.kind must be riemann, piecewise, or fixture, got {kind!r}"
    )


def _flux_for(cfg: dict, us):
    bad = [u for u in us if not np.isfinite(u)]
    if bad:
        raise ConfigError(f"state {bad[0]} is not a finite number")
    # band rule: the flux only needs to be honest on the hull of the data
    radius = max((abs(float(u)) for u in us), default=1.0)
    return make_flux(cfg["flux"], domain_radius=max(radius, 1e-6))


def _t_end(cfg: dict, fixture_default: float | None) -> float:
    if "t_end" in cfg:
        return float(cfg["t_end"])
    if fixture_default is not None:
        return fixture_default
    raise ConfigError("config needs t_end (no fixture default applies)")


def _delta_u(cfg: dict, flux) -> float:
    if "delta_u" in cfg:
        v = float(cfg["delta_u"])
        if v <= 0.0:
            raise ConfigError(f"delta_u must be positive, got {v}")
        return v
    return 1e-3 * flux.domain_radius


def _riemann_data(cfg: dict, command: str):
    """(flux, u_l, u_r) from the top-level u_l and u_r, which are required."""
    if "u_l" not in cfg or "u_r" not in cfg:
        raise ConfigError(f"{command} needs u_l and u_r in the config")
    u_l, u_r = float(cfg["u_l"]), float(cfg["u_r"])
    return _flux_for(cfg, [u_l, u_r]), u_l, u_r


def _roster(cfg: dict, command: str):
    """(flux, seeded competitor roster, its artifact metadata) of a family sweep."""
    flux, u_l, u_r = _riemann_data(cfg, command)
    members = int(cfg.get("members", 20))
    max_int = int(cfg.get("max_intermediates", 5))
    roster = family_sweep(flux, u_l, u_r, members, max_int, int(cfg["seed"]))
    meta = {"flux": flux.name, "u_l": u_l, "u_r": u_r, "seed": cfg["seed"],
            "members": members, "max_intermediates": max_int}
    return flux, roster, meta


def _window(cfg: dict, t_hi: float) -> Window:
    """The config's window; unset edges default to [0, t_hi] x (-inf, inf)."""
    win = cfg.get("window", {})
    return Window(
        t_lo=float(win.get("t_lo", 0.0)),
        t_hi=float(win.get("t_hi", t_hi)),
        x_lo=float(win.get("x_lo", -np.inf)),
        x_hi=float(win.get("x_hi", np.inf)),
    )


# ---------------------------------------------------------------------------
# deterministic writers; each announces its file with one "wrote <path>" line


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        # unbounded window edges become null; keeps the files strict JSON
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def _write(path: Path, text: str) -> None:
    path.write_text(text)
    print(f"wrote {path}")


def write_json(path: Path, obj) -> None:
    _write(path, json.dumps(_jsonify(obj), sort_keys=True, indent=2) + "\n")


def write_csv(path: Path, meta: dict, columns: list[str], rows) -> None:
    lines = [f"# {k}={_fmt(v)}" for k, v in sorted(meta.items())]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write(path, "\n".join(lines) + "\n")


def _outdir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _report(*checks) -> bool:
    """Print one [PASS]/[FAIL] line per (name, ok, detail); True if all passed."""
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all(ok for _, ok, _ in checks)


def _verdict(failure: str, *checks) -> None:
    """Report every check, then raise CheckFailure(failure) if any missed."""
    if not _report(*checks):
        raise CheckFailure(failure)


# ---------------------------------------------------------------------------
# subcommands


def cmd_riemann(cfg: dict) -> int:
    """solve one Riemann problem and write the fan as JSON"""
    flux, u_l, u_r = _riemann_data(cfg, "riemann")
    fan = solve_riemann(flux, u_l, u_r)
    validate_fan(fan)
    out = _outdir(cfg)
    write_json(out / "fan.json", fan_to_dict(fan))
    _report(("fan_valid", True, f"{len(fan.waves)} wave(s), entropic"))
    return 0


def cmd_family(cfg: dict) -> int:
    """enumerate non-entropic competitor fans with their EP rates"""
    flux, roster, meta = _roster(cfg, "family")
    out = _outdir(cfg)
    rows = []
    payload = []
    ok = True
    for label, fan in roster:
        rate = fan_ep_rate(fan)
        rows.append((label, len(fan.waves), rate))
        payload.append({"label": label, "ep_rate": rate, "fan": fan_to_dict(fan)})
        if label != "entropic" and rate <= 0.0:
            ok = False
    write_json(out / "family.json", payload)
    write_csv(out / "family_ep.csv", meta, ["label", "n_waves", "ep_rate"], rows)
    _verdict("competitors_dissipate", (
        "competitors_dissipate",
        ok,
        f"{len(roster) - 1} non-entropic members, all with positive rate"
        if ok
        else "a non-entropic member has nonpositive rate",
    ))
    return 0


def _evolved(cfg: dict):
    xs, us, fixture_t = _resolve_initial(cfg)
    flux = _flux_for(cfg, us)
    t_end = _t_end(cfg, fixture_t)
    mode = cfg.get("mode", "entropic")
    step = _delta_u(cfg, flux)
    initial = state_from_data(flux, xs, us)
    traj = evolve(initial, flux, t_end, mode=mode, rarefaction_step=step)
    return flux, traj, mode, step, t_end


def _write_trajectory(out: Path, traj, meta: dict) -> None:
    lines, rows = [], []
    for snap in traj.snapshots:
        # one read of each field, each read going through the front table
        pos, states, speeds, kinds = snap.positions, snap.states, snap.speeds, list(snap.kinds)
        fields = {"time": snap.time, "positions": pos, "states": states, "speeds": speeds,
                  "kinds": kinds, "front_ids": snap.front_ids}
        lines.append(json.dumps(_jsonify(fields), sort_keys=True))
        pos, states, speeds = pos.tolist(), states.tolist(), speeds.tolist()
        rows.extend(
            (snap.time, pos[j], states[j], states[j + 1], speeds[j], kinds[j])
            for j in range(snap.n_fronts)
        )
    _write(out / "trajectory.jsonl", "\n".join(lines) + "\n")
    write_csv(
        out / "fronts.csv",
        meta,
        ["t", "x", "u_left", "u_right", "sigma", "kind"],
        rows,
    )


def cmd_evolve(cfg: dict) -> int:
    """track fronts from step data and check the weak-form residual"""
    flux, traj, mode, step, t_end = _evolved(cfg)
    out = _outdir(cfg)
    meta = {"flux": flux.name, "mode": mode, "delta_u": step, "t_end": t_end}
    _write_trajectory(out, traj, meta)
    residual = float(trajectory_max_residual(traj, default_battery_for(traj)))
    tol = cfg["tolerances"]["weak"]
    try:
        _verdict(
            "weak_residual", ("weak_residual", residual <= tol, f"{residual!r} <= {tol!r}")
        )
    finally:
        print(f"events={len(traj.events)}")
    return 0


def cmd_ep(cfg: dict) -> int:
    """entropy-production ledger over a space-time window"""
    flux, traj, mode, step, t_end = _evolved(cfg)
    window = _window(cfg, t_end)
    ledger = total_ep(traj, window)
    kinetic = total_ep_kinetic(traj, window)
    via_delta = total_ep_delta_h1(traj, window)
    out = _outdir(cfg)
    meta = {"flux": flux.name, "mode": mode, "delta_u": step, "t_lo": window.t_lo,
            "t_hi": window.t_hi}
    write_csv(
        out / "ledger.csv",
        meta,
        ["front_id", "t_start", "t_end", "u_minus", "u_plus", "sigma",
         "D", "absD", "Delta"],
        [astuple(r) for r in ledger.rows],
    )
    summary = {
        "total_signed": ledger.total_signed,
        "total_abs": ledger.total_abs,
        "total_kinetic": kinetic,
        "total_delta_h1": via_delta,
        "window": asdict(window),
    }
    write_json(out / "ep_summary.json", summary)
    tol = cfg["tolerances"]["ep"]
    err = max(abs(ledger.total_abs - kinetic), abs(ledger.total_abs - via_delta))
    _verdict("ep_dual_evaluation", (
        "ep_dual_evaluation",
        err <= tol,
        f"total_abs={ledger.total_abs!r} agreement error {err!r} <= {tol!r}",
    ))
    return 0


def cmd_rate_compare(cfg: dict) -> int:
    """rank a competitor family by EP rate and entropy rate"""
    flux, roster, meta = _roster(cfg, "rate-compare")
    del meta["max_intermediates"]
    pair = quadratic_pair(flux)
    table = []
    for label, fan in roster:
        table.append(
            {
                "label": label,
                "ep_rate": fan_ep_rate(fan),
                "P": combined_entropy_P(fan, pair),
                "Hdot": entropy_rate_Hdot(fan, pair),
            }
        )
    ep_order = sorted(range(len(table)), key=lambda i: table[i]["ep_rate"])
    h_order = sorted(range(len(table)), key=lambda i: table[i]["Hdot"])
    minimizer = table[ep_order[0]]
    same_ranking = ep_order == h_order
    out = _outdir(cfg)
    write_csv(
        out / "rate_table.csv",
        meta,
        ["label", "ep_rate", "P", "Hdot", "is_minimizer"],
        [
            (
                row["label"],
                row["ep_rate"],
                row["P"],
                row["Hdot"],
                row["label"] == minimizer["label"],
            )
            for row in table
        ],
    )
    write_json(
        out / "rate_summary.json",
        {
            "minimizer": minimizer,
            "identical_ranking": same_ranking,
            "members": len(table),
        },
    )
    _verdict(
        "rate_compare",
        (
            "minimizer_is_entropic",
            minimizer["label"] == "entropic" and minimizer["ep_rate"] == 0.0,
            f"minimizer={minimizer['label']} rate={minimizer['ep_rate']!r}",
        ),
        ("identical_ranking", same_ranking, f"{same_ranking}"),
    )
    return 0


def cmd_econd(cfg: dict) -> int:
    """one-sided Lipschitz (E-condition) check on a tracked solution"""
    flux, traj, mode, step, t_end = _evolved(cfg)
    slack = float(cfg.get("slack", step))
    times = [float(t) for t in cfg.get("times", [t_end])]
    expect = cfg.get("expect", "pass")
    if expect not in ("pass", "fail"):
        raise ConfigError(f"econd expect must be 'pass' or 'fail', got {expect!r}")
    c = flux.ddf_lower_bound
    reports = []
    all_hold = True
    for t in times:
        if t <= traj.t_start:
            raise ConfigError(f"econd sample time {t} must exceed {traj.t_start}")
        rep = check_e_condition_state(traj.state_at(t), c, slack=slack)
        reports.append({"t": t, "holds": rep.holds, "worst_excess": rep.worst_excess,
                        "slack": rep.slack})
        all_hold &= rep.holds
    out = _outdir(cfg)
    write_json(
        out / "econd.json",
        {"mode": mode, "c": c, "slack": slack, "reports": reports, "expect": expect},
    )
    wanted = all_hold if expect == "pass" else not all_hold
    _verdict("e_condition", (
        "e_condition",
        wanted,
        f"holds={all_hold} expected={'holds' if expect == 'pass' else 'violation'}",
    ))
    return 0


def cmd_hopflax(cfg: dict) -> int:
    """variational oracle samples and L1 distance to front tracking"""
    xs, us, fixture_t = _resolve_initial(cfg)
    flux = _flux_for(cfg, us)
    t = float(cfg.get("t", fixture_t if fixture_t is not None else 1.0))
    if t <= 0.0:
        raise ConfigError(f"hopflax needs t > 0, got {t}")
    step = _delta_u(cfg, flux)
    data = potential_from_step(xs, us)
    initial = state_from_data(flux, xs, us)
    traj = evolve(initial, flux, t, mode="entropic", rarefaction_step=step)
    state = traj.state_at(t)
    speed = max_char_speed(flux, us)
    x_lo = float(cfg.get("x_lo", (xs[0] if xs else 0.0) - speed * t - 0.5))
    x_hi = float(cfg.get("x_hi", (xs[-1] if xs else 0.0) + speed * t + 0.5))
    n = int(cfg.get("n_samples", 201))
    if n < 2 or x_hi <= x_lo:
        raise ConfigError("hopflax needs n_samples >= 2 and x_hi > x_lo")
    grid = np.linspace(x_lo, x_hi, n)
    g = sample_potential(data, flux, grid, t)
    u = sample_oracle(data, flux, grid, t)
    rows = [(x, t, gx, ux) for x, gx, ux in zip(grid.tolist(), g.tolist(), u.tolist())]
    out = _outdir(cfg)
    meta = {"flux": flux.name, "t": t, "delta_u": step}
    write_csv(out / "hopflax_samples.csv", meta, ["x", "t", "g", "u"], rows)
    sx, sv = state.to_step()
    l1 = float(l1_step_vs_fn(
        sx,
        sv,
        lambda y: sample_oracle(data, flux, y, t),
        x_lo,
        x_hi,
        max_cell=(x_hi - x_lo) / 2000.0,
    ))
    write_json(
        out / "hopflax_compare.json",
        {"l1_distance": l1, "t": t, "x_lo": x_lo, "x_hi": x_hi, "delta_u": step},
    )
    tol = cfg["tolerances"]["l1"]
    _verdict("oracle_l1", ("oracle_l1", l1 <= tol, f"{l1!r} <= {tol!r}"))
    return 0


def cmd_fv(cfg: dict) -> int:
    """Godunov run: conservation, entropy inequality, convergence"""
    xs, us, fixture_t = _resolve_initial(cfg)
    flux = _flux_for(cfg, us)
    t_end = _t_end(cfg, fixture_t)
    n_cells = int(cfg.get("n_cells", 400))
    nu = float(cfg.get("nu", 0.9))
    snap_times = [float(t) for t in cfg.get("snapshot_times", [t_end])]
    run = run_godunov(flux, xs, us, t_end, n_cells, nu=nu, snapshot_times=snap_times)
    out = _outdir(cfg)
    meta = {"flux": flux.name, "n_cells": n_cells, "nu": nu, "t_end": t_end}
    rows = []
    for g in run.snapshots:
        for x, u in zip(g.centers, g.u):
            rows.append((g.time, float(x), float(u)))
    write_csv(out / "fv_snapshots.csv", meta, ["t", "x_center", "u"], rows)
    tolerances = cfg["tolerances"]
    worst_step = float(np.max(run.step_ep)) if run.step_ep.size else 0.0
    # the order check is reported only once fv_convergence.json is written,
    # and every artifact is written before a failed check raises
    ok = _report(
        (
            "mass_conservation",
            run.mass_drift <= tolerances["mass"],
            f"drift {float(run.mass_drift)!r} <= {tolerances['mass']!r}",
        ),
        (
            "discrete_entropy_inequality",
            worst_step <= tolerances["entropy_step"],
            f"max per-step production {worst_step!r} <= {tolerances['entropy_step']!r}",
        ),
    )
    summary = {
        "t_end": t_end,
        "n_cells": n_cells,
        "nu": nu,
        "mass_drift": run.mass_drift,
        "total_numerical_ep": float(np.sum(run.step_ep)),
        "steps": int(run.step_ep.size),
    }
    if "n_list" in cfg:
        delta = _delta_u(cfg, flux)
        reference = evolve(
            state_from_data(flux, xs, us), flux, t_end, rarefaction_step=delta
        )
        study = convergence_study(
            flux, xs, us, t_end, cfg["n_list"], reference, nu=nu
        )
        write_json(out / "fv_convergence.json", study)
        order = study["fitted_order"]
        ok &= _report((
            "convergence_order",
            order >= tolerances["order_min"],
            f"fitted order {order!r} >= {tolerances['order_min']!r}",
        ))
        summary["observed_order"] = study["observed_order"]
        summary["fitted_order"] = order
    write_json(out / "fv_summary.json", summary)
    if not ok:
        raise CheckFailure("fv")
    return 0


def cmd_splice(cfg: dict) -> int:
    """replace the solution inside a trapezoid by its entropic re-solve"""
    if "domain" not in cfg:
        raise ConfigError("splice needs a domain object {t1, t2, delta, lambda_hat}")
    dom_cfg = cfg["domain"]
    for key in ("t1", "t2", "delta"):
        if key not in dom_cfg:
            raise ConfigError(f"splice domain needs '{key}'")
    cfg.setdefault("mode", "as_given")
    flux, traj, mode, step, t_end = _evolved(cfg)
    if "lambda_hat" in dom_cfg:
        lam = float(dom_cfg["lambda_hat"])
    else:
        sup = max(float(np.max(np.abs(s.states))) for s in traj.snapshots)
        lam = 0.9 * lambda0(flux, sup)
    dom = TrapezoidDomain(
        t1=float(dom_cfg["t1"]),
        t2=float(dom_cfg["t2"]),
        delta=float(dom_cfg["delta"]),
        lambda_hat=lam,
    )
    if dom.t2 > t_end + 1e-12:
        raise ConfigError(f"domain t2={dom.t2} exceeds t_end={t_end}")
    spliced = trapezoid_splice(traj, dom)
    window = _window(cfg, dom.t2)
    if window.t_hi > dom.t2 + 1e-12:
        raise ConfigError(
            f"window t_hi={window.t_hi} exceeds the spliced horizon {dom.t2}"
        )
    ep_before = total_ep(traj, window).total
    ep_after = total_ep(spliced, window).total
    residual = float(trajectory_max_residual(spliced, default_battery_for(spliced)))
    out = _outdir(cfg)
    meta = {"flux": flux.name, "mode": mode, "delta_u": step}
    _write_trajectory(out, spliced, meta)
    write_json(
        out / "splice_summary.json",
        {
            "domain": asdict(dom),
            "window": {"t_lo": window.t_lo, "t_hi": window.t_hi},
            "ep_before": ep_before,
            "ep_after": ep_after,
            "weak_residual": residual,
        },
    )
    tol = cfg["tolerances"]
    _verdict(
        "splice",
        (
            "ep_not_increased",
            ep_after <= ep_before + tol["ep"],
            f"before={ep_before!r} after={ep_after!r}",
        ),
        ("weak_residual", residual <= tol["weak"], f"{residual!r} <= {tol['weak']!r}"),
    )
    return 0


def cmd_delta_audit(cfg: dict) -> int:
    """table comparing the two jump-density normalizations"""
    flux = make_flux(cfg["flux"], domain_radius=2.0)
    pairs: list[tuple[float, float]] = []
    if "pairs" in cfg:
        for i, item in enumerate(cfg["pairs"]):
            if not isinstance(item, list) or len(item) != 2:
                raise ConfigError(f"pairs[{i}] must be a [u_minus, u_plus] pair")
            pairs.append((float(item[0]), float(item[1])))
    if "u_l" in cfg or "u_r" in cfg:
        if not ("u_l" in cfg and "u_r" in cfg):
            raise ConfigError("delta-audit needs both u_l and u_r when either is set")
        pairs.append((float(cfg["u_l"]), float(cfg["u_r"])))
    if "count" in cfg:
        rng = np.random.default_rng(int(cfg["seed"]))
        R = flux.domain_radius
        for _ in range(int(cfg["count"])):
            a, b = rng.uniform(-R, R, size=2)
            while abs(a - b) < 1e-6:
                a, b = rng.uniform(-R, R, size=2)
            pairs.append((float(a), float(b)))
    if not pairs:
        pairs = [(1.0, 0.0)]
    a, b = np.array(pairs).T
    sigma = chord_slopes(flux, a, b)
    kin, chord = delta_density(flux, a, b), delta_density_chord(flux, a, b)
    ratio = np.divide(chord, kin, out=np.full_like(kin, np.inf), where=kin != 0.0)
    cols = (a, b, sigma, jump_ep_rate(flux, a, b), kin, chord, ratio)
    rows = list(zip(*(c.tolist() for c in cols)))
    out = _outdir(cfg)
    meta = {"flux": flux.name, "seed": cfg["seed"], "pairs": len(pairs)}
    write_csv(
        out / "delta_audit.csv",
        meta,
        ["u_minus", "u_plus", "sigma", "D", "delta_kinetic", "delta_chord", "ratio"],
        rows,
    )
    write_json(
        out / "delta_audit.json",
        {
            "note": (
                "delta_kinetic integrates to total EP against the H1 length "
                "measure; delta_chord flips the orientation of the flux "
                "integral term and is reported for comparison only"
            ),
            "n_pairs": len(pairs),
            "first_pair": {
                "u_minus": rows[0][0],
                "u_plus": rows[0][1],
                "delta_kinetic": rows[0][4],
                "delta_chord": rows[0][5],
            },
        },
    )
    _report(("audit_emitted", True, f"{len(pairs)} pair(s), informational"))
    return 0


_DISPATCH = {
    "riemann": cmd_riemann,
    "family": cmd_family,
    "evolve": cmd_evolve,
    "ep": cmd_ep,
    "rate-compare": cmd_rate_compare,
    "econd": cmd_econd,
    "hopflax": cmd_hopflax,
    "fv": cmd_fv,
    "splice": cmd_splice,
    "delta-audit": cmd_delta_audit,
}

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clawlab",
        description="laboratory for 1D scalar conservation laws with convex flux",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _DISPATCH.items():
        sp = sub.add_parser(name, help=handler.__doc__)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="output directory (default clawlab_out)")
        sp.add_argument("--flux", help="flux name from the catalog")
        sp.add_argument("--tol-ep", type=float, dest="tol_ep", help="EP tolerance")
        sp.add_argument("--delta-u", type=float, dest="delta_u",
                        help="rarefaction fragment size")
        sp.add_argument("--seed", type=int, help="seed for any sampling")
        sp.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.command, args)
        return args.handler(cfg)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3
    except ClawError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"out of memory: {args.command}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
