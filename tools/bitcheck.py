#!/usr/bin/env python3
"""SHA-256 digests of everything a tracked solution hands downstream.

    python3 tools/bitcheck.py [--root CHECKOUT] [--seed 1] [--cases 20] [--no-cli]

Imports clawlab from CHECKOUT/src and the benchmark's workloads from
CHECKOUT/bench (CHECKOUT defaults to the repository holding this file) and
prints one ``<group> <sha256>`` line per group:

- ``fixture/<name>/<flux>/<mode>/<part>`` for the four fixtures, the three
  catalog fluxes and both tracking modes;
- ``<workload>/<case>/<part>`` for the first --cases cases of each
  workload at --seed, tracked as the workload tracks them;
- ``splice-seam/<case>/<part>``: the splice of seed-1 ``splice`` cases 22,
  40, 44 and 66, which raises ``InvariantViolation`` where the re-solve
  meets the original, whatever --seed and --cases say, so every run
  digests the error path of a splice;
- ``godunov/<case>/<cells>``: the final cells, ``step_times``, ``step_ep``
  and ``mass_drift`` of ``run_godunov`` on the first --cases ``triangle``
  cases at 50, 100, 200 and 400 cells, to t = 1 as the workload runs
  them, and ``godunov/<case>/200/snapshots`` for a run that also takes
  snapshots at t = 0.3 and 0.7;
- ``fan/<flux>/<label>``: ``fan_max_residual`` and every bump's
  ``fan_weak_residual`` on ``bump_battery(-2, 2, 0, 1)``, both to
  t_max = 1, for each fan of ``family_sweep(flux, -1, 1, members=12,
  seed=7)`` on the three catalog fluxes, the sonic poly4 fan of
  (-1.9, 1.9) (``fan/poly4/sonic``) and three Burgers fans off the
  Rankine-Hugoniot or characteristic speeds (``fan/burgers/broken_*``);
- ``cli/<command>/<label>``: exit code, stdout, stderr and every artifact
  of 150 CLI runs on the fixtures and on Riemann data.

A trajectory's parts are ``snapshots`` (every field of every snapshot, as
read, with kinds as their labels), ``snapshots_reversed`` (the same, read
from the last snapshot to the first), ``events``, ``lifetimes`` (every
column), ``state_at`` (the snapshot at 13 times across its span),
``ledgers`` (the rows and totals of ``total_ep``, ``total_ep_kinetic``
and ``total_ep_delta_h1`` over a full and a bounded window) and ``weak``
(the residual of every bump of its default battery). A splice adds one
``splice/<part>`` line per part of the spliced trajectory, or one
``splice/error`` line with the error it raises, so a diff names the part
that moved. Running this on two checkouts and diffing the outputs shows
whether a change keeps every bit. Uses the standard library and numpy
only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import astuple
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FLUXES = ("burgers", "cosh", "poly4")
MODES = ("entropic", "as_given")
STATE_AT_POINTS = 13
SEAM_CASES = (22, 40, 44, 66)  # seed-1 splice cases whose splice raises


class Digest:
    def __init__(self):
        self.h = hashlib.sha256()

    def value(self, v) -> None:
        """A scalar, string or tuple by its repr, which keeps every float bit."""
        self.h.update(repr(v).encode())
        self.h.update(b"\0")

    def array(self, a) -> None:
        a = np.ascontiguousarray(a)
        self.value((a.dtype.str, a.shape))
        self.h.update(a.tobytes())

    def hex(self) -> str:
        return self.h.hexdigest()


def snapshot_into(d: Digest, s) -> None:
    d.value((float(s.time), s.n_fronts))
    for a in (s.positions, s.states, s.speeds, s.front_ids):
        d.array(a)
    d.value(tuple(s.kinds))


def trajectory_parts(clawlab, traj) -> dict[str, str]:
    from clawlab import weak

    out = {}
    d = Digest()
    d.value((traj.mode, traj.t_end, traj.rarefaction_step, len(traj.snapshots)))
    for s in traj.snapshots:
        snapshot_into(d, s)
    out["snapshots"] = d.hex()

    d = Digest()
    for s in reversed(traj.snapshots):
        snapshot_into(d, s)
    out["snapshots_reversed"] = d.hex()

    d = Digest()
    for e in traj.events:
        d.value((e.time, e.x, e.kind))
    out["events"] = d.hex()

    d = Digest()
    rows = traj.lifetimes()
    for name in ("front_id", "t_birth", "t_death", "x_birth", "sigma", "u_minus", "u_plus"):
        d.array(getattr(rows, name))
    out["lifetimes"] = d.hex()

    d = Digest()
    for t in np.linspace(traj.t_start, traj.t_end, STATE_AT_POINTS):
        snapshot_into(d, traj.state_at(float(t)))
    out["state_at"] = d.hex()

    d = Digest()
    lo, hi = traj.support_bbox()
    mid = 0.5 * (lo + hi)
    windows = (
        clawlab.Window(traj.t_start, traj.t_end),
        clawlab.Window(traj.t_start, 0.5 * (traj.t_start + traj.t_end), lo, mid),
    )
    for w in windows:
        ledger = clawlab.total_ep(traj, w)
        d.value((ledger.total_signed, ledger.total_abs, len(ledger.rows)))
        for row in ledger.rows:
            d.value(astuple(row))
        d.value(clawlab.total_ep_kinetic(traj, w))
        d.value(clawlab.total_ep_delta_h1(traj, w))
    out["ledgers"] = d.hex()

    d = Digest()
    for psi in weak.default_battery_for(traj):
        d.value(weak.trajectory_max_residual(traj, [psi]))
    out["weak"] = d.hex()
    return out


def splice_parts(clawlab, traj, dom) -> dict[str, str]:
    """The spliced trajectory's parts, or its one ``error`` part."""
    try:
        spliced = clawlab.trapezoid_splice(traj, dom)
    except clawlab.ClawError as exc:
        d = Digest()
        d.value((type(exc).__name__, str(exc)))
        return {"error": d.hex()}
    return trajectory_parts(clawlab, spliced)


def emit(prefix: str, parts: dict[str, str]) -> None:
    for name, h in parts.items():
        print(f"{prefix}/{name} {h}", flush=True)


def fixtures(clawlab) -> None:
    for name in sorted(clawlab.SCENARIOS):
        sc = clawlab.get_scenario(name)
        for flux_name in FLUXES:
            fl = sc.make_flux(flux_name)
            for mode in MODES:
                traj = clawlab.evolve(sc.initial_state(fl), fl, sc.t_end, mode=mode)
                prefix = f"fixture/{name}/{flux_name}/{mode}"
                emit(prefix, trajectory_parts(clawlab, traj))
                T = sc.t_end
                dom = clawlab.TrapezoidDomain(
                    t1=0.2 * T, t2=0.8 * T, delta=0.5,
                    lambda_hat=0.9 * clawlab.lambda0(fl, sc.flux_radius),
                )
                emit(f"{prefix}/splice", splice_parts(clawlab, traj, dom))


def workloads(clawlab, seed: int, n_cases: int) -> None:
    import spans
    import workloads as wl

    tr = spans.Tracer(enabled=False)
    runs = {
        "ledger": ("entropic", wl.LEDGER_DELTA_U),
        "triangle": ("entropic", wl.TRIANGLE_DELTA_U),
        "splice": ("as_given", wl.SPLICE_DELTA_U),
        "track": ("entropic", None),
    }
    for name, (mode, step) in runs.items():
        for c in wl.WORKLOADS[name].cases(seed, tr)[:n_cases]:
            state = clawlab.state_from_data(c.flux, c.xs, c.us)
            traj = clawlab.evolve(state, c.flux, 1.0, mode=mode, rarefaction_step=step)
            emit(f"{name}/{c.index}", trajectory_parts(clawlab, traj))
            if name == "splice":
                emit(f"{name}/{c.index}/splice",
                     splice_parts(clawlab, traj, splice_domain(clawlab, c.flux)))
            del traj


def splice_domain(clawlab, flux):
    import workloads as wl

    t1, t2, delta = wl.SPLICE_DOMAIN
    return clawlab.TrapezoidDomain(t1, t2, delta, 0.9 * clawlab.lambda0(flux, 1.0))


def seam_failures(clawlab) -> None:
    import spans
    import workloads as wl

    cases = wl.WORKLOADS["splice"].cases(1, spans.Tracer(enabled=False))
    for c in (cases[i] for i in SEAM_CASES):
        state = clawlab.state_from_data(c.flux, c.xs, c.us)
        traj = clawlab.evolve(state, c.flux, 1.0, mode="as_given",
                              rarefaction_step=wl.SPLICE_DELTA_U)
        emit(f"splice-seam/{c.index}", splice_parts(clawlab, traj, splice_domain(clawlab, c.flux)))


def godunov_run_into(d: Digest, run) -> None:
    d.value((run.grid.time, run.mass_drift, len(run.snapshots)))
    for a in (run.grid.u, run.step_times, run.step_ep):
        d.array(a)
    for g in run.snapshots:
        d.value(g.time)
        d.array(g.u)


def godunov_runs(clawlab, seed: int, n_cases: int) -> None:
    import spans
    import workloads as wl

    for c in wl.WORKLOADS["triangle"].cases(seed, spans.Tracer(enabled=False))[:n_cases]:
        for n_cells in wl.TRIANGLE_CELLS:
            d = Digest()
            godunov_run_into(d, clawlab.run_godunov(c.flux, c.xs, c.us, 1.0, n_cells))
            print(f"godunov/{c.index}/{n_cells} {d.hex()}", flush=True)
        d = Digest()
        run = clawlab.run_godunov(c.flux, c.xs, c.us, 1.0, 200, snapshot_times=(0.3, 0.7))
        godunov_run_into(d, run)
        print(f"godunov/{c.index}/200/snapshots {d.hex()}", flush=True)


def fan_residuals(clawlab) -> None:
    from clawlab.riemann import Rarefaction, Shock, WaveFan

    fans = []
    for flux_name in FLUXES:
        fl = clawlab.make_flux(flux_name)
        roster = clawlab.family_sweep(fl, -1.0, 1.0, members=12, seed=7)
        fans += [(f"{flux_name}/{label}", fan) for label, fan in roster]
    fans.append(("poly4/sonic", clawlab.solve_riemann(clawlab.poly4_flux(), -1.9, 1.9)))
    fl = clawlab.burgers_flux()
    for label, u_l, u_r, wave in (
        ("broken_shock", 1.0, -0.5, Shock(1.0, -0.5, 0.35)),
        ("broken_expansion", -0.5, 1.0, Shock(-0.5, 1.0, 0.30)),
        ("broken_rarefaction", -0.5, 1.0, Rarefaction(-0.5, 1.0, -0.4, 1.1)),
    ):
        fans.append((f"burgers/{label}", WaveFan(fl, u_l, u_r, (wave,), "entropic")))
    battery = clawlab.bump_battery(-2.0, 2.0, 0.0, 1.0)
    for label, fan in fans:
        d = Digest()
        d.value(clawlab.fan_max_residual(fan, 1.0))
        for psi in battery:
            d.value(clawlab.fan_weak_residual(fan, psi, 1.0))
        print(f"fan/{label} {d.hex()}", flush=True)


def cli_runs() -> list[tuple[str, str, dict, list[str]]]:
    """(command, label, config, extra flags) of each CLI run."""
    import clawlab

    runs = []
    for name in sorted(clawlab.SCENARIOS):
        fixture = {"kind": "fixture", "name": name}
        T = clawlab.get_scenario(name).t_end
        for flux in FLUXES:
            flags = ["--flux", flux]
            for mode in MODES:
                label = f"{name}/{flux}/{mode}"
                base = {"initial": fixture, "mode": mode}
                runs.append(("evolve", label, base, flags))
                runs.append(("ep", label, base, flags))
                runs.append(("econd", label, base, flags))
                dom = {"t1": 0.25 * T, "t2": T, "delta": 0.3}
                runs.append(("splice", label, {**base, "domain": dom}, flags))
            runs.append(("hopflax", f"{name}/{flux}", {"initial": fixture}, flags))
            runs.append(("fv", f"{name}/{flux}", {"initial": fixture}, flags))
    for flux in FLUXES:
        for u_l, u_r in ((1.0, 0.0), (-1.0, 1.0), (-0.5, 1.5)):
            label = f"{flux}/{u_l}/{u_r}"
            pair = {"u_l": u_l, "u_r": u_r}
            runs.append(("riemann", label, pair, ["--flux", flux]))
            runs.append(("family", label, {**pair, "members": 6}, ["--flux", flux]))
            runs.append(("rate-compare", label, {**pair, "members": 6}, ["--flux", flux]))
        runs.append(("delta-audit", flux, {"count": 5}, ["--flux", flux, "--seed", "3"]))
    return runs


def cli() -> None:
    from clawlab import cli as clawcli

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for i, (command, label, cfg, flags) in enumerate(cli_runs()):
                Path("config.json").write_text(json.dumps(cfg))
                out = f"run{i:03d}"
                argv = [command, "--config", "config.json", "--out", out, *flags]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = clawcli.main(argv)
                d = Digest()
                d.value((code, stdout.getvalue(), stderr.getvalue()))
                if Path(out).is_dir():
                    for f in sorted(Path(out).rglob("*")):
                        d.value(str(f.relative_to(out)))
                        d.h.update(f.read_bytes())
                print(f"cli/{command}/{label} {d.hex()}", flush=True)
        finally:
            os.chdir(here)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", type=Path, default=ROOT,
                   help="checkout whose src/ and bench/ are imported")
    p.add_argument("--seed", type=int, default=1, help="workload seed")
    p.add_argument("--cases", type=int, default=20, help="cases per workload")
    p.add_argument("--no-cli", action="store_true", help="skip the CLI runs")
    args = p.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import clawlab

    fixtures(clawlab)
    workloads(clawlab, args.seed, args.cases)
    seam_failures(clawlab)
    godunov_runs(clawlab, args.seed, args.cases)
    fan_residuals(clawlab)
    if not args.no_cli:
        cli()
    return 0


if __name__ == "__main__":
    sys.exit(main())
