#!/usr/bin/env python3
"""clawlab benchmark: one seeded workload per run, one case at a time.

    python3 bench/run.py --workload ledger --seed 1 --seconds 24 --trace 0

Load model: a batch lab, not a server. One process, one client, one thread
runs a closed loop over the first N of the workload's seeded cases,
checking every case. N is --seconds times the workload's nominal rate
(cases per second of seed code), so a run of seed code lasts about
--seconds and the same seed and --seconds always run the same cases.
Times are CPU seconds of this process, which on an otherwise idle machine
equal wall seconds (printed alongside).
--trace 0 reports the end-to-end metrics;
--trace 1 runs half as many cases untraced and then the same cases traced
and reports the per-layer metrics. --cases N sets N directly.
A report goes to standard output first; its last line is one JSON object
with the keys correct, attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 4  # extra set-ups in fresh processes; setup_s is the median of 5
# Times are reported in reference seconds: CPU seconds scaled by how long a
# fixed calibration kernel takes on the machine right then, relative to
# CAL_REFERENCE_S. The kernel runs every CAL_EVERY_S of a loop and after
# each set-up, so drift in the shared machine's speed cancels.
CAL_LOOPS = 750
CAL_REFERENCE_S = 0.009
CAL_EVERY_S = 0.3
CAL_SETUP_SAMPLES = 10
P90_MIN_CASES = 100
# Known failures of seed code (workloads.KnownDefect) hit about 1.5% of
# splice cases (3 of the first 60 of --seed 1) and fewer triangle cases; a
# run with more than this share is not correct.
KNOWN_FAILED_SHARE = 0.1
# Glue is the part of a case span outside its call spans: the benchmark's
# own code between calls, the tracer's bookkeeping, freeing a case's
# objects. Traced runs on seed code give a median of 0.1% (track: 1.7%)
# and at most 2.6% of a case span; a call left out of the spans that takes
# a tenth of a case, or a call counted twice, moves it past these limits.
# GLUE_FLOOR_S covers cases that raise within a millisecond.
MAX_GLUE_SHARE = 0.1
GLUE_FLOOR_S = 1e-3

# layers called inside cases
LAYERS = ("fluxes", "riemann", "fronts", "entropy", "hopflax", "godunov",
          "compare", "trapezoid", "weak")
# per-layer metric -> the call spans it sums, per case
CALL_TIMES = {
    "fronts.evolve_s": ("fronts.evolve",),
    "fronts.state_at_s": ("fronts.state_at",),
    "entropy.total_ep_s": ("entropy.total_ep",),
    "entropy.total_ep_kinetic_s": ("entropy.total_ep_kinetic",),
    "entropy.total_ep_delta_h1_s": ("entropy.total_ep_delta_h1",),
    "entropy.fan_rates_s": ("entropy.fan_ep_rate", "entropy.entropy_rate_Hdot"),
    "entropy.econd_s": ("entropy.check_e_condition_state",),
    "weak.trajectory_max_residual_s": ("weak.trajectory_max_residual",),
    "hopflax.sample_oracle_s": ("hopflax.sample_oracle",),
    "godunov.run_godunov_s": ("godunov.run_godunov",),
    "compare.l1_steps_s": ("compare.l1_steps",),
    "trapezoid.trapezoid_splice_s": ("trapezoid.trapezoid_splice",),
    "riemann.family_sweep_s": ("riemann.family_sweep",),
}
COUNTERS = ("fronts.events", "fronts.stored_fronts", "entropy.ledger_rows",
            "weak.segments", "hopflax.points", "godunov.steps",
            "godunov.cell_steps", "compare.calls", "trapezoid.spliced_snapshots",
            "trapezoid.failed", "riemann.fans")
# metric -> (numerator call spans, denominator counter, scale)
UNIT_COSTS = {
    "fronts.us_per_event": (("fronts.evolve",), "fronts.events", 1e6),
    "entropy.us_per_row": (("entropy.total_ep", "entropy.total_ep_kinetic",
                            "entropy.total_ep_delta_h1"), "entropy.ledger_rows", 1e6),
    "weak.us_per_segment_bump": (("weak.trajectory_max_residual",),
                                 "weak.segment_bumps", 1e6),
    "hopflax.ms_per_point": (("hopflax.sample_oracle",), "hopflax.points", 1e3),
    "godunov.ns_per_cell_step": (("godunov.run_godunov",), "godunov.cell_steps", 1e9),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("ledger", "triangle", "splice", "track"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0,
                   help="run about this long on seed code (sets the case count)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cases", type=int, default=None,
                   help="run exactly this many cases")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed: int, tracer):
    """Import clawlab from this checkout, build fluxes, generate the inputs.

    Returns the CPU seconds this took, the workload and its case pool.
    """
    start = time.process_time()
    sys.path.insert(0, str(SRC))
    import clawlab

    if Path(clawlab.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"clawlab imported from {clawlab.__file__}, not {SRC}")
    import workloads

    wl = workloads.WORKLOADS[workload]
    cases = wl.cases(seed, tracer)
    return time.process_time() - start, wl, cases


def calibration_cpu() -> float:
    """CPU seconds of one fixed calibration kernel.

    Small numpy arrays built, sorted, differenced and searched from
    interpreted code: the same mix of short numpy calls clawlab makes, but
    no clawlab code, so a change to the program cannot move it.
    """
    import numpy as np

    xs = [i * 0.37 % 1.0 for i in range(60)]
    start = time.process_time()
    for _ in range(CAL_LOOPS):
        a = np.array(xs)
        b = np.sort(a)
        np.searchsorted(b, a[:10])
        np.concatenate((b, np.diff(b)))
    return time.process_time() - start


def reference_scale(samples: list[float]) -> float:
    """Reference seconds per CPU second, from calibration kernel times."""
    return CAL_REFERENCE_S / statistics.fmean(samples)


def probe_setup(workload: str, seed: int) -> list[float]:
    """Set-up times of SETUP_PROBES fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def case_count(wl, seconds: float) -> int:
    """Cases in a run of `seconds`: fixed by the workload, not by the clock.

    A timed loop would stop after however many cases the machine managed,
    so two runs of one seed would differ in what they attempted and in how
    many cases failed. The count is the same on every machine and for every
    version of the program; a faster program finishes sooner.
    """
    return max(1, round(seconds * wl.per_second))


def run_cases(wl, cases, tracer, count: int) -> dict:
    """Closed loop over the first `count` cases, one at a time.

    A loop that outruns the generated pool starts it again. Each case is
    timed in CPU seconds of this process and in wall seconds; the
    calibration kernel runs between cases and gives the run's scale. A
    case that raises or misses a check is timed but not completed; what it
    raised is sorted out after its span has ended.
    """
    from workloads import CheckFailed, KnownDefect

    case_cpu, case_wall, done, failures, cal = [], [], [], [], []
    tally = {"mismatched": 0, "known": 0, "unexpected": 0}
    last_cal = -CAL_EVERY_S
    start = time.perf_counter()
    for i in range(count):
        if time.perf_counter() - start - last_cal >= CAL_EVERY_S:
            cal.append(calibration_cpu())
            last_cal = time.perf_counter() - start
        case = cases[i % len(cases)]
        error = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with tracer.case(i):
                wl.run(case, tracer)
        except Exception as exc:
            error = exc
        case_cpu.append(time.process_time() - c0)
        case_wall.append(time.perf_counter() - t0)
        if error is None:
            done.append(len(case_cpu) - 1)
        elif isinstance(error, CheckFailed):
            tally["mismatched"] += 1
            failures.append((case.index, "check " + error.check, error.detail))
        elif isinstance(error, KnownDefect):
            tally["known"] += 1
            failures.append((case.index, error.kind, str(error)))
        else:
            tally["unexpected"] += 1
            tb = traceback.extract_tb(error.__traceback__)[-1]
            failures.append((case.index, "unexpected " + type(error).__name__,
                             f"{error} [{Path(tb.filename).name}:{tb.lineno} {tb.name}]"))
    n = len(case_cpu)
    if n > len(cases):
        print(f"note: the {len(cases)} generated cases ran more than once")
    # times of completed cases; of all cases if none completed (not correct)
    timed = done or range(n)
    return {"n": n, "done": len(done), "cpu": sum(case_cpu),
            "scale": reference_scale(cal), "wall": time.perf_counter() - start,
            "done_cpu": [case_cpu[k] for k in timed],
            "done_wall": [case_wall[k] for k in timed],
            "failures": failures, **tally}


def cases_ok(res) -> bool:
    """No missed check, no unexpected exception, known failures rare."""
    return (res["mismatched"] == 0 and res["unexpected"] == 0
            and res["known"] <= KNOWN_FAILED_SHARE * res["n"])


def layer_metrics(tracer, n_cases: int) -> dict:
    calls = tracer.call_seconds()
    c = tracer.counters
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(v for k, v in calls.items()
                                    if k.startswith(layer + ".")) / n_cases, "s/case")
    for name, spans in CALL_TIMES.items():
        m[name] = (sum(calls.get(s, 0.0) for s in spans) / n_cases, "s/case")
    for name in COUNTERS:
        m[name] = (c[name] / n_cases, "count/case")
    for name, (spans, counter, scale) in UNIT_COSTS.items():
        busy = sum(calls.get(s, 0.0) for s in spans)
        m[name] = (scale * busy / c[counter] if c[counter] else 0.0,
                   name.split(".")[1].replace("_per_", "/"))
    m["fluxes.make_flux_s"] = (tracer.call_seconds(in_cases=False).get("fluxes.make_flux", 0.0), "s")
    return m


def environment(args) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pinned_threads": {v: os.environ[v] for v in PINNED},
        "load_model": "closed loop, 1 process, 1 client, 1 thread, one case at a time",
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in PINNED:
        os.environ[var] = "1"
    from spans import Tracer

    tracer = Tracer(enabled=bool(args.trace))
    try:
        setup_s, wl, cases = setup(args.workload, args.seed, tracer)
    except ImportError as exc:
        print(f"cannot set up: {exc}", file=sys.stderr)
        return 2
    setup_s *= reference_scale([calibration_cpu() for _ in range(CAL_SETUP_SAMPLES)])
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    print("env: " + json.dumps(environment(args), sort_keys=True))
    if args.trace:
        return traced_run(args, wl, cases, tracer)

    setup_all = [setup_s] + probe_setup(args.workload, args.seed)
    res = run_cases(wl, cases, tracer, args.cases or case_count(wl, args.seconds))
    n = res["n"]
    failed = n - res["done"]
    report_cases(res)
    scale = res["scale"]
    print(f"reference seconds per cpu second: {scale!r}")
    print(f"cpu: cases_per_s {res['done'] / res['cpu']!r}, "
          f"case_s_p50 {statistics.median(res['done_cpu'])!r}")
    print(f"wall clock: cases_per_s {res['done'] / res['wall']!r}, "
          f"case_s_p50 {statistics.median(res['done_wall'])!r}")
    if res["done"] >= P90_MIN_CASES:
        print(f"case_s_p90: {scale * statistics.quantiles(res['done_cpu'], n=10)[-1]!r} s")
    else:
        print(f"case_s_p90: omitted ({res['done']} completed cases < {P90_MIN_CASES})")
    print("setup_s samples: " + ", ".join(f"{t:.4f}" for t in setup_all))
    print("counters: " + json.dumps(dict(sorted(tracer.counters.items()))))
    metrics = {
        "cases_per_s": (res["done"] / (scale * res["cpu"]), "1/s"),
        "case_s_p50": (scale * statistics.median(res["done_cpu"]), "s"),
        "setup_s": (statistics.median(setup_all), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return emit(cases_ok(res) and res["done"] > 0, n, failed, metrics)


def report_cases(res) -> None:
    n, failed = res["n"], res["n"] - res["done"]
    print(f"cases: {n} in {res['wall']:.3f} s wall, {res['cpu']:.3f} s cpu; "
          f"failed {failed}/{n} (failed_ratio {failed / n:.4f}: "
          f"{res['known']} known failures, "
          f"{res['mismatched']} missed a check, {res['unexpected']} unexpected)")
    for index, kind, detail in res["failures"]:
        print(f"  case {index}: {kind}: {detail}")


def traced_run(args, wl, cases, tracer) -> int:
    """Untraced pass, then the same cases traced; per-layer metrics."""
    from spans import Tracer

    n = args.cases or case_count(wl, args.seconds / 2)
    plain = run_cases(wl, cases, Tracer(enabled=False), n)
    traced = run_cases(wl, cases, tracer, n)
    breakdown = tracer.case_breakdown()
    glue = [(whole - calls) / whole for _, whole, calls in breakdown]
    glue_ok = all(0.0 <= whole - calls <= max(MAX_GLUE_SHARE * whole, GLUE_FLOOR_S)
                  for _, whole, calls in breakdown)
    plain_cps = plain["done"] / (plain["scale"] * plain["cpu"])
    traced_cps = traced["done"] / (traced["scale"] * traced["cpu"])
    print(f"cases: {n} untraced in {plain['cpu']:.3f} s cpu, traced in "
          f"{traced['cpu']:.3f} s cpu")
    print(f"tracing overhead: {traced_cps - plain_cps:+.4f} cases/s "
          f"({traced_cps:.4f} traced vs {plain_cps:.4f} untraced)")
    print(f"glue share of each case span: median {statistics.median(glue):.4f}, "
          f"max {max(glue):.4f} (allowed 0 to {MAX_GLUE_SHARE}, or {GLUE_FLOOR_S} s): "
          f"{'ok' if glue_ok else 'EXCEEDED'}")
    report_cases(traced)
    m = layer_metrics(tracer, n)
    self_times = {k: v for k, (v, _) in m.items() if k.endswith(".self_s")}
    print("self time per case: " + ", ".join(
        f"{k[:-7]} {v:.4f} s" for k, v in sorted(self_times.items(), key=lambda kv: -kv[1])))
    m["trace.overhead_cases_per_s"] = (traced_cps - plain_cps, "1/s")
    m["trace.glue_share"] = (statistics.median(glue), "ratio")
    failed = 2 * n - plain["done"] - traced["done"]
    ok = cases_ok(plain) and cases_ok(traced) and glue_ok
    return emit(ok, 2 * n, failed, m)


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> int:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
