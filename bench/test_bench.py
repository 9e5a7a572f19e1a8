"""The benchmark's own checks: counters repeat exactly, failures are sorted, generator parity.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

CASES_PER_WORKLOAD = 2


def counters_of(name: str, seed: int) -> dict:
    tracer = Tracer(enabled=False)
    wl = workloads.WORKLOADS[name]
    res = run.run_cases(wl, wl.cases(seed, tracer), tracer, count=CASES_PER_WORKLOAD)
    assert res["failures"] == []
    return dict(tracer.counters)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_work_counters_repeat_exactly(name):
    first = counters_of(name, seed=3)
    assert first == counters_of(name, seed=3)
    assert first["fronts.events"] > 0


def test_inputs_depend_only_on_seed():
    a = workloads.track_cases(5, Tracer(enabled=False))
    b = workloads.track_cases(5, Tracer(enabled=False))
    c = workloads.track_cases(6, Tracer(enabled=False))
    assert all(np.array_equal(x.us, y.us) for x, y in zip(a, b))
    assert not np.array_equal(a[0].us, c[0].us)


def test_known_splice_failure_is_counted_not_skipped():
    """Case 22 of --seed 1 hits the trapezoid_splice InvariantViolation."""
    tracer = Tracer(enabled=False)
    wl = workloads.WORKLOADS["splice"]
    res = run.run_cases(wl, wl.cases(1, tracer)[22:32], tracer, count=10)
    assert [f[:2] for f in res["failures"]] == [(22, "InvariantViolation")]
    assert (res["n"], res["done"], res["known"]) == (10, 9, 1)
    assert run.cases_ok(res)


def test_other_exceptions_make_the_run_incorrect():
    def crash(case, tr):
        raise ValueError("not the known failure")

    tracer = Tracer(enabled=False)
    wl = workloads.Workload(workloads.track_cases, crash, 1.0)
    res = run.run_cases(wl, wl.cases(5, tracer), tracer, count=2)
    assert (res["done"], res["unexpected"]) == (0, 2)
    assert not run.cases_ok(res)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_runs_up_to_a_minute_repeat_no_case(name):
    """The case count depends on --seconds only, and fits in the seeded pool."""
    wl = workloads.WORKLOADS[name]
    assert 1 <= run.case_count(wl, 1) <= run.case_count(wl, 60) <= workloads.POOL


def test_generator_parity_with_roadmap():
    """50 jumps from default_rng(0), Burgers R = 2, default delta_u, t_end = 1."""
    from clawlab import burgers_flux, evolve, state_from_data

    xs, us = workloads.step_data(np.random.default_rng(0), 50, 5.0, 1.5)
    flux = burgers_flux(2.0)
    traj = evolve(state_from_data(flux, xs, us), flux, 1.0)
    assert len(traj.events) == 912
    assert sum(s.n_fronts for _, _, s in traj.segments()) == 877_393
