"""Step data: one reader checks, evaluates and integrates (xs, us) for every route."""

import numpy as np
import pytest

from clawlab import burgers_flux
from clawlab.compare import l1_steps, step_primitive, step_values
from clawlab.errors import FluxRangeError
from clawlab.fronts import state_from_data
from clawlab.godunov import cell_averages_from_step, run_godunov
from clawlab.hopflax import potential_from_step

ILLEGAL = [
    ([np.nan, 1.0], [0.0, 1.0, 0.0], r"xs\[0\] = nan is not finite"),
    ([0.0, np.inf], [0.0, 1.0, 0.0], r"xs\[1\] = inf is not finite"),
    ([1.0, -1.0, 2.0], [0.0, 0.5, -0.5, 0.0], "breakpoints must be non-decreasing"),
]

READERS = {
    "state_from_data": lambda xs, us: state_from_data(burgers_flux(), xs, us),
    "potential_from_step": potential_from_step,
    "run_godunov": lambda xs, us: run_godunov(burgers_flux(), xs, us, 0.5, 50),
    "cell_averages_from_step": lambda xs, us: cell_averages_from_step(
        xs, us, np.linspace(-3.0, 3.0, 13)
    ),
    "l1_steps": lambda xs, us: l1_steps(xs, us, [0.0], [0.0, 0.0]),
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("xs, us, message", ILLEGAL, ids=["xs-nan", "xs-inf", "decreasing"])
def test_every_reader_rejects_illegal_step_data_with_one_message(reader, xs, us, message):
    # NaN breakpoints used to give a NaN grid or snapshot, and decreasing
    # ones an InvariantViolation, a CFLError or an L1 distance of 0.0
    with pytest.raises(FluxRangeError, match=f"^{message}$"):
        READERS[reader](xs, us)


def test_values_take_the_left_limit():
    xs = np.array([-1.0, 0.0, 0.0, 2.0])
    us = np.array([3.0, 1.0, 7.0, -2.0, 0.5])
    # at a breakpoint the value is the one on its left; the zero-width
    # piece at 0 is never seen
    assert step_values(xs, us, -1.0) == 3.0
    assert step_values(xs, us, 0.0) == 1.0
    assert list(step_values(xs, us, [-5.0, -0.5, 1.0, 2.0, 9.0])) == [3.0, 1.0, -2.0, -2.0, 0.5]


def test_primitive_integrates_with_tail_slopes():
    xs = np.array([-1.0, 0.0, 0.0, 2.0])
    us = np.array([3.0, 1.0, 7.0, -2.0, 0.5])
    y = np.array([-3.0, -1.0, -0.5, 0.0, 1.0, 2.0, 4.0])
    # zero at xs[0]; slope 3 left of it, 0.5 right of the last breakpoint
    want = np.array([-6.0, 0.0, 0.5, 1.0, -1.0, -3.0, -2.0])
    assert np.array_equal(step_primitive(xs, us, y), want)
    assert step_primitive(xs, us, 4.0) == -2.0
    assert step_primitive(np.empty(0), np.array([-1.5]), 2.0) == -3.0


def loop_state_from_data(xs, us):
    """Reference: the breakpoint loop state_from_data was first written as."""
    pos, vals = [], [us[0]]
    for i, (x, u) in enumerate(zip(xs, us[1:])):
        if u == vals[-1] or (i + 1 < len(xs) and xs[i + 1] == x):
            continue
        pos.append(x)
        vals.append(u)
    return pos, vals


def test_state_from_data_drops_zero_width_pieces_and_zero_jumps_like_the_loop():
    fl = burgers_flux()
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(0, 9))
        # quantized data repeat both breakpoints and values
        xs = np.sort(rng.integers(-3, 4, n)).astype(float).tolist()
        us = rng.integers(-2, 3, n + 1).astype(float).tolist()
        pos, vals = loop_state_from_data(xs, us)
        state = state_from_data(fl, xs, us)
        assert state.positions.tolist() == pos
        assert state.states.tolist() == vals
