"""The tau -> 0 limit of the third-order model, pinned by numbers.

The paper shows that the JMGT solutions tend to the Westervelt solution as
the relaxation time vanishes.  On the criterion-05 drive (amplitude 0.5,
frequency 2, decay rate 2, k = 0.4, pure Neumann) the limit-study error in
the higher energy is first order in tau, and its tau-normalized size does not
depend on the time step even for tau far below dt: the BDF2 SMGT scheme
tends to BDF2 Westervelt.
"""

import math

import pytest

from jmgt_lab.cli import limit_study
from jmgt_lab.config import parse_config_text

CONFIG = """\
[model]
c2 = 1.0
delta = 1.0
tau = 0.1
k = 0.4
beta = 0.0

[signal]
amplitude = 0.5
frequency = 2.0
onset_power = 5
decay_rate = 2.0

[discretization]
dt = {dt}
t_final = 1.0
n_modes = 8
picard_tol = 1e-10
picard_max = 30

[experiment]
bc = neumann
tau_sweep = 0.01, 0.001, 0.0001
"""

STEPS = (0.02, 0.01)

#: energy_error / tau per time step, one entry per sweep member.
RECORDED = {
    0.02: (0.47025, 0.47590, 0.47646),
    0.01: (0.46998, 0.47559, 0.47614),
}


@pytest.fixture(scope="module")
def rows_by_step():
    return {dt: limit_study(parse_config_text(CONFIG.format(dt=dt)))[0].rows for dt in STEPS}


@pytest.mark.parametrize("dt", STEPS)
def test_energy_error_is_first_order_in_tau(rows_by_step, dt):
    rows = rows_by_step[dt]
    for coarse, fine in zip(rows, rows[1:]):
        rate = math.log(coarse.energy_error / fine.energy_error) / math.log(coarse.tau / fine.tau)
        assert 0.9 <= rate <= 1.1, (coarse.tau, fine.tau, rate)


def test_normalized_error_is_uniform_in_dt(rows_by_step):
    coarse, fine = (rows_by_step[dt] for dt in STEPS)
    for a, b in zip(coarse, fine):
        assert a.tau == b.tau
        ratio_a, ratio_b = a.energy_error / a.tau, b.energy_error / b.tau
        assert abs(ratio_a - ratio_b) < 0.05 * ratio_b, (a.tau, ratio_a, ratio_b)


@pytest.mark.parametrize("dt", STEPS)
def test_normalized_error_matches_the_recorded_values(rows_by_step, dt):
    # the rate alone misses a wrong damping coefficient b: it shifts this by a few percent
    for row, recorded in zip(rows_by_step[dt], RECORDED[dt]):
        assert row.energy_error / row.tau == pytest.approx(recorded, rel=1e-2), row.tau
