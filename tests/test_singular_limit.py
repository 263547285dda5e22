"""The tau -> 0 limit of the third-order model, pinned by numbers.

The paper shows that the JMGT solutions tend to the Westervelt solution as
the relaxation time vanishes.  On the criterion-05 drive (amplitude 0.5,
frequency 2, decay rate 2, k = 0.4, pure Neumann) the limit-study error in
the higher energy is first order in tau, and its tau-normalized size does not
depend on the time step even for tau far below dt: the BDF2 SMGT scheme
tends to BDF2 Westervelt.  The fixed-point argument is tau-uniform too: the
Picard contraction factor of the JMGT runs stays below the Westervelt one and
tends to it.
"""

import math
from dataclasses import replace

import pytest

from jmgt_lab import build_basis, solve_jmgt, solve_westervelt_nonlinear
from jmgt_lab.cli import limit_study
from jmgt_lab.config import parse_config_text
from helpers import AMPLITUDE_FOUR_STUDY

CONFIG = """\
[model]
c2 = 1.0
delta = 1.0
tau = 0.1
k = 0.4
beta = 0.0

[signal]
amplitude = {amplitude}
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
    return {
        dt: limit_study(parse_config_text(CONFIG.format(dt=dt, amplitude=0.5)))[0].rows
        for dt in STEPS
    }


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


#: Relaxation times of the contraction study, decreasing towards Westervelt.
FACTOR_TAUS = (0.1, 0.01, 0.001)


def contraction_factor(report):
    """Largest of the first three contraction factors of a Picard run."""
    return max(report.factors[:3])


@pytest.mark.parametrize("amplitude", [0.5, 2.0])
def test_contraction_factor_is_uniform_in_tau(amplitude):
    config = parse_config_text(CONFIG.format(dt=0.02, amplitude=amplitude))
    basis = build_basis(config.length, config.solver.n_modes)
    args = (basis, None, config.signal, config.solver, config.bc)
    factors = [
        contraction_factor(solve_jmgt(replace(config.params, tau=tau), *args)[1])
        for tau in FACTOR_TAUS
    ]
    westervelt = contraction_factor(solve_westervelt_nonlinear(config.params, *args)[1])
    assert all(factor <= 1.01 * westervelt for factor in factors), (factors, westervelt)
    gaps = [abs(factor - westervelt) for factor in factors]
    assert all(fine < coarse for coarse, fine in zip(gaps, gaps[1:])), gaps
    assert factors[-1] == pytest.approx(westervelt, rel=1e-2)


def test_normalized_error_converges_in_n_modes():
    # the limit table is resolved in space: each doubling of n_modes shrinks the change
    # of energy_error / tau about 9x (third order)
    config = parse_config_text(CONFIG.format(dt=0.01, amplitude=0.5))
    ratios = []
    for n_modes in (8, 16, 32, 64):
        study = replace(config, solver=replace(config.solver, n_modes=n_modes), tau_sweep=(0.01,))
        (row,) = limit_study(study)[0].rows
        ratios.append(row.energy_error / row.tau)
    assert ratios == pytest.approx([0.46998, 0.47329, 0.47361, 0.47365], rel=1e-4)
    changes = [abs(fine - coarse) for coarse, fine in zip(ratios, ratios[1:])]
    assert all(fine < coarse / 5 for coarse, fine in zip(changes, changes[1:])), ratios


def test_limit_table_error_budget():
    # how far the n = 8 table is from converged: halving dt moves energy_error by
    # 3.7e-5 to 2.2e-4 relative (BDF2; implicit Euler would move it by about 2e-2), and
    # doubling n_modes by 6.9e-3 to 8.5e-3, so at n = 8 the spatial error dominates
    config = parse_config_text(CONFIG.format(dt=0.01, amplitude=0.5))
    config = replace(config, tau_sweep=(0.1, 0.01, 0.001))

    def energy_errors(**solver):
        study = replace(config, solver=replace(config.solver, **solver))
        return [row.energy_error for row in limit_study(study)[0].rows]

    base = energy_errors()
    for refined, budget in ((dict(dt=0.005), 1e-3), (dict(n_modes=16), 2e-2)):
        refined_errors = energy_errors(**refined)
        moves = [abs(fine - coarse) / coarse for coarse, fine in zip(base, refined_errors)]
        assert max(moves) < budget, (refined, moves)


def test_study_below_the_smallness_threshold_converges():
    # the lower half of the smallness bracket: at amplitude 3.85 every member and the
    # Westervelt reference converge with positive margins, while at amplitude 4 the same
    # study aborts at tau = 0.03 (tests/test_cli.py)
    config = parse_config_text(AMPLITUDE_FOUR_STUDY.replace("amplitude = 4.0", "amplitude = 3.85"))
    with pytest.warns(RuntimeWarning, match="degeneracy margin"):
        result, _ = limit_study(config)
    assert [row.tau for row in result.rows] == list(config.tau_sweep)
    assert all(row.picard_iterations < config.solver.picard_max for row in result.rows)
    assert result.reference_iterations < config.solver.picard_max
    assert all(row.degeneracy_margin > 0.0 for row in result.rows)
    assert result.reference_margin > 0.0
