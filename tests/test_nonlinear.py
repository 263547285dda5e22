import math
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jmgt_lab.integrate
import jmgt_lab.nonlinear
from jmgt_lab import (
    BoundaryKind,
    CoefficientField,
    InvalidParameters,
    ModelParams,
    NonDegeneracyViolated,
    NonlinearVariant,
    PicardDivergenceError,
    SingularStepMatrixError,
    SolverConfig,
    SolverFailure,
    TimeVaryingMass,
    Trajectory,
    WindowedSignal,
    build_basis,
    clamp_h,
    constant_field,
    field_from_trajectory,
    solve_jmgt,
    solve_smgt_linear,
    solve_westervelt_linearized,
    solve_westervelt_nonlinear,
    trajectory_distance,
)
from jmgt_lab.config import parse_config_text
from helpers import (
    AMPLITUDE_FOUR_STUDY,
    degeneracy_margin,
    round_by_round_picard,
    zero_trajectory,
)

L = math.pi


def small_setup(n=8, dt=1 / 100, t_final=1.0, tol=1e-9, k=0.4, amplitude=0.3, tau=0.1):
    basis = build_basis(L, n)
    params = ModelParams(c2=1.0, delta=1.0, tau=tau, k=k)
    sig = WindowedSignal(amplitude, 2.0, 5, 1.0)
    config = SolverConfig(dt=dt, t_final=t_final, n_modes=n, picard_tol=tol, picard_max=30)
    return basis, params, sig, config


class TestClampH:
    def test_zero_argument(self):
        assert clamp_h(0.0, 5.0) == 1.0

    def test_inside_the_band(self):
        assert clamp_h(0.2, 1.0) == pytest.approx(0.6, rel=1e-15)

    def test_saturation(self):
        assert clamp_h(10.0, 1.0) == 0.0
        assert clamp_h(-10.0, 1.0) == 2.0

    @given(s=st.floats(-1e6, 1e6), k=st.floats(-10, 10))
    @settings(max_examples=100, deadline=None)
    def test_range_and_identity_region(self, s, k):
        value = clamp_h(s, k)
        assert 0.0 <= value <= 2.0
        if abs(2.0 * k * s) <= 1.0:
            assert value == 1.0 - 2.0 * k * s

    def test_vectorized(self):
        values = clamp_h(np.array([-10.0, 0.0, 0.2, 10.0]), 1.0)
        np.testing.assert_allclose(values, [2.0, 1.0, 0.6, 0.0], rtol=1e-15)


class TestDegeneracyCheck:
    """The margins of the Picard runs against the oracle ``helpers.degeneracy_margin``."""

    def test_zero_trajectory_margin_one(self):
        basis, params, _, config = small_setup()
        traj = zero_trajectory(params, basis, config)
        assert degeneracy_margin(traj, basis, params.k) == 1.0
        series = jmgt_lab.nonlinear._margin_series(traj, basis, params.k, config.eval_grid)
        assert series.shape == (config.n_steps + 1,)
        assert np.all(series == 1.0)

    def test_zero_nonlinearity_margin_one(self):
        basis, params, sig, config = small_setup(k=0.0)
        traj, report = solve_jmgt(params, basis, None, sig, config)
        assert report.degeneracy_margin == 1.0
        assert degeneracy_margin(traj, basis, 0.0) == 1.0

    def test_single_mode_analytic_extremum(self):
        # one mode with velocity amplitude a: margin = 1 - 2|k| a sqrt(2/L)
        basis, params, _, config = small_setup(n=4)
        steps = config.n_steps
        amplitude = 0.3
        coeff_t = np.zeros((steps + 1, 4))
        coeff_t[:, 1] = amplitude
        traj = Trajectory(
            times=config.dt * np.arange(steps + 1),
            coeff=np.zeros_like(coeff_t),
            coeff_t=coeff_t,
            coeff_tt=np.zeros_like(coeff_t),
            coeff_ttt=np.zeros_like(coeff_t),
            bc=BoundaryKind.PURE_NEUMANN,
            params=params,
        )
        expected = 1.0 - 2.0 * abs(params.k) * amplitude * math.sqrt(2.0 / L)
        assert degeneracy_margin(traj, basis, params.k, eval_grid=4096) == pytest.approx(
            expected, abs=1e-6
        )
        series = jmgt_lab.nonlinear._margin_series(traj, basis, params.k, 4096)
        assert series.min() == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("variant", list(NonlinearVariant), ids=lambda v: v.value)
    def test_reported_margin_is_the_oracle_margin_of_the_result(self, variant):
        basis, params, sig, config = small_setup(amplitude=0.6)
        traj, report = solve_jmgt(params, basis, None, sig, config, variant=variant)
        expected = degeneracy_margin(traj, basis, params.k, config.eval_grid)
        assert report.degeneracy_margin < 0.99
        assert report.degeneracy_margin == pytest.approx(expected, rel=1e-12)


class TestContractionNorm:
    @pytest.mark.parametrize("tau", [0.3, 0.0])
    def test_single_mode_closed_form(self, tau):
        # mode 2 on [0, pi] (lambda = 4) with v_t = a t, v_tt = a, v_ttt = 0; the
        # trapezoid rule is exact on the constant |v_tt|^2, so
        # |||v|||^2 = tau a^2 + a^2 T + (1 + lambda) a^2 T^2
        a, horizon = 1.5, 1.0
        basis = build_basis(L, 4)
        config = SolverConfig(dt=0.01, t_final=horizon, n_modes=4)
        params = ModelParams(c2=1.0, delta=1.0, tau=tau)
        zero = zero_trajectory(params, basis, config, with_third=tau > 0.0)
        coeff, coeff_t, coeff_tt = (np.zeros_like(zero.coeff) for _ in range(3))
        coeff[:, 2] = 0.5 * a * zero.times**2
        coeff_t[:, 2] = a * zero.times
        coeff_tt[:, 2] = a
        v = replace(zero, coeff=coeff, coeff_t=coeff_t, coeff_tt=coeff_tt)
        expected = math.sqrt(tau * a**2 + a**2 * horizon + 5.0 * a**2 * horizon**2)
        assert trajectory_distance(v, zero, basis) == pytest.approx(expected, rel=1e-13)
        assert trajectory_distance(zero, v, basis) == pytest.approx(expected, rel=1e-13)

    def test_difference_on_mismatched_grids_rejected(self):
        basis = build_basis(L, 4)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1)
        coarse = zero_trajectory(params, basis, SolverConfig(dt=0.02, t_final=1.0, n_modes=4))
        for t_final in (1.0, 0.5):  # same length on another grid, then another length
            other = zero_trajectory(params, basis, SolverConfig(dt=0.01, t_final=t_final, n_modes=4))
            with pytest.raises(ValueError, match="different time grids"):
                coarse - other
            with pytest.raises(ValueError, match="different time grids"):
                trajectory_distance(other, coarse, basis)

    def test_third_order_minus_second_order_rejected(self):
        # only the second-order run may come first: its difference drops coeff_ttt
        basis = build_basis(L, 4)
        sig = WindowedSignal(0.3, 2.0, 5, 1.0)
        config = SolverConfig(dt=0.02, t_final=0.5, n_modes=4)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1)
        jmgt = solve_smgt_linear(params, basis, constant_field(1.0), None, sig, config)
        westervelt = solve_westervelt_linearized(params, basis, constant_field(1.0), None, sig, config)
        with pytest.raises(ValueError, match="other carries no coeff_ttt"):
            jmgt - westervelt
        with pytest.raises(ValueError, match="other carries no coeff_ttt"):
            trajectory_distance(jmgt, westervelt, basis)
        difference = westervelt - jmgt
        assert difference.coeff_ttt is None and difference.params == westervelt.params
        assert np.array_equal(difference.coeff_tt, westervelt.coeff_tt - jmgt.coeff_tt)
        assert trajectory_distance(westervelt, jmgt, basis) > 0.0


class TestPicardLoop:
    def test_zero_data_converges_in_one_iteration(self):
        basis, params, _, config = small_setup()
        traj, report = solve_jmgt(params, basis, None, None, config)
        assert report.iterations == 1
        assert report.differences[-1] < config.picard_tol
        assert report.differences == [0.0]
        assert report.factors == []
        assert np.abs(traj.coeff).max() == 0.0
        assert report.degeneracy_margin == 1.0

    def test_zero_k_westervelt_converges_in_two_iterations(self):
        basis, params, sig, config = small_setup(k=0.0)
        traj, report = solve_westervelt_nonlinear(params, basis, None, sig, config)
        assert report.iterations == 2
        assert report.differences[1] == 0.0

    def test_small_data_contracts(self):
        basis, params, sig, config = small_setup()
        traj, report = solve_jmgt(params, basis, None, sig, config)
        assert report.differences[-1] < config.picard_tol
        assert all(factor < 1.0 for factor in report.factors)
        assert report.degeneracy_margin > 0.5

    def test_contraction_factor_shrinks_with_amplitude(self):
        # the measured factor drops roughly linearly as the drive is halved
        maxima = []
        for amplitude in (0.4, 0.2, 0.1):
            basis, params, sig, config = small_setup(amplitude=amplitude, tol=1e-8)
            _, report = solve_jmgt(params, basis, None, sig, config)
            meaningful = [
                factor
                for factor, previous in zip(report.factors, report.differences)
                if previous > 100.0 * config.picard_tol
            ]
            maxima.append(max(meaningful))
        assert maxima[0] >= maxima[1] >= maxima[2]
        assert maxima[1] <= 0.75 * maxima[0]

    def test_relaxed_and_full_agree_when_clamp_inactive(self):
        basis, params, sig, config = small_setup()
        full, full_report = solve_jmgt(params, basis, None, sig, config)
        relaxed, _ = solve_jmgt(
            params, basis, None, sig, config, variant=NonlinearVariant.RELAXED_JMGT
        )
        assert full_report.degeneracy_margin > 0.0  # clamp never engaged
        assert trajectory_distance(full, relaxed, basis) <= 10.0 * config.picard_tol

    def test_westervelt_small_data_contracts(self):
        basis, params, sig, config = small_setup()
        _, report = solve_westervelt_nonlinear(params, basis, None, sig, config)
        assert report.differences[-1] < config.picard_tol
        assert all(factor < 1.0 for factor in report.factors)

    def test_variant_dispatch_to_westervelt(self):
        basis, params, sig, config = small_setup()
        via_jmgt, _ = solve_jmgt(
            params, basis, None, sig, config, variant=NonlinearVariant.WESTERVELT
        )
        direct, _ = solve_westervelt_nonlinear(params, basis, None, sig, config)
        assert np.array_equal(via_jmgt.coeff, direct.coeff)

    @pytest.mark.parametrize(
        "variant", [NonlinearVariant.FULL_JMGT, NonlinearVariant.RELAXED_JMGT], ids=lambda v: v.value
    )
    def test_report_reads_its_counts_from_the_series(self, variant):
        basis, params, sig, config = small_setup()
        _, report = solve_jmgt(params, basis, None, sig, config, variant=variant)
        d = report.differences
        assert report.iterations > 2
        assert report.iterations == len(d) == len(report.margins) == len(report.iterate_norms)
        assert report.factors == [b / a for a, b in zip(d, d[1:])]
        assert report.degeneracy_margin == report.margins[-1]

    def test_iterate_norms_stay_bounded(self):
        # discrete self-mapping proxy: no iterate blow-up
        basis, params, sig, config = small_setup()
        _, report = solve_jmgt(params, basis, None, sig, config)
        norms = np.asarray(report.iterate_norms)
        assert np.all(np.isfinite(norms))
        assert norms.max() <= 2.0 * norms[0] + 1.0


class TestGuard:
    def test_oversized_amplitude_violates_degeneracy(self):
        basis, params, sig, config = small_setup(amplitude=20.0)
        with pytest.raises(NonDegeneracyViolated) as info:
            solve_jmgt(params, basis, None, sig, config)
        assert info.value.margin <= 0.0
        assert info.value.time > 0.0
        assert info.value.iteration >= 1

    def test_relaxed_variant_never_aborts(self):
        basis, params, sig, config = small_setup(amplitude=20.0, tol=1e-7)
        traj, report = solve_jmgt(
            params, basis, None, sig, config, variant=NonlinearVariant.RELAXED_JMGT
        )
        assert report.differences[-1] < config.picard_tol
        # the clamp saturated somewhere, hence the recorded margin is <= 0
        assert report.degeneracy_margin <= 0.0

    @pytest.mark.parametrize("variant", list(NonlinearVariant), ids=lambda v: v.value)
    def test_one_margin_series_per_iteration(self, monkeypatch, variant):
        calls = []
        original = jmgt_lab.nonlinear._margin_series

        def counting(traj, *args):
            series = original(traj, *args)
            calls.append(float(series.min()))
            return series

        monkeypatch.setattr(jmgt_lab.nonlinear, "_margin_series", counting)
        basis, params, sig, config = small_setup()
        _, report = solve_jmgt(params, basis, None, sig, config, variant=variant)
        assert report.iterations > 2
        assert len(calls) == report.iterations
        assert report.degeneracy_margin == calls[-1]
        assert report.margins == calls

    def test_successful_full_run_margin_positive(self):
        basis, params, sig, config = small_setup(amplitude=0.6)
        _, report = solve_jmgt(params, basis, None, sig, config)
        assert report.degeneracy_margin > 0.0

    def test_divergence_reports_differences(self):
        basis, params, sig, config = small_setup()
        tight = SolverConfig(
            dt=config.dt,
            t_final=config.t_final,
            n_modes=config.n_modes,
            picard_tol=1e-16,
            picard_max=3,
        )
        with pytest.raises(PicardDivergenceError) as info:
            solve_jmgt(params, basis, None, sig, tight)
        assert len(info.value.differences) == 3

    def test_growing_differences_stop_the_run_early(self):
        # the relaxed map on a large drive with k = 10 and tau = 1e-3 does not
        # contract: the first three factors are about 6.4, 3.1 and 2.1
        basis = build_basis(L, 8)
        params = ModelParams(c2=1.0, delta=1.0, tau=1e-3, k=10.0)
        sig = WindowedSignal(5.0, 2.0, 5, 1.0)
        config = SolverConfig(dt=1 / 50, t_final=1.0, n_modes=8, picard_tol=1e-9, picard_max=20)
        with pytest.raises(PicardDivergenceError, match="diverged") as info:
            solve_jmgt(params, basis, None, sig, config, variant=NonlinearVariant.RELAXED_JMGT)
        differences = info.value.differences
        assert len(differences) < config.picard_max
        assert all(b / a > 1.0 for a, b in zip(differences[-4:], differences[-3:]))

    @pytest.mark.parametrize(
        "variant",
        [NonlinearVariant.FULL_JMGT, NonlinearVariant.RELAXED_JMGT],
        ids=lambda v: v.value,
    )
    def test_jmgt_requires_positive_tau(self, variant):
        basis, params, sig, config = small_setup()
        zero_tau = ModelParams(c2=1.0, delta=1.0, tau=0.0, k=0.4)
        with pytest.raises(InvalidParameters, match="tau must be positive"):
            solve_jmgt(zero_tau, basis, None, sig, config, variant=variant)


class TestWarningLocation:
    @pytest.mark.parametrize(
        "solve, amplitude",
        [
            (solve_jmgt, 1.7),  # eight warnings, then convergence
            (solve_westervelt_nonlinear, 1.4),  # one warning, then a degeneracy abort
            (partial(solve_jmgt, variant=NonlinearVariant.WESTERVELT), 1.4),
        ],
        ids=["jmgt", "westervelt", "jmgt-westervelt"],
    )
    def test_degeneracy_warnings_point_at_the_caller(self, solve, amplitude):
        basis, params, sig, config = small_setup(dt=1 / 50, tol=1e-8, amplitude=amplitude)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                solve(params, basis, None, sig, config)
            except NonDegeneracyViolated:
                pass
        assert caught
        assert all(item.filename == __file__ for item in caught)


class TestManufacturedPicard:
    """Exact-solution check of the Picard path: psi = t^3 cos(x) on [0, pi].

    The nonlinear term (1 - 6k t^2 cos x) 6t cos x lies in the span of modes
    0 and 2, so with n = 4 the forcing is represented exactly and the error
    is temporal only.  |2k psi_t| <= 0.6 on [0, 1], so the clamp of the
    relaxed variant stays inactive.
    """

    @staticmethod
    def forcing(params):
        k, tau, b, c2 = params.k, params.tau, params.b, params.c2

        def f(x, t):
            cos = np.cos(np.asarray(x, dtype=float))
            gain = 6.0 * tau + (1.0 - 6.0 * k * t**2 * cos) * 6.0 * t + c2 * t**3 + 3.0 * b * t**2
            return gain * cos

        return f

    @pytest.mark.parametrize(
        "variant",
        [NonlinearVariant.FULL_JMGT, NonlinearVariant.RELAXED_JMGT, NonlinearVariant.WESTERVELT],
        ids=lambda variant: variant.value,
    )
    def test_observed_order_two(self, variant):
        n = 4
        basis = build_basis(L, n)
        tau = 0.0 if variant is NonlinearVariant.WESTERVELT else 0.1
        params = ModelParams(c2=1.0, delta=0.5, tau=tau, k=0.1)
        errors = []
        for dt in (1 / 50, 1 / 100, 1 / 200):
            config = SolverConfig(dt=dt, t_final=1.0, n_modes=n, picard_tol=1e-12, picard_max=30)
            traj, report = solve_jmgt(
                params, basis, self.forcing(params), None, config, variant=variant
            )
            assert report.differences[-1] < config.picard_tol
            exact = np.zeros_like(traj.coeff)
            exact[:, 1] = math.sqrt(L / 2.0) * traj.times**3  # cos(x) = sqrt(pi/2) w_1
            errors.append(float(np.sqrt(((traj.coeff - exact) ** 2).sum(axis=1)).max()))
        orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert all(1.9 <= order <= 2.1 for order in orders), orders


def callable_picard(params, basis, f, g, config, bc, variant):
    """Successive substitution through the public linear solvers and callable fields."""
    westervelt = variant is NonlinearVariant.WESTERVELT
    if westervelt:
        params = replace(params, tau=0.0)
    solve = solve_westervelt_linearized if westervelt else solve_smgt_linear
    zero = previous = zero_trajectory(params, basis, config, bc, with_third=not westervelt)
    field = constant_field(1.0)
    differences, norms = [], []
    for _ in range(config.picard_max):
        current = solve(params, basis, field, f, g, config, bc)
        differences.append(trajectory_distance(current, previous, basis))
        norms.append(trajectory_distance(current, zero, basis))
        if differences[-1] < config.picard_tol:
            return current, differences, norms
        clamped = variant is NonlinearVariant.RELAXED_JMGT
        field = field_from_trajectory(basis, current, params.k, clamped=clamped)
        previous = current
    raise AssertionError("the oracle loop did not converge")


class TestArrayPicard:
    """The Picard solvers against the callable path, and their load assembly count."""

    @staticmethod
    def setup(bc):
        basis = build_basis(L, 6)
        params = ModelParams(c2=1.0, delta=0.8, tau=0.1, k=0.4, beta=0.5)
        sig = WindowedSignal(0.4, 2.0, 5, 1.0)
        config = SolverConfig(dt=1 / 50, t_final=1.0, n_modes=6, picard_tol=1e-10)

        def source(x, t):
            return 0.3 * t**2 * np.cos(2.0 * np.asarray(x, dtype=float))

        return basis, params, source, sig, config

    @pytest.mark.parametrize("bc", list(BoundaryKind), ids=lambda bc: bc.value)
    @pytest.mark.parametrize("variant", list(NonlinearVariant), ids=lambda v: v.value)
    def test_matches_the_callable_loop(self, variant, bc):
        # Both paths build the clamped masses as quadrature Grams, so the relaxed run
        # is bit-identical.  The unclamped masses are closed form in the solver and
        # quadrature Grams of the callable field here: equal to roundoff, within the
        # 1e-12 relative allowance for reordered floating-point work.
        basis, params, source, sig, config = self.setup(bc)
        traj, report = solve_jmgt(params, basis, source, sig, config, bc, variant)
        expected, differences, norms = callable_picard(
            params, basis, source, sig, config, bc, variant
        )
        names = ["times", "coeff", "coeff_t", "coeff_tt"]
        if variant is NonlinearVariant.WESTERVELT:
            assert traj.coeff_ttt is None and expected.coeff_ttt is None
        else:
            names.append("coeff_ttt")
        if variant is NonlinearVariant.RELAXED_JMGT:
            for name in names:
                assert np.array_equal(getattr(traj, name), getattr(expected, name)), name
            assert report.differences == differences
            assert report.iterate_norms == norms
            return
        for name in names:
            got, want = getattr(traj, name), getattr(expected, name)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
        assert report.iterations == len(differences)
        np.testing.assert_allclose(report.iterate_norms, norms, rtol=1e-12, atol=0.0)
        # a difference near picard_tol moves by the roundoff floor of the iterates
        scale = 1e-12 * max(norms)
        np.testing.assert_allclose(report.differences, differences, rtol=0.0, atol=scale)

    def test_one_load_assembly_per_run(self, monkeypatch):
        calls = []
        original = jmgt_lab.integrate.assemble_loads

        def counting(*args, **kwargs):
            calls.append(len(args[5]))
            return original(*args, **kwargs)

        monkeypatch.setattr(jmgt_lab.integrate, "assemble_loads", counting)
        basis, params, source, sig, config = self.setup(BoundaryKind.PURE_NEUMANN)
        _, report = solve_jmgt(params, basis, source, sig, config)
        assert report.iterations > 2
        assert calls == [config.n_steps + 1]
        solve_smgt_linear(params, basis, constant_field(1.0), source, sig, config)
        solve_westervelt_linearized(params, basis, constant_field(1.0), source, sig, config)
        assert calls == [config.n_steps + 1] * 3


def record_warnings(run):
    """(result or raised SolverFailure, messages of the RuntimeWarnings it emitted, in order)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = run()
        except SolverFailure as exc:
            outcome = exc
    return outcome, [str(item.message) for item in caught if item.category is RuntimeWarning]


def one_after_another(members, *args):
    """The members solved one by one through solve_jmgt, stopping at the first failure."""
    runs = []
    for params in members:
        try:
            runs.append(solve_jmgt(params, *args))
        except SolverFailure as exc:
            return exc
    return runs


class TestLockstep:
    """Members stepped in lockstep against the same members solved one after another."""

    TAUS = (0.3, 0.1, 0.01, 0.001)  # 7, 9, 14 and 18 iterations

    @staticmethod
    def setup(amplitude=1.5, n=6, dt=1 / 50, t_final=1.0, picard_max=30, decay=1.0):
        basis = build_basis(L, n)
        sig = WindowedSignal(amplitude, 2.0, 5, decay)
        config = SolverConfig(
            dt=dt, t_final=t_final, n_modes=n, picard_tol=1e-10, picard_max=picard_max
        )
        return basis, sig, config

    @staticmethod
    def members(taus, delta=0.8, beta=0.5):
        return [ModelParams(c2=1.0, delta=delta, tau=tau, k=0.4, beta=beta) for tau in taus]

    @pytest.mark.parametrize("bc", list(BoundaryKind), ids=lambda bc: bc.value)
    @pytest.mark.parametrize(
        "variant",
        [NonlinearVariant.FULL_JMGT, NonlinearVariant.RELAXED_JMGT],
        ids=lambda v: v.value,
    )
    def test_members_equal_lone_runs(self, variant, bc):
        basis, sig, config = self.setup()
        members = self.members(self.TAUS)
        args = (basis, None, sig, config, bc, variant)
        batch = jmgt_lab.nonlinear._picard_loop
        runs, warned = record_warnings(lambda: batch(members, *args))
        expected, expected_warned = record_warnings(lambda: one_after_another(members, *args))
        assert len({report.iterations for _, report in runs}) == len(members)
        assert warned == expected_warned
        for (traj, report), (lone, lone_report) in zip(runs, expected):
            for name in ("times", "coeff", "coeff_t", "coeff_tt", "coeff_ttt"):
                assert np.array_equal(getattr(traj, name), getattr(lone, name)), name
            assert traj.params == lone.params and traj.bc is lone.bc
            assert vars(report) == vars(lone_report)

    #: a strong drive of n = 8 runs to T = 2 (k = 0.4, delta = 1, decay rate 2), by amplitude
    STRONG = dict(n=8, dt=0.01, t_final=2.0, decay=2.0)

    @pytest.mark.parametrize(
        "drive, delta, taus, failing",
        [
            # tau = 0.003 loses positivity at iteration 2, before tau = 0.001 does at iteration 3
            (dict(STRONG, amplitude=4.4), 1.0, (0.3, 0.001, 0.003), 1),
            # tau = 0.1 loses positivity at iteration 3; tau = 0.3 converges in 11
            (dict(STRONG, amplitude=4.2), 1.0, (0.3, 0.1), 1),
            # the cap stops tau = 0.01 and tau = 0.001, while tau = 0.1 converges at it
            (dict(picard_max=9), 0.8, TAUS, 2),
            # tau = 0.003 loses positivity at iteration 2; tau = 0.3 runs on to the cap at 5
            (dict(STRONG, amplitude=4.4, picard_max=5), 1.0, (0.3, 0.003), 0),
        ],
        ids=[
            "earlier-member-fails-later",
            "later-member-fails-alone",
            "iteration-cap",
            "cap-beats-later-failure",
        ],
    )
    def test_first_failing_member_wins(self, drive, delta, taus, failing):
        basis, sig, config = self.setup(**drive)
        members = self.members(taus, delta, beta=0.0)
        args = (basis, None, sig, config, BoundaryKind.PURE_NEUMANN, NonlinearVariant.FULL_JMGT)
        batch = jmgt_lab.nonlinear._picard_loop
        failure, warned = record_warnings(lambda: batch(members, *args))
        expected, expected_warned = record_warnings(lambda: one_after_another(members, *args))
        lone, _ = record_warnings(lambda: solve_jmgt(members[failing], *args))
        assert isinstance(expected, SolverFailure)
        assert type(failure) is type(expected) is type(lone)
        assert str(failure) == str(expected) == str(lone)
        assert vars(failure) == vars(expected)
        assert warned == expected_warned

    def test_stacked_singular_step_is_attributed_to_its_own_member(self):
        # with alpha = 0 the second-order step matrix has a zero row (mode 0 carries no
        # stiffness); member 1 hits it at step 6, member 2 hits a NaN alpha at step 3, and
        # member 0's alpha halves at step 5, so every member's mass changes
        basis = build_basis(L, 4)
        config = SolverConfig(dt=0.1, t_final=1.0, n_modes=4)
        members = [ModelParams(c2=1.0, delta=delta, tau=0.0) for delta in (1.0, 0.8, 0.6)]

        def source(x, t):
            return np.cos(np.asarray(x, dtype=float)) + t

        members, quad, loads = jmgt_lab.integrate._prepare_data(
            2, members, basis, source, None, config, BoundaryKind.PURE_NEUMANN
        )
        alpha = np.ones((3, config.n_steps + 1, quad.count))
        alpha[0, 5:] = 0.5
        alpha[1, 6:] = 0.0
        alpha[2, 3:] = np.nan
        trajectories, failure = jmgt_lab.integrate._integrate(
            2, members, basis, TimeVaryingMass(basis, quad, alpha), loads, config,
            BoundaryKind.PURE_NEUMANN,
        )

        def field_of(row):
            return CoefficientField(
                value=lambda x, t: np.full_like(np.asarray(x, dtype=float), row[round(t / 0.1)])
            )

        alone = []
        for params, rows in zip(members[1:], alpha[1:]):
            with pytest.raises(SingularStepMatrixError) as info:
                solve_westervelt_linearized(
                    params, basis, field_of(rows[:, 0]), source, None, config
                )
            alone.append(info.value)
        assert (alone[0].step, alone[1].step) == (6, 3)
        assert isinstance(failure, SingularStepMatrixError)
        assert (failure.step, failure.time) == (alone[0].step, alone[0].time)
        assert type(failure.__cause__) is type(alone[0].__cause__) is np.linalg.LinAlgError
        [traj] = trajectories
        lone = solve_westervelt_linearized(
            members[0], basis, field_of(alpha[0, :, 0]), source, None, config
        )
        assert np.array_equal(traj.coeff, lone.coeff)
        assert np.array_equal(traj.coeff_tt, lone.coeff_tt)

    @staticmethod
    def failing_batch(alpha_rows):
        """The second-order batch of ``alpha_rows`` (one per member) and its _integrate result."""
        basis = build_basis(L, 4)
        config = SolverConfig(dt=0.1, t_final=1.0, n_modes=4)
        deltas = 1.0 - 0.2 * np.arange(len(alpha_rows))
        members = [ModelParams(c2=1.0, delta=delta, tau=0.0) for delta in deltas]
        members, quad, loads = jmgt_lab.integrate._prepare_data(
            2, members, basis, lambda x, t: np.cos(x) + t, None, config, BoundaryKind.PURE_NEUMANN
        )
        alpha = np.repeat(np.asarray(alpha_rows, dtype=float)[:, :, None], quad.count, axis=2)
        return jmgt_lab.integrate._integrate(
            2, members, basis, TimeVaryingMass(basis, quad, alpha), loads, config,
            BoundaryKind.PURE_NEUMANN,
        )

    def test_a_failing_batch_is_integrated_once(self, monkeypatch):
        # the batch of the test above: the first failing member is read off the stepped batch,
        # and the member before it is not integrated again
        calls = []
        original = jmgt_lab.integrate._integrate

        def integrate(order, members, *rest):
            calls.append(len(members))
            return original(order, members, *rest)

        monkeypatch.setattr(jmgt_lab.integrate, "_integrate", integrate)
        rows = np.ones((3, 11))
        rows[1, 6:] = 0.0
        rows[2, 3:] = np.nan
        trajectories, failure = self.failing_batch(rows)
        assert calls == [3]
        assert len(trajectories) == 1
        assert (failure.step, type(failure.__cause__)) == (6, np.linalg.LinAlgError)

    def test_a_singular_step_after_a_nan_step_is_not_the_cause(self):
        # member 1's alpha is NaN from step 3 and zero from step 6: run alone, it fails
        # at step 3 with no LinAlgError behind it, and so it does in the batch
        rows = np.ones((2, 11))
        rows[1, 3:6] = np.nan
        rows[1, 6:] = 0.0
        for batch in (rows, rows[1:]):
            trajectories, failure = self.failing_batch(batch)
            assert len(trajectories) == len(batch) - 1
            assert (failure.step, failure.__cause__) == (3, None)

    def test_singular_step_in_a_round_stops_at_its_member(self, monkeypatch):
        # the window of rounds 2 and 3 reports a singular step for member 2 (the third of
        # five) in round 2: the members before it iterate on to convergence, the ones after
        # it stop, and the warnings are those of members 0 and 1 run alone (member 2's one
        # margin, 0.277, is above the 0.1 warning level)
        study = AMPLITUDE_FOUR_STUDY.replace("amplitude = 4.0", "amplitude = 3.85")
        config = parse_config_text(study)
        members = [replace(config.params, tau=tau) for tau in config.tau_sweep]
        basis = build_basis(config.length, config.solver.n_modes)
        args = (basis, None, config.signal, config.solver, config.bc, NonlinearVariant.FULL_JMGT)
        lone = [record_warnings(lambda: solve_jmgt(params, *args))[1] for params in members[:2]]
        batch_sizes = []
        original = jmgt_lab.nonlinear._integrate

        def integrate(order, batch, *rest):
            batch_sizes.append((len(batch), rest[-1]))
            trajectories, failure = original(order, batch, *rest)
            if len(batch_sizes) == 2:
                # rows 0 and 1 are round 2 of members 0 and 1; row 2 fails
                return trajectories[:2], SingularStepMatrixError(7, 0.035)
            return trajectories, failure

        monkeypatch.setattr(jmgt_lab.nonlinear, "_integrate", integrate)
        failure, warned = record_warnings(lambda: jmgt_lab.nonlinear._picard_loop(members, *args))
        assert isinstance(failure, SingularStepMatrixError)
        assert (failure.step, failure.time) == (7, 0.035)
        # (members, rounds) of each step loop: round 1, the window of rounds 2 and 3, then
        # members 0 and 1 from round 3 on (they converge at 13 and 16)
        assert batch_sizes == [(5, 1), (5, 2)] + [(2, 5)] * 3
        assert (len(lone[0]), len(lone[1])) == (10, 14)
        assert warned == lone[0] + lone[1]


class TestWindowedRounds:
    """Windows of Picard rounds stepped together against one step loop per round.

    The oracle is ``helpers.round_by_round_picard``; every member's trajectory,
    report, failure and warnings must be the same, bit for bit.
    """

    TAUS = (0.3, 0.1, 0.03, 0.01, 0.001)
    VARIANTS = pytest.mark.parametrize("variant", list(NonlinearVariant), ids=lambda v: v.value)
    BCS = pytest.mark.parametrize("bc", list(BoundaryKind), ids=lambda bc: bc.value)

    @staticmethod
    def members(taus, variant, bc, k=0.4):
        # the Westervelt members differ only in delta, so they take different iteration counts
        beta = 0.5 if bc is BoundaryKind.MIXED else 0.0
        deltas = [0.8] * len(taus)
        if variant is NonlinearVariant.WESTERVELT:
            deltas = [0.8 - 0.1 * index for index in range(len(taus))]
        return [
            ModelParams(c2=1.0, delta=delta, tau=tau, k=k, beta=beta)
            for tau, delta in zip(taus, deltas)
        ]

    @staticmethod
    def windows(monkeypatch):
        """(members, rounds) of every step loop of the windowed run, appended as it runs."""
        calls = []
        original = jmgt_lab.nonlinear._integrate

        def integrate(order, batch, *rest):
            calls.append((len(batch), rest[-1]))
            return original(order, batch, *rest)

        monkeypatch.setattr(jmgt_lab.nonlinear, "_integrate", integrate)
        return calls

    @staticmethod
    def assert_same(windowed, oracle):
        (outcome, warned), (expected, expected_warned) = windowed, oracle
        assert warned == expected_warned
        if isinstance(expected, SolverFailure):
            assert type(outcome) is type(expected)
            assert str(outcome) == str(expected)
            assert vars(outcome) == vars(expected)
            return
        for (traj, report), (lone, lone_report) in zip(outcome, expected, strict=True):
            for name in ("times", "coeff", "coeff_t", "coeff_tt", "coeff_ttt"):
                got, want = getattr(traj, name), getattr(lone, name)
                assert (got is None) == (want is None), name
                assert want is None or np.array_equal(got, want), name
            assert traj.params == lone.params and traj.bc is lone.bc
            assert vars(report) == vars(lone_report)

    def run_both(self, members, args):
        batch = jmgt_lab.nonlinear._picard_loop
        windowed = record_warnings(lambda: batch(members, *args))
        oracle = record_warnings(lambda: round_by_round_picard(members, *args))
        self.assert_same(windowed, oracle)
        return windowed[0]

    @VARIANTS
    @BCS
    def test_a_member_converging_at_a_window_first_round(self, monkeypatch, variant, bc):
        calls = self.windows(monkeypatch)
        basis = build_basis(L, 6)
        sig = WindowedSignal(1.5, 2.0, 5, 1.0)
        config = SolverConfig(dt=1 / 50, t_final=1.0, n_modes=6, picard_tol=1e-10)
        members = self.members(self.TAUS, variant, bc)
        runs = self.run_both(members, (basis, None, sig, config, bc, variant))
        # the first round of each step loop; rounds 2 on come in windows
        firsts = list(np.cumsum([1] + [rounds for _, rounds in calls[:-1]]))
        assert [rounds for _, rounds in calls[1:]] == [
            min(max(2, jmgt_lab.nonlinear._WINDOW_ROWS // size), config.picard_max - first + 1)
            for (size, _), first in zip(calls[1:], firsts[1:])
        ]
        iterations = [report.iterations for _, report in runs]
        assert len(set(iterations)) > 1
        assert set(iterations) & set(firsts[1:])

    @VARIANTS
    @BCS
    def test_amplitude_four_study(self, variant, bc):
        # FULL_JMGT under neumann: tau = 0.03 loses positivity at iteration 4, the first
        # round of a window of two, so the window's round 5 rows of the members after it
        # are discarded and tau = 0.1's is kept
        study = AMPLITUDE_FOUR_STUDY
        if bc is BoundaryKind.MIXED:
            study = study.replace("bc = neumann", "bc = mixed").replace("beta = 0.0", "beta = 0.5")
        config = parse_config_text(study)
        members = [replace(config.params, tau=tau) for tau in config.tau_sweep]
        basis = build_basis(config.length, config.solver.n_modes)
        args = (basis, None, config.signal, config.solver, config.bc, variant)
        outcome = self.run_both(members, args)
        if variant is NonlinearVariant.FULL_JMGT and bc is BoundaryKind.PURE_NEUMANN:
            assert isinstance(outcome, NonDegeneracyViolated)
            assert outcome.iteration == 4

    @VARIANTS
    @BCS
    def test_iteration_cap(self, monkeypatch, variant, bc):
        # the cap of 9 stops the window that would run past it: after round 7 three
        # members are left, whose window of three rounds is cut to rounds 8 and 9
        calls = self.windows(monkeypatch)
        basis = build_basis(L, 6)
        sig = WindowedSignal(1.5, 2.0, 5, 1.0)
        config = SolverConfig(dt=1 / 50, t_final=1.0, n_modes=6, picard_tol=1e-10, picard_max=9)
        members = self.members((0.3, 0.1, 0.01, 0.001), variant, bc)
        outcome = self.run_both(members, (basis, None, sig, config, bc, variant))
        assert isinstance(outcome, PicardDivergenceError)
        assert len(outcome.differences) == config.picard_max
        assert sum(rounds for _, rounds in calls) == config.picard_max
        if variant is not NonlinearVariant.WESTERVELT:
            assert calls[-1] == (3, 2)

    def test_a_discarded_row_that_fails_is_stepped_again(self, monkeypatch):
        # tau = 0.3 converges at 7, the first round of the window of rounds 7 to 11; a
        # singular step in its discarded round-8 row cuts off tau = 0.1's round-8 row, so
        # round 8 is stepped again in a window of its own, and nothing is reported
        calls = []
        original = jmgt_lab.nonlinear._integrate

        def integrate(order, batch, *rest):
            calls.append((len(batch), rest[-1]))
            trajectories, failure = original(order, batch, *rest)
            if len(calls) == 3:
                return trajectories[:2], SingularStepMatrixError(7, 0.14)
            return trajectories, failure

        monkeypatch.setattr(jmgt_lab.nonlinear, "_integrate", integrate)
        basis = build_basis(L, 6)
        sig = WindowedSignal(1.5, 2.0, 5, 1.0)
        config = SolverConfig(dt=1 / 50, t_final=1.0, n_modes=6, picard_tol=1e-10)
        bc, variant = BoundaryKind.PURE_NEUMANN, NonlinearVariant.FULL_JMGT
        members = self.members((0.3, 0.1), variant, bc)
        runs = self.run_both(members, (basis, None, sig, config, bc, variant))
        assert [report.iterations for _, report in runs] == [7, 9]
        assert calls[:4] == [(2, 1), (2, 5), (2, 5), (1, 10)]
