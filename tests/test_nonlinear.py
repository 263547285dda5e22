import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jmgt_lab.integrate
import jmgt_lab.nonlinear
from jmgt_lab import (
    BoundaryKind,
    ModelParams,
    NonDegeneracyViolated,
    NonlinearVariant,
    PicardDivergenceError,
    SolverConfig,
    Trajectory,
    WindowedSignal,
    build_basis,
    clamp_h,
    constant_field,
    degeneracy_check,
    field_from_trajectory,
    solve_jmgt,
    solve_smgt_linear,
    solve_westervelt_linearized,
    solve_westervelt_nonlinear,
    trajectory_distance,
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
    def test_zero_trajectory_margin_one(self):
        basis, params, _, config = small_setup()
        from jmgt_lab import zero_trajectory

        traj = zero_trajectory(params, basis, config)
        assert degeneracy_check(traj, basis, params.k) == 1.0

    def test_zero_nonlinearity_margin_one(self):
        basis, params, sig, config = small_setup(k=0.0)
        traj, _ = solve_jmgt(params, basis, None, sig, config)
        assert degeneracy_check(traj, basis, 0.0) == 1.0

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
        margin = degeneracy_check(traj, basis, params.k, eval_grid=4096)
        assert margin == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("eval_grid", [1, 0])
    def test_grid_without_both_ends_rejected(self, eval_grid):
        basis, params, _, config = small_setup(n=4)
        traj = zero_trajectory(params, basis, config)
        with pytest.raises(ValueError, match="eval_grid must be at least 2"):
            degeneracy_check(traj, basis, params.k, eval_grid=eval_grid)


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

    def test_jmgt_requires_positive_tau(self):
        basis, params, sig, config = small_setup()
        zero_tau = ModelParams(c2=1.0, delta=1.0, tau=0.0, k=0.4)
        with pytest.raises(ValueError):
            solve_jmgt(zero_tau, basis, None, sig, config)


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
    def test_bit_identical_to_the_callable_loop(self, variant, bc):
        basis, params, source, sig, config = self.setup(bc)
        traj, report = solve_jmgt(params, basis, source, sig, config, bc, variant)
        expected, differences, norms = callable_picard(
            params, basis, source, sig, config, bc, variant
        )
        for name in ("times", "coeff", "coeff_t", "coeff_tt"):
            assert np.array_equal(getattr(traj, name), getattr(expected, name)), name
        if variant is NonlinearVariant.WESTERVELT:
            assert traj.coeff_ttt is None and expected.coeff_ttt is None
        else:
            assert np.array_equal(traj.coeff_ttt, expected.coeff_ttt)
        assert report.differences == differences
        assert report.iterate_norms == norms

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
