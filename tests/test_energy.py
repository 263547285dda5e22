import math
from dataclasses import MISSING, fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jmgt_lab import (
    AuditMode,
    BoundaryKind,
    HigherEnergy,
    InconsistentEnergyError,
    LowerEnergy,
    ModelParams,
    NonFiniteNormError,
    SolverConfig,
    Trajectory,
    WindowedSignal,
    audit_estimate,
    boundary_flux,
    build_basis,
    constant_field,
    data_norms,
    energy_higher,
    energy_lower,
    solve_smgt_linear,
    solve_westervelt_linearized,
    trajectory_distance,
)
from jmgt_lab.energy import trapezoid_running, trapezoid_total
from helpers import manufactured_run, zero_trajectory

L = math.pi
MODE_AMP = math.sqrt(math.pi / 2.0)


def synthetic_trajectory(basis, config, params, fill):
    steps = config.n_steps
    times = config.dt * np.arange(steps + 1)
    shape = (steps + 1, basis.n)
    arrays = {name: np.zeros(shape) for name in ("coeff", "coeff_t", "coeff_tt", "coeff_ttt")}
    fill(times, arrays)
    return Trajectory(
        times=times,
        coeff=arrays["coeff"],
        coeff_t=arrays["coeff_t"],
        coeff_tt=arrays["coeff_tt"],
        coeff_ttt=arrays["coeff_ttt"],
        bc=BoundaryKind.PURE_NEUMANN,
        params=params,
    )


class TestEnergyLower:
    def test_zero_trajectory_all_zero(self):
        basis = build_basis(L, 4)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1)
        config = SolverConfig(dt=0.01, t_final=0.2, n_modes=4)
        record = energy_lower(zero_trajectory(params, basis, config), basis)
        assert np.abs(record.low).max() == 0.0
        assert record.dual_accum[-1] == 0.0
        assert record.tt_accum[-1] == 0.0

    def test_single_mode_quadratic_coefficient(self):
        # xi_1(t) = t^2 gives |psi_t|_H1^2 = (1 + lambda_1) (2t)^2 = 8 t^2
        basis = build_basis(L, 4)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1)
        config = SolverConfig(dt=0.01, t_final=1.0, n_modes=4)

        def fill(times, arrays):
            arrays["coeff"][:, 1] = times**2
            arrays["coeff_t"][:, 1] = 2.0 * times
            arrays["coeff_tt"][:, 1] = 2.0

        traj = synthetic_trajectory(basis, config, params, fill)
        record = energy_lower(traj, basis)
        np.testing.assert_allclose(record.sq_t_h1, 8.0 * traj.times**2, rtol=1e-13)

    def test_manufactured_closed_forms(self):
        # xi_1 = MODE_AMP t^3 with lambda_1 = 1:
        #   |psi_tt|_L2^2 = 18 pi t^2        A_tt = 6 pi T^3
        #   |psi_t|_H1^2 = 9 pi t^4          A_dual = 9 pi tau^2 T
        params = ModelParams(c2=1.0, delta=0.05, tau=0.1)
        errors = []
        for dt in (1 / 100, 1 / 200):
            basis, traj = manufactured_run(params, dt)
            record = energy_lower(traj, basis)
            horizon = traj.times[-1]
            rel = lambda a, b: abs(a - b) / abs(b)
            errors.append(
                max(
                    rel(record.sq_tt_l2[-1], 18.0 * math.pi * horizon**2),
                    rel(record.sq_t_h1[-1], 9.0 * math.pi * horizon**4),
                    rel(record.tt_accum[-1], 6.0 * math.pi * horizon**3),
                    rel(record.dual_accum[-1], 9.0 * math.pi * params.tau**2 * horizon),
                )
            )
        assert errors[1] < 1e-3
        assert 3.0 <= errors[0] / errors[1] <= 5.0

    def test_accumulators_monotone_and_nonnegative(self):
        basis = build_basis(L, 6)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1)
        config = SolverConfig(dt=0.01, t_final=1.0, n_modes=6)
        sig = WindowedSignal(0.5, 2.0, 5, 1.0)
        traj = solve_smgt_linear(params, basis, constant_field(1.0), None, sig, config)
        record = energy_lower(traj, basis)
        for series in (record.low, record.dual_accum, record.tt_accum):
            assert np.all(series >= 0.0)
        assert np.all(np.diff(record.dual_accum) >= 0.0)
        assert np.all(np.diff(record.tt_accum) >= 0.0)


class TestEnergyHigher:
    def test_zero_trajectory(self):
        basis = build_basis(L, 4)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1)
        config = SolverConfig(dt=0.01, t_final=0.2, n_modes=4)
        record = energy_higher(zero_trajectory(params, basis, config), basis)
        assert np.abs(record.high).max() == 0.0

    def test_laplacian_norm_is_eigenvalue_weighted(self):
        # xi supported on mode 2 with xi_2' = 1: |Delta psi_t|^2 = lambda_2^2 = 16
        basis = build_basis(L, 4)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1)
        config = SolverConfig(dt=0.01, t_final=0.5, n_modes=4)

        def fill(times, arrays):
            arrays["coeff_t"][:, 2] = 1.0

        record = energy_higher(synthetic_trajectory(basis, config, params, fill), basis)
        np.testing.assert_allclose(record.sq_lap_t, 16.0, rtol=1e-14)

    def test_manufactured_closed_forms(self):
        # sq_grad_tt = 18 pi t^2, sq_lap_t = 4.5 pi t^4,
        # tt_h1_accum = 12 pi T^3, ttt_l2_accum = 18 pi tau^2 T
        params = ModelParams(c2=1.0, delta=0.05, tau=0.1)
        basis, traj = manufactured_run(params, 1 / 200)
        record = energy_higher(traj, basis)
        horizon = traj.times[-1]
        assert record.sq_grad_tt[-1] == pytest.approx(18.0 * math.pi * horizon**2, rel=1e-3)
        assert record.sq_lap_t[-1] == pytest.approx(4.5 * math.pi * horizon**4, rel=1e-3)
        assert record.tt_h1_accum[-1] == pytest.approx(12.0 * math.pi * horizon**3, rel=1e-3)
        assert record.ttt_l2_accum[-1] == pytest.approx(
            18.0 * math.pi * params.tau**2 * horizon, rel=1e-3
        )


class TestRecordWeights:
    """Sobolev weights of the energy records on fields constant in time."""

    def records(self, vec, tau=0.1):
        basis = build_basis(L, len(vec))
        params = ModelParams(c2=1.0, delta=1.0, tau=tau)
        config = SolverConfig(dt=0.01, t_final=1.0, n_modes=len(vec))

        def fill(times, arrays):
            for series in arrays.values():
                series[:] = vec

        traj = synthetic_trajectory(basis, config, params, fill)
        return energy_lower(traj, basis), energy_higher(traj, basis)

    def sq_dual(self, lower):
        # dual_accum = tau^2 * T * |psi_ttt|^2_(H1)* on a constant field, T = 1
        return lower.dual_accum[-1] / lower.tau**2

    def test_constant_mode_weights(self):
        lower, higher = self.records(np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(lower.sq_tt_l2, 1.0)
        np.testing.assert_array_equal(lower.sq_t_h1, 1.0)
        assert self.sq_dual(lower) == pytest.approx(1.0, rel=1e-13)
        np.testing.assert_array_equal(higher.sq_lap_t, 0.0)

    def test_second_mode_weights(self):
        # lambda_2 = 4 on [0, pi]
        lower, higher = self.records(np.array([0.0, 0.0, 1.0, 0.0]))
        np.testing.assert_allclose(lower.sq_t_h1, 5.0, rtol=1e-15)
        np.testing.assert_allclose(higher.sq_tt_h1, 5.0, rtol=1e-15)
        assert self.sq_dual(lower) == pytest.approx(1.0 / 5.0, rel=1e-13)

    @given(st.lists(st.floats(-10, 10), min_size=5, max_size=5))
    @example([2.1248770311675822e-157, 0.0, 0.0, 0.0, 0.0])  # squares below the normal range
    @settings(max_examples=50, deadline=None)
    def test_scale_ordering(self, values):
        lower, _ = self.records(np.asarray(values))
        dual, l2, h1 = self.sq_dual(lower), lower.tt_accum[-1], lower.sq_t_h1[-1]

        def bound(b):
            # relative slack for normal numbers; subnormal ones keep fewer digits, so their
            # slack is relative to the smallest normal number instead
            return b + 1e-12 * max(b, np.finfo(float).tiny)

        assert dual <= bound(l2)
        assert l2 <= bound(h1)

    def test_dual_term_is_exact_dual_of_h1_on_span(self):
        # maximize the L2 pairing over (a dense grid of) unit-H1 vectors
        xi = np.array([0.7, -1.3, 0.4])
        lower, _ = self.records(xi)
        dual = math.sqrt(self.sq_dual(lower))
        thetas = np.linspace(0.0, math.pi, 181)
        phis = np.linspace(0.0, 2.0 * math.pi, 361)
        theta_grid, phi_grid = np.meshgrid(thetas, phis, indexing="ij")
        directions = np.stack(
            [
                np.sin(theta_grid) * np.cos(phi_grid),
                np.sin(theta_grid) * np.sin(phi_grid),
                np.cos(theta_grid),
            ],
            axis=-1,
        ).reshape(-1, 3)
        h1_weights = 1.0 + build_basis(L, 3).eigenvalues
        h1_norms = np.sqrt((directions**2 * h1_weights).sum(axis=1))
        pairings = np.abs(directions @ xi) / h1_norms
        assert pairings.max() <= dual * (1 + 1e-12)
        assert pairings.max() >= 0.999 * dual


class TestBoundaryFlux:
    def mixed_run(self, beta=0.5):
        basis = build_basis(L, 6)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1, beta=beta)
        config = SolverConfig(dt=0.01, t_final=1.0, n_modes=6)
        sig = WindowedSignal(0.5, 2.0, 5, 1.0)
        traj = solve_smgt_linear(
            params, basis, constant_field(1.0), None, sig, config, BoundaryKind.MIXED
        )
        return basis, params, traj

    def test_zero_beta_scales_flux_to_zero(self):
        basis, _, traj = self.mixed_run(beta=0.0)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1, beta=0.0)
        flux = boundary_flux(traj, params, basis)
        assert np.abs(flux.acceleration_flux_accum).max() == 0.0
        assert np.abs(flux.velocity_flux_max).max() == 0.0

    def test_constant_mode_trace_closed_form(self):
        # xi_0'(t) = t: |tr psi_t|^2 = t^2 / L, increasing, so its running max
        # scaled by b*beta is b*beta*t^2 / L
        basis = build_basis(L, 3)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1, beta=1.0)
        config = SolverConfig(dt=0.01, t_final=1.0, n_modes=3)

        def fill(times, arrays):
            arrays["coeff_t"][:, 0] = times

        traj = synthetic_trajectory(basis, config, params, fill)
        traj.bc = BoundaryKind.MIXED
        flux = boundary_flux(traj, params, basis)
        expected = params.b * params.beta * traj.times**2 / L
        np.testing.assert_allclose(flux.velocity_flux_max, expected, rtol=1e-13)

    def test_accumulator_matches_reintegration(self):
        basis, params, traj = self.mixed_run()
        flux = boundary_flux(traj, params, basis)
        # psi_tt at the absorbing end x = L, where the cosine mode i equals
        # sqrt(c_i / L) * (-1)^i with c_0 = 1 and c_i = 2 otherwise
        scale = np.sqrt(np.where(np.arange(basis.n) == 0, 1.0, 2.0) / L)
        trace_tt = traj.coeff_tt @ (scale * (-1.0) ** np.arange(basis.n))
        oracle = params.c2 * params.beta * trapezoid_running(trace_tt**2, traj.dt)
        np.testing.assert_allclose(flux.acceleration_flux_accum, oracle, atol=1e-12)
        assert np.all(np.diff(flux.velocity_flux_max) >= 0.0)

    def test_pure_neumann_yields_no_flux(self):
        basis = build_basis(L, 4)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1)
        config = SolverConfig(dt=0.01, t_final=0.2, n_modes=4)
        flux = boundary_flux(zero_trajectory(params, basis, config), params, basis)
        assert flux is None


class TestDataNorms:
    def config(self, dt=5e-4, t_final=4.0):
        return SolverConfig(dt=dt, t_final=t_final, n_modes=4)

    def test_zero_data_zero_bundle(self):
        bundle = data_norms(None, self.config(dt=0.01, t_final=1.0))
        assert len(bundle.signal_sup) == len(bundle.signal_l2) == 4
        assert all(value == 0.0 for value in bundle.signal_sup + bundle.signal_l2)

    def test_amplitude_doubling_doubles_every_norm(self):
        config = self.config(dt=0.01, t_final=2.0)
        base = data_norms(WindowedSignal(0.7, 2.0, 5, 1.0), config)
        doubled = data_norms(WindowedSignal(1.4, 2.0, 5, 1.0), config)
        for a, b in zip(base.signal_sup, doubled.signal_sup):
            assert b == 2.0 * a
        for a, b in zip(base.signal_l2, doubled.signal_l2):
            assert b == pytest.approx(2.0 * a, rel=1e-14)

    def test_against_dense_grid_oracle(self):
        sig = WindowedSignal(1.0, 2.0, 5, 1.0)
        config = self.config()
        bundle = data_norms(sig, config)
        from jmgt_lab import signal_eval

        dense = np.linspace(0.0, 4.0, 10 * config.n_steps + 1)
        for order in range(4):
            series = signal_eval(sig, dense, order)
            sup = np.abs(series).max()
            l2 = math.sqrt(np.trapezoid(series**2, dense))
            assert bundle.signal_sup[order] == pytest.approx(sup, rel=1e-6)
            assert bundle.signal_l2[order] == pytest.approx(l2, rel=1e-6)


class TestAudit:
    def run_with_tau(self, tau, t_final=1.0, amplitude=0.2):
        basis = build_basis(L, 8)
        params = ModelParams(c2=1.0, delta=1.0, tau=tau)
        config = SolverConfig(dt=1 / 100, t_final=t_final, n_modes=8)
        sig = WindowedSignal(amplitude, 2.0, 5, 1.0)
        traj = solve_smgt_linear(params, basis, constant_field(1.0), None, sig, config)
        lower = energy_lower(traj, basis)
        higher = energy_higher(traj, basis)
        bundle = data_norms(sig, config)
        return lower, higher, bundle

    def test_zero_data_zero_energy_ratio_is_zero(self):
        basis = build_basis(L, 4)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1)
        config = SolverConfig(dt=0.01, t_final=1.0, n_modes=4)
        record = energy_lower(zero_trajectory(params, basis, config), basis)
        bundle = data_norms(None, config)
        report = audit_estimate(record, bundle, AuditMode.TAU_UNIFORM)
        assert report.ratio == 0.0

    def test_zero_data_nonzero_energy_is_inconsistent(self):
        lower, _, _ = self.run_with_tau(0.1)
        zero_bundle = data_norms(None, SolverConfig(dt=0.01, t_final=1.0, n_modes=8))
        with pytest.raises(InconsistentEnergyError):
            audit_estimate(lower, zero_bundle, AuditMode.TAU_UNIFORM)

    @pytest.mark.parametrize("mode", list(AuditMode))
    def test_a_data_total_that_overflows_is_a_solver_failure(self, mode):
        # the squares of a 1e160 drive overflow a double: a failure, not an OverflowError
        lower, higher, _ = self.run_with_tau(0.1)
        config = SolverConfig(dt=0.01, t_final=1.0, n_modes=8)
        record = higher if mode is AuditMode.HIGHER else lower
        with np.errstate(over="ignore", invalid="ignore"):
            bundle = data_norms(WindowedSignal(1e160, 2.0, 5, 1.0), config)
            with pytest.raises(NonFiniteNormError) as info:
                audit_estimate(record, bundle, mode)
        assert info.value.quantity == f"the data side of the {mode.value} audit"
        assert not math.isfinite(info.value.value)

    def test_tau_uniform_ratio_stable_across_sweep(self):
        ratios = []
        for tau in (1e-1, 1e-2, 1e-3):
            lower, _, bundle = self.run_with_tau(tau)
            ratios.append(audit_estimate(lower, bundle, AuditMode.TAU_UNIFORM).ratio)
        assert max(ratios) / ratios[0] <= 2.0

    def test_tau_dependent_constant_flagged_for_small_tau(self):
        flagged = {}
        for tau in (1e-1, 1e-2, 1e-3):
            lower, _, bundle = self.run_with_tau(tau)
            report = audit_estimate(lower, bundle, AuditMode.TAU_DEPENDENT)
            flagged[tau] = "constant not tau-robust" in report.flags
        assert flagged == {1e-1: False, 1e-2: False, 1e-3: True}

    def test_higher_mode_uses_higher_record(self):
        _, higher, bundle = self.run_with_tau(0.1)
        report = audit_estimate(higher, bundle, AuditMode.HIGHER)
        assert report.ratio > 0.0
        assert report.log_constant is None


class TestRecordModes:
    """Each record names the audits it serves and answers only those."""

    basis = build_basis(L, 6)
    config = SolverConfig(dt=0.01, t_final=0.5, n_modes=6)
    drive = WindowedSignal(0.3, 2.0, 5, 1.0)
    params = ModelParams(c2=1.0, delta=1.0, tau=0.1)

    def smgt_run(self):
        return solve_smgt_linear(
            self.params, self.basis, constant_field(1.0), None, self.drive, self.config
        )

    def test_third_order_records_serve_the_three_audits_in_mode_order(self):
        traj = self.smgt_run()
        lower, higher = energy_lower(traj, self.basis), energy_higher(traj, self.basis)
        assert lower.modes == (AuditMode.TAU_DEPENDENT, AuditMode.TAU_UNIFORM)
        assert higher.modes == (AuditMode.HIGHER,)
        assert (*lower.modes, *higher.modes) == tuple(AuditMode)
        for record in (lower, higher):
            for mode in record.modes:
                assert math.isfinite(record.total(mode)) and record.total(mode) > 0.0

    def test_each_record_rejects_the_other_records_modes(self):
        traj = self.smgt_run()
        with pytest.raises(ValueError):
            energy_lower(traj, self.basis).total(AuditMode.HIGHER)
        for mode in (AuditMode.TAU_DEPENDENT, AuditMode.TAU_UNIFORM):
            with pytest.raises(ValueError):
                energy_higher(traj, self.basis).total(mode)

    def test_westervelt_lower_record_has_no_tau_dependent_side(self):
        traj = solve_westervelt_linearized(
            self.params, self.basis, constant_field(1.0), None, self.drive, self.config
        )
        lower = energy_lower(traj, self.basis)
        assert lower.modes == (AuditMode.TAU_UNIFORM,)
        with pytest.raises(ValueError):
            lower.total(AuditMode.TAU_DEPENDENT)
        bundle = data_norms(self.drive, self.config)
        with pytest.raises(ValueError):
            audit_estimate(lower, bundle, AuditMode.TAU_DEPENDENT)
        assert audit_estimate(lower, bundle, AuditMode.TAU_UNIFORM).ratio > 0.0

    @pytest.mark.parametrize("record", [LowerEnergy, HigherEnergy])
    def test_every_field_is_required(self, record):
        for item in fields(record):
            assert item.default is MISSING and item.default_factory is MISSING, item.name


class TestBasisSize:
    """An audit basis must have the run's mode count.

    Unchecked, some sizes give silently wrong numbers: the n = 8 run below reads
    TAU_UNIFORM 0.0497 (not 0.0781) and HIGHER 0.0394 (not 0.486) under a one-mode
    basis, and the n = 1 run reads 0.0629 (not 0.0152) under a four-mode one.
    """

    @staticmethod
    def run(n):
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1)
        config = SolverConfig(dt=0.01, t_final=1.0, n_modes=n)
        sig = WindowedSignal(0.3, 2.0, 5, 1.0)
        return solve_smgt_linear(params, build_basis(L, n), constant_field(1.0), None, sig, config)

    @pytest.mark.parametrize("run_modes, basis_modes", [(8, 1), (1, 4), (8, 4)])
    def test_other_mode_count_rejected(self, run_modes, basis_modes):
        traj = self.run(run_modes)
        basis = build_basis(L, basis_modes)
        message = f"basis of {basis_modes} modes cannot audit a run of {run_modes} modes"
        for energy in (energy_lower, energy_higher):
            with pytest.raises(ValueError, match=message):
                energy(traj, basis)
        with pytest.raises(ValueError, match=message):
            trajectory_distance(traj, traj, basis)


class TestScaling:
    def test_squared_energies_scale_quadratically(self):
        basis = build_basis(L, 6)
        params = ModelParams(c2=1.0, delta=0.5, tau=0.1)
        config = SolverConfig(dt=0.01, t_final=1.0, n_modes=6)
        field = constant_field(1.0)
        f = lambda x, t: np.sin(x) * t**2
        scale = 3.0
        sig = WindowedSignal(0.4, 2.0, 5, 1.0)
        sig_scaled = WindowedSignal(scale * 0.4, 2.0, 5, 1.0)
        base = solve_smgt_linear(params, basis, field, f, sig, config)
        scaled = solve_smgt_linear(
            params, basis, field, lambda x, t: scale * f(x, t), sig_scaled, config
        )
        rec_base = energy_lower(base, basis)
        rec_scaled = energy_lower(scaled, basis)
        factor = scale**2
        for name in ("sq_tt_l2", "sq_t_h1", "dual_accum", "tt_accum"):
            a = getattr(rec_base, name)
            b = getattr(rec_scaled, name)
            mask = a > 1e-18
            np.testing.assert_allclose(b[mask] / a[mask], factor, rtol=1e-8)

    def test_gronwall_rate_stable_under_refinement(self):
        basis = build_basis(L, 6)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1)
        sig = WindowedSignal(0.3, 2.0, 5, 1.0)
        rates = []
        for dt in (1 / 100, 1 / 200):
            config = SolverConfig(dt=dt, t_final=1.0, n_modes=6)
            traj = solve_smgt_linear(params, basis, constant_field(1.0), None, sig, config)
            record = energy_lower(traj, basis)
            window = traj.times >= 0.3
            rate = np.polyfit(traj.times[window], np.log(record.low[window]), 1)[0]
            rates.append(rate)
        assert abs(rates[0] - rates[1]) <= 0.1 * abs(rates[1])


def test_trapezoid_helpers_match_numpy():
    rng = np.random.default_rng(11)
    values = rng.standard_normal(33)
    dt = 0.07
    assert trapezoid_total(values, dt) == pytest.approx(
        np.trapezoid(values, dx=dt), rel=1e-13
    )
    running = trapezoid_running(values, dt)
    assert running[0] == 0.0
    assert running[-1] == pytest.approx(trapezoid_total(values, dt), rel=1e-13)
