import math

import numpy as np
import pytest

from jmgt_lab import (
    BoundaryKind,
    CoefficientField,
    End,
    ModelParams,
    TimeVaryingMass,
    Trajectory,
    WindowedSignal,
    assemble_boundary,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    build_basis,
    build_quadrature,
    clamp_h,
    constant_field,
    field_from_trajectory,
    harmonic_extension,
    lift_forcing,
    mode_matrix,
    project,
    signal_eval,
    trace_vector,
)
from jmgt_lab.assembly import (
    _triple_products,
    _weighted_gram,
    assemble_loads,
    sample_field,
)
from jmgt_lab.exceptions import CompatibilityError

from helpers import fd_weights


def make_field(fn, dx=None, dt=None):
    zero = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
    return CoefficientField(value=fn, space_derivative=dx or zero, time_derivative=dt or zero)


class TestStiffness:
    def test_diagonal_of_eigenvalues(self):
        basis = build_basis(math.pi, 4)
        quad = build_quadrature(math.pi, 16)
        K = assemble_stiffness(basis, quad)
        assert np.abs(K - np.diag([0.0, 1.0, 4.0, 9.0])).max() < 1e-12

    def test_single_constant_mode_is_zero(self):
        basis = build_basis(1.5, 1)
        quad = build_quadrature(1.5, 8)
        K = assemble_stiffness(basis, quad)
        assert K.shape == (1, 1)
        assert abs(K[0, 0]) < 1e-14

    def test_general_interval_against_quadrature_oracle(self):
        basis = build_basis(2.0, 6)
        quad = build_quadrature(2.0, 24)
        K = assemble_stiffness(basis, quad)
        expected = np.diag([(i * math.pi / 2.0) ** 2 for i in range(6)])
        assert np.abs(K - expected).max() < 1e-12
        off_diag = K - np.diag(np.diag(K))
        assert np.abs(off_diag).max() < 1e-12


class TestMass:
    def test_unit_coefficient_gives_identity(self):
        basis = build_basis(math.pi, 5)
        quad = build_quadrature(math.pi, 20)
        M = assemble_mass(basis, quad, constant_field(1.0), 0.0)
        assert np.abs(M - np.eye(5)).max() < 1e-12

    def test_constant_coefficient_scales_identity(self):
        basis = build_basis(1.0, 4)
        quad = build_quadrature(1.0, 16)
        M = assemble_mass(basis, quad, constant_field(3.5), 1.0)
        assert np.abs(M - 3.5 * np.eye(4)).max() < 1e-12

    def test_linear_coefficient_against_oracle(self):
        basis = build_basis(math.pi, 3)
        quad = build_quadrature(math.pi, 12)
        field = make_field(lambda x, t: np.asarray(x, dtype=float))
        M = assemble_mass(basis, quad, field, 0.0)
        # (x w_0, w_1) = sqrt(2)/pi * integral of x cos(x) = -2 sqrt(2)/pi
        assert M[0, 1] == pytest.approx(-2.0 * math.sqrt(2.0) / math.pi, rel=1e-12)
        oracle_quad = build_quadrature(math.pi, 120)
        oracle = assemble_mass(basis, oracle_quad, field, 0.0)
        assert np.abs(M - oracle).max() < 1e-10

    def test_symmetry_and_spectral_bounds(self):
        # alpha in [0.7, 1.7] pointwise keeps the spectrum inside that range
        basis = build_basis(2.0, 5)
        quad = build_quadrature(2.0, 20)
        field = make_field(lambda x, t: 1.2 + 0.5 * np.sin(math.pi * np.asarray(x) / 2.0 + t))
        for t in (0.0, 0.3, 1.7):
            M = assemble_mass(basis, quad, field, t)
            assert np.abs(M - M.T).max() == 0.0
            eigenvalues = np.linalg.eigvalsh(M)
            assert eigenvalues.min() >= 0.7 - 1e-8
            assert eigenvalues.max() <= 1.7 + 1e-8

    def test_time_varying_mass_matches_direct_assembly(self):
        basis = build_basis(1.0, 4)
        quad = build_quadrature(1.0, 16)
        field = make_field(lambda x, t: 1.0 + 0.2 * t * np.asarray(x, dtype=float))
        times = np.array([0.0, 0.5, 1.25, 2.0])
        sampler = TimeVaryingMass(basis, quad, sample_field(field, quad.nodes, times))
        for m, t in enumerate(times):
            np.testing.assert_array_equal(sampler.alpha_values(m), field.value(quad.nodes, t))
            np.testing.assert_array_equal(sampler.matrix(m), assemble_mass(basis, quad, field, t))

    def test_time_varying_mass_samples_each_grid_time_once(self):
        basis = build_basis(1.0, 3)
        quad = build_quadrature(1.0, 12)
        queried = []

        def alpha(x, t):
            queried.append(t)
            return np.full_like(np.asarray(x, dtype=float), 1.0 + t)

        alpha_grid = sample_field(make_field(alpha), quad.nodes, np.array([0.0, 0.1, 0.2]))
        sampler = TimeVaryingMass(basis, quad, alpha_grid)
        for m in (2, 0, 1, 2):
            np.testing.assert_allclose(sampler.matrix(m), (1.0 + 0.1 * m) * np.eye(3), atol=1e-14)
        assert queried == [0.0, 0.1, 0.2]

    def test_scalar_field_broadcast_over_the_nodes(self):
        quad = build_quadrature(1.0, 12)
        field = CoefficientField(value=lambda x, t: 2.0 + t)
        alpha = sample_field(field, quad.nodes, np.array([0.0, 0.5]))
        assert alpha.shape == (2, quad.count)
        np.testing.assert_array_equal(alpha, [[2.0] * quad.count, [2.5] * quad.count])


class TestClosedFormMass:
    """The closed-form Picard mass I - 2k * (c @ T) against a fine quadrature Gram."""

    LENGTH = 2.0
    K = np.array([[0.4], [0.1], [0.0]])

    def frozen(self, n, velocity, k=K):
        basis = build_basis(self.LENGTH, n)
        quad = build_quadrature(self.LENGTH, 4 * n)
        return basis, TimeVaryingMass(basis, quad, velocity, k, _triple_products(basis))

    @pytest.mark.parametrize("n", [1, 2, 16, 33])
    def test_matches_a_fine_quadrature_gram(self, n):
        # On these non-decaying coefficients the default 4n-node rule is itself off by
        # 1.1e-12 at n = 16 and 1.2e-11 at n = 33 (it is sized for pair products, and
        # triple products oscillate faster), so the oracle is a 16n-node rule.
        velocity = np.random.default_rng(n).standard_normal((3, 4, n))
        basis, masses = self.frozen(n, velocity)
        fine = build_quadrature(self.LENGTH, 16 * n)
        modes = mode_matrix(basis, fine.nodes)
        for m in range(4):
            closed = masses.matrix(m)
            alpha = 1.0 - 2.0 * self.K * (velocity[:, m] @ modes)
            oracle = _weighted_gram(modes, fine.weights * alpha)
            for member in range(3):
                scale = np.abs(closed[member]).max()
                assert np.abs(closed[member] - oracle[member]).max() <= 1e-13 * scale

    def test_exactly_symmetric(self):
        velocity = np.random.default_rng(5).standard_normal((3, 2, 16))
        _, masses = self.frozen(16, velocity)
        for mass in masses.matrix(1):
            assert np.array_equal(mass, mass.T)

    def test_identity_at_zero_velocity_or_zero_k(self):
        # the Picard driver's round 1 passes a broadcast zero view
        _, zero = self.frozen(16, np.broadcast_to(0.0, (3, 2, 16)))
        assert np.array_equal(zero.matrix(1), np.broadcast_to(np.eye(16), (3, 16, 16)))
        velocity = np.random.default_rng(6).standard_normal((3, 2, 16))
        _, masses = self.frozen(16, velocity)
        assert np.array_equal(masses.matrix(1)[2], np.eye(16))

    def test_batch_member_equals_its_lone_mass(self):
        velocity = np.random.default_rng(7).standard_normal((3, 5, 16))
        _, batch = self.frozen(16, velocity)
        for member in range(3):
            _, lone = self.frozen(16, velocity[member : member + 1], self.K[member : member + 1])
            for m in range(5):
                assert np.array_equal(batch.matrix(m)[member], lone.matrix(m)[0])

    def test_constant_mode_product_is_the_scaled_identity(self):
        # w_0 = 1/sqrt(L), so T_0 = I/sqrt(L)
        basis = build_basis(self.LENGTH, 7)
        first = _triple_products(basis)[0].reshape(7, 7)
        np.testing.assert_allclose(first, np.eye(7) / math.sqrt(self.LENGTH), rtol=1e-15, atol=0.0)


class TestBoundary:
    def test_two_mode_right_end_matrix(self):
        basis = build_basis(math.pi, 2)
        B = assemble_boundary(basis, End.RIGHT)
        expected = np.array(
            [
                [1.0 / math.pi, -math.sqrt(2.0) / math.pi],
                [-math.sqrt(2.0) / math.pi, 2.0 / math.pi],
            ]
        )
        np.testing.assert_allclose(B, expected, rtol=1e-14)

    def test_rank_one_positive_semidefinite(self):
        basis = build_basis(2.0, 6)
        for end in (End.LEFT, End.RIGHT):
            B = assemble_boundary(basis, end)
            assert np.linalg.matrix_rank(B) == 1
            assert np.linalg.eigvalsh(B).min() >= -1e-14

    def test_outer_product_action(self):
        rng = np.random.default_rng(3)
        basis = build_basis(math.pi, 3)
        B = assemble_boundary(basis, End.RIGHT)
        traces = trace_vector(basis, End.RIGHT)
        for _ in range(5):
            v = rng.standard_normal(3)
            np.testing.assert_allclose(B @ v, traces * (traces @ v), rtol=1e-13, atol=1e-15)


def find_signal_peak(sig, lo=0.05, hi=3.0):
    """First interior zero of g' (a maximum of g), by scan plus bisection."""
    ts = np.linspace(lo, hi, 800)
    derivs = np.array([signal_eval(sig, float(t), 1) for t in ts])
    idx = int(np.argmax(derivs[:-1] * derivs[1:] < 0.0))
    a, b = float(ts[idx]), float(ts[idx + 1])
    for _ in range(80):
        mid = 0.5 * (a + b)
        if signal_eval(sig, a, 1) * signal_eval(sig, mid, 1) <= 0.0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


class TestLoad:
    def test_zero_data_zero_vector(self):
        basis = build_basis(math.pi, 4)
        quad = build_quadrature(math.pi, 16)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1)
        np.testing.assert_array_equal(
            assemble_load(basis, quad, None, None, params, 0.5), np.zeros(4)
        )

    def test_boundary_term_at_signal_peak(self):
        # at a maximum of g: g(t0) = 1 after rescaling, g'(t0) = 0, so
        # F_i = c2 * w_i(0) with c2 = 4, b = 1
        probe = WindowedSignal(amplitude=1.0, frequency=2.0, onset_power=5, decay_rate=1.0)
        t0 = find_signal_peak(probe)
        scale = 1.0 / signal_eval(probe, t0, 0)
        sig = WindowedSignal(amplitude=scale, frequency=2.0, onset_power=5, decay_rate=1.0)
        params = ModelParams(c2=4.0, delta=1.0, tau=0.0)
        assert params.b == 1.0
        basis = build_basis(math.pi, 4)
        quad = build_quadrature(math.pi, 16)
        load = assemble_load(basis, quad, None, sig, params, t0)
        np.testing.assert_allclose(load, 4.0 * trace_vector(basis, End.LEFT), atol=1e-11)

    def test_pure_mode_source(self):
        basis = build_basis(math.pi, 4)
        quad = build_quadrature(math.pi, 16)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1)
        load = assemble_load(basis, quad, lambda x, t: np.cos(2.0 * x), None, params, 0.0)
        expected = np.zeros(4)
        expected[2] = math.sqrt(math.pi / 2.0)
        np.testing.assert_allclose(load, expected, atol=1e-13)

    def test_joint_linearity_in_source_and_signal(self):
        basis = build_basis(math.pi, 5)
        quad = build_quadrature(math.pi, 20)
        params = ModelParams(c2=2.0, delta=0.5, tau=0.2)
        f1 = lambda x, t: np.sin(x) * t
        f2 = lambda x, t: np.cos(x) * (1 + t)
        g1 = WindowedSignal(0.7, 2.0, 5, 1.0)
        g2 = WindowedSignal(-0.3, 1.0, 5, 0.5)
        g_sum = None  # combined signal handled by summing loads

        t = 0.9
        load_1 = assemble_load(basis, quad, f1, g1, params, t)
        load_2 = assemble_load(basis, quad, f2, g2, params, t)
        combined = assemble_load(
            basis, quad, lambda x, s: f1(x, s) + f2(x, s), None, params, t
        )
        combined += assemble_load(basis, quad, None, g1, params, t)
        combined += assemble_load(basis, quad, None, g2, params, t)
        np.testing.assert_allclose(load_1 + load_2, combined, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("with_f,with_g", [(True, True), (True, False), (False, True)])
    def test_whole_horizon_loads_equal_the_per_time_formula(self, with_f, with_g):
        # bit for bit: each row is (f(., t), w_i) + (c2*g(t) + b*g_t(t)) * w_i(0)
        # with the signal evaluated at the scalar time
        basis = build_basis(2.0, 6)
        quad = build_quadrature(2.0, 24)
        params = ModelParams(c2=1.3, delta=0.7, tau=0.2, beta=0.5)
        f = (lambda x, t: t * np.sin(3.0 * x) + t**2 * np.cos(x)) if with_f else None
        g = WindowedSignal(0.6, 2.0, 5, 1.0) if with_g else None
        times = 0.01 * np.arange(151)
        loads = assemble_loads(basis, quad, f, g, params, times)
        assert loads.shape == (151, 6)
        for m, t in enumerate(times):
            row = np.zeros(6)
            if f is not None:
                row += project(basis, quad, lambda x: f(x, t))
            if g is not None:
                gain = params.c2 * signal_eval(g, float(t), 0) + params.b * signal_eval(g, float(t), 1)
                row += gain * trace_vector(basis, End.LEFT)
            assert np.array_equal(loads[m], row)
            assert np.array_equal(assemble_load(basis, quad, f, g, params, float(t)), row)

    def test_scalar_source_broadcasts_over_the_nodes(self):
        # a source that returns a Python scalar loads the bits of one that fills the nodes
        basis = build_basis(2.0, 6)
        quad = build_quadrature(2.0, 24)
        params = ModelParams(c2=1.3, delta=0.7, tau=0.2)
        times = 0.01 * np.arange(51)

        def scalar(x, t):
            return 0.3 + math.sin(7.0 * t)

        def full(x, t):
            return np.full_like(np.asarray(x, dtype=float), scalar(x, t))

        loads = assemble_loads(basis, quad, scalar, None, params, times)
        assert np.array_equal(loads, assemble_loads(basis, quad, full, None, params, times))
        assert np.any(loads != 0.0)


class TestHarmonicExtension:
    def test_zero_data_zero_profile(self):
        basis = build_basis(math.pi, 4)
        quad = build_quadrature(math.pi, 16)
        lift = harmonic_extension(basis, quad, 0.0)
        grid = np.linspace(0.0, math.pi, 50)
        np.testing.assert_array_equal(lift.profile(grid), np.zeros(50))
        np.testing.assert_array_equal(lift.coeffs, np.zeros(4))

    def test_profile_satisfies_the_bvp(self):
        # residual -v'' + v on a 1000-point grid via an order-6 stencil
        basis = build_basis(math.pi, 4)
        quad = build_quadrature(math.pi, 16)
        lift = harmonic_extension(basis, quad, 1.0)
        grid = np.linspace(0.0, math.pi, 1000)
        values = lift.profile(grid)
        h = grid[1] - grid[0]
        # stride-4 order-6 stencil keeps the cancellation noise of the second
        # difference well below the 1e-10 target
        stride = 4
        stencil = fd_weights(0.0, (np.arange(7) - 3) * stride * h, 2)
        reach = 3 * stride
        interior = np.array(
            [
                stencil @ values[m - reach : m + reach + 1 : stride]
                for m in range(reach, len(grid) - reach)
            ]
        )
        residual = -interior + values[reach:-reach]
        assert np.abs(residual).max() < 1e-10
        assert values[0] == pytest.approx(math.cosh(math.pi) / math.sinh(math.pi), rel=1e-13)

    def test_neumann_flux_at_left_end(self):
        basis = build_basis(2.0, 4)
        quad = build_quadrature(2.0, 16)
        lift = harmonic_extension(basis, quad, 0.8)
        h = 1e-3
        nodes = np.arange(8) * h
        weights = fd_weights(0.0, nodes, 1)
        flux = -(weights @ lift.profile(nodes))
        assert flux == pytest.approx(0.8, abs=1e-9)
        right_nodes = 2.0 - np.arange(8)[::-1] * h
        right_weights = fd_weights(2.0, right_nodes, 1)
        assert right_weights @ lift.profile(right_nodes) == pytest.approx(0.0, abs=1e-9)

    def test_linearity_in_boundary_value(self):
        basis = build_basis(1.0, 3)
        quad = build_quadrature(1.0, 12)
        one = harmonic_extension(basis, quad, 0.6)
        two = harmonic_extension(basis, quad, 1.2)
        grid = np.linspace(0.0, 1.0, 33)
        np.testing.assert_array_equal(two.profile(grid), 2.0 * one.profile(grid))
        np.testing.assert_allclose(two.coeffs, 2.0 * one.coeffs, rtol=1e-15)

    def test_projection_matches_analytic_coefficients(self):
        # (v, w_i) = h * w_i(0) / (1 + lambda_i), by integrating the BVP by parts
        basis = build_basis(math.pi, 6)
        quad = build_quadrature(math.pi, 24)
        h = 1.4
        lift = harmonic_extension(basis, quad, h)
        analytic = h * trace_vector(basis, End.LEFT) / (1.0 + basis.eigenvalues)
        np.testing.assert_allclose(lift.coeffs, analytic, atol=1e-13)


class TestLiftForcing:
    def test_zero_signal_returns_source_unchanged(self):
        basis = build_basis(math.pi, 4)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1)
        sig = WindowedSignal(0.0, 1.0, 5, 0.0)
        f = lambda x, t: np.sin(x) + t
        lifted = lift_forcing(basis, sig, constant_field(1.0), params, 0.7, f=f)
        grid = np.linspace(0.0, math.pi, 21)
        np.testing.assert_allclose(lifted(grid), f(grid, 0.7), rtol=0, atol=0)

    def test_single_spatial_profile_for_constant_alpha(self):
        # with f = 0 and alpha constant every term is a multiple of the same
        # lift profile, so the ratio to the profile is constant in x
        basis = build_basis(math.pi, 4)
        quad = build_quadrature(math.pi, 16)
        params = ModelParams(c2=2.0, delta=1.0, tau=0.0)
        sig = WindowedSignal(1.0, 2.0, 5, 1.0)
        t = 0.8
        lifted = lift_forcing(basis, sig, constant_field(1.0), params, t)
        grid = np.linspace(0.0, math.pi, 40)
        profile = harmonic_extension(basis, quad, 1.0).profile(grid)
        ratios = lifted(grid) / profile
        expected = (
            params.c2 * signal_eval(sig, t, 0)
            + params.b * signal_eval(sig, t, 1)
            - signal_eval(sig, t, 2)
        )
        np.testing.assert_allclose(ratios, expected, rtol=1e-12)

    def test_term_by_term_compositional_oracle(self):
        basis = build_basis(2.0, 4)
        quad = build_quadrature(2.0, 16)
        params = ModelParams(c2=1.5, delta=0.4, tau=0.3)
        sig = WindowedSignal(0.9, 2.5, 5, 0.8)
        field = make_field(lambda x, t: 1.0 + 0.1 * np.asarray(x, dtype=float) * t)
        f = lambda x, t: np.cos(x) * t**2
        t = 1.3
        lifted = lift_forcing(basis, sig, field, params, t, f=f)
        grid = np.array([0.0, 0.37, 1.11, 2.0])
        profile = harmonic_extension(basis, quad, 1.0).profile(grid)
        oracle = (
            f(grid, t)
            - params.tau * signal_eval(sig, t, 3) * profile
            - field.value(grid, t) * signal_eval(sig, t, 2) * profile
            + params.c2 * signal_eval(sig, t, 0) * profile
            + params.b * signal_eval(sig, t, 1) * profile
        )
        np.testing.assert_allclose(lifted(grid), oracle, rtol=1e-13)

    def test_incompatible_signal_rejected(self):
        # t * sin(omega t) has a nonzero second derivative at zero
        basis = build_basis(1.0, 3)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1)
        bad = WindowedSignal(1.0, 1.0, 1, 0.0)
        with pytest.raises(CompatibilityError):
            lift_forcing(basis, bad, constant_field(1.0), params, 0.5)


class TestFieldFromTrajectory:
    def make_ramp_trajectory(self, basis, rate, steps=10, dt=0.1):
        times = dt * np.arange(steps + 1)
        coeff_t = np.zeros((steps + 1, basis.n))
        coeff_t[:, 1] = rate * times
        coeff_tt = np.zeros_like(coeff_t)
        coeff_tt[:, 1] = rate
        return Trajectory(
            times=times,
            coeff=np.zeros_like(coeff_t),
            coeff_t=coeff_t,
            coeff_tt=coeff_tt,
            coeff_ttt=np.zeros_like(coeff_t),
            bc=BoundaryKind.PURE_NEUMANN,
            params=ModelParams(c2=1.0, delta=1.0, tau=0.1, k=0.25),
        )

    def test_reconstruction_matches_closed_form(self):
        basis = build_basis(math.pi, 3)
        k = 0.25
        xs = np.array([0.0, 0.9, 2.2, math.pi])
        w1 = mode_matrix(basis, xs)[1]
        for rate in (0.8, 40.0):  # the unclamped field follows 1 - 2k*psi_t past [0, 2]
            traj = self.make_ramp_trajectory(basis, rate)
            field = field_from_trajectory(basis, traj, k)
            for t in traj.times:
                expected = 1.0 - 2.0 * k * rate * t * w1
                np.testing.assert_allclose(field.value(xs, t), expected, rtol=1e-13)

    def test_clamped_reconstruction_saturates(self):
        basis = build_basis(math.pi, 3)
        rate = 40.0
        traj = self.make_ramp_trajectory(basis, rate)
        field = field_from_trajectory(basis, traj, 0.25, clamped=True)
        xs = np.linspace(0, math.pi, 64)
        w1 = mode_matrix(basis, xs)[1]
        for t in traj.times:
            values = field.value(xs, t)
            np.testing.assert_allclose(values, clamp_h(rate * t * w1, 0.25), rtol=1e-13)
            assert values.min() >= 0.0
            assert values.max() <= 2.0
        assert np.any(field.value(xs, 1.0) == 0.0) and np.any(field.value(xs, 1.0) == 2.0)

    @pytest.mark.parametrize("t", [0.05, 0.33, -0.1, 1.2])
    def test_off_grid_time_rejected(self, t):
        basis = build_basis(math.pi, 3)
        traj = self.make_ramp_trajectory(basis, rate=0.8)
        for clamped in (False, True):
            field = field_from_trajectory(basis, traj, 0.25, clamped=clamped)
            with pytest.raises(ValueError):
                field.value(np.array([0.0, 1.0]), t)
