import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jmgt_lab import (
    BoundaryKind,
    CompatibilityError,
    End,
    InvalidParameters,
    ModelParams,
    SingularStepMatrixError,
    SolverConfig,
    WindowedSignal,
    assemble_boundary,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    boundary_flux,
    build_basis,
    build_quadrature,
    constant_field,
    field_from_trajectory,
    ode_residual_z,
    recover_third,
    solve_jmgt,
    solve_smgt_linear,
    solve_westervelt_linearized,
    solve_westervelt_nonlinear,
)
from jmgt_lab import nonlinear
from jmgt_lab.assembly import CoefficientField, TimeVaryingMass, _triple_products
from jmgt_lab.integrate import _integrate, _prepare_data
from helpers import manufactured_run, reference_bdf2, z_ode_residual, zero_trajectory

L = math.pi
MODE_AMP = math.sqrt(math.pi / 2.0)  # cos(x) = MODE_AMP * w_1 on [0, pi]


def smgt_forcing(params):
    def forcing(x, t):
        gain = 6.0 * params.tau + 6.0 * t + 3.0 * params.b * t**2 + params.c2 * t**3
        return gain * np.cos(np.asarray(x, dtype=float))

    return forcing


def westervelt_forcing(params):
    def forcing(x, t):
        gain = 6.0 * t + 3.0 * params.delta * t**2 + params.c2 * t**3
        return gain * np.cos(np.asarray(x, dtype=float))

    return forcing


class TestZeroData:
    @pytest.mark.parametrize("bc", [BoundaryKind.PURE_NEUMANN, BoundaryKind.MIXED])
    def test_smgt_zero_data_is_exactly_zero(self, bc):
        basis = build_basis(L, 6)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1, beta=0.4)
        config = SolverConfig(dt=0.02, t_final=0.5, n_modes=6)
        traj = solve_smgt_linear(params, basis, constant_field(1.0), None, None, config, bc)
        assert np.abs(traj.coeff).max() == 0.0
        assert np.abs(traj.coeff_t).max() == 0.0
        assert np.abs(traj.coeff_tt).max() == 0.0
        assert np.abs(traj.coeff_ttt).max() == 0.0

    @pytest.mark.parametrize("bc", [BoundaryKind.PURE_NEUMANN, BoundaryKind.MIXED])
    def test_westervelt_zero_data_is_exactly_zero(self, bc):
        basis = build_basis(L, 6)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.0, beta=0.4)
        config = SolverConfig(dt=0.02, t_final=0.5, n_modes=6)
        traj = solve_westervelt_linearized(
            params, basis, constant_field(1.0), None, None, config, bc
        )
        assert np.abs(traj.coeff).max() == 0.0
        assert np.abs(traj.coeff_tt).max() == 0.0

    def test_initial_data_homogeneous(self):
        basis = build_basis(L, 4)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.2)
        config = SolverConfig(dt=0.01, t_final=0.2, n_modes=4)
        sig = WindowedSignal(1.0, 2.0, 5, 1.0)
        traj = solve_smgt_linear(params, basis, constant_field(1.0), None, sig, config)
        assert np.abs(traj.coeff[0]).max() == 0.0
        assert np.abs(traj.coeff_t[0]).max() == 0.0
        assert np.abs(traj.coeff_tt[0]).max() == 0.0
        steps = np.diff(traj.times)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-12)


class TestManufacturedSolution:
    def run_errors(self, solve, forcing_of, params, dts):
        basis = build_basis(L, 8)
        errors = []
        for dt in dts:
            config = SolverConfig(dt=dt, t_final=1.0, n_modes=8)
            traj = solve(params, basis, constant_field(1.0), forcing_of(params), None, config)
            exact = MODE_AMP * traj.times**3
            errors.append(np.abs(traj.coeff[:, 1] - exact).max())
        return basis, traj, errors

    def test_smgt_second_order_in_time(self):
        params = ModelParams(c2=1.0, delta=0.05, tau=0.1)
        _, traj, errors = self.run_errors(
            solve_smgt_linear, smgt_forcing, params, (1 / 40, 1 / 80, 1 / 160)
        )
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.4 <= coarse / fine <= 4.6
        # the exact solution is a single mode; the others stay at roundoff
        assert np.abs(np.delete(traj.coeff, 1, axis=1)).max() < 1e-12

    def test_westervelt_second_order_in_time(self):
        params = ModelParams(c2=1.0, delta=0.05, tau=0.0)
        _, _, errors = self.run_errors(
            solve_westervelt_linearized, westervelt_forcing, params, (1 / 40, 1 / 80, 1 / 160)
        )
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.4 <= coarse / fine <= 4.6

    def test_westervelt_constant_mode_closed_form(self):
        # f = 1 only loads the constant mode: xi_0'' = sqrt(L)
        basis = build_basis(L, 4)
        params = ModelParams(c2=1.0, delta=0.5, tau=0.0)
        errors = []
        for dt in (1 / 50, 1 / 100):
            config = SolverConfig(dt=dt, t_final=1.0, n_modes=4)
            traj = solve_westervelt_linearized(
                params, basis, constant_field(1.0), lambda x, t: np.ones_like(x), None, config
            )
            exact = math.sqrt(L) * traj.times**2 / 2.0
            errors.append(np.abs(traj.coeff[:, 0] - exact).max())
            assert np.abs(traj.coeff[:, 1:]).max() < 1e-12
        assert errors[0] <= 1.2 * (1 / 50) ** 2 * math.sqrt(L)
        assert 3.0 <= errors[0] / errors[1] <= 5.0


class TestSuperposition:
    def test_linear_in_source_and_signal(self):
        basis = build_basis(L, 6)
        params = ModelParams(c2=1.0, delta=0.5, tau=0.1)
        config = SolverConfig(dt=0.01, t_final=0.6, n_modes=6)
        field = constant_field(1.0)
        f1 = lambda x, t: np.sin(x) * t**2
        f2 = lambda x, t: np.cos(2 * x) * (1 - np.exp(-t))
        half = WindowedSignal(0.4, 2.0, 5, 1.0)
        full = WindowedSignal(0.8, 2.0, 5, 1.0)
        sol1 = solve_smgt_linear(params, basis, field, f1, half, config)
        sol2 = solve_smgt_linear(params, basis, field, f2, half, config)
        combined = solve_smgt_linear(
            params, basis, field, lambda x, t: f1(x, t) + f2(x, t), full, config
        )
        diff = np.abs(sol1.coeff + sol2.coeff - combined.coeff).max()
        assert diff <= 1e-10


class TestRecoverThird:
    def test_zero_trajectory_zero_third(self):
        basis = build_basis(L, 4)
        quad = build_quadrature(L, 16)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.2)
        stiffness = assemble_stiffness(basis, quad)
        mass = assemble_mass(basis, quad, constant_field(1.0), 0.0)
        zero = np.zeros(4)
        np.testing.assert_array_equal(
            recover_third(params, stiffness, mass, zero, zero, zero, zero), zero
        )

    def test_manufactured_constant_third_derivative(self):
        # xi_1(t) = MODE_AMP * t^3, so xi_1''' = 6 * MODE_AMP
        params = ModelParams(c2=1.0, delta=0.05, tau=0.1)
        basis = build_basis(L, 8)
        errors = []
        for dt in (1 / 80, 1 / 160):
            config = SolverConfig(dt=dt, t_final=1.0, n_modes=8)
            traj = solve_smgt_linear(
                params, basis, constant_field(1.0), smgt_forcing(params), None, config
            )
            errors.append(np.abs(traj.coeff_ttt[:, 1] - 6.0 * MODE_AMP).max())
        assert 3.0 <= errors[0] / errors[1] <= 5.0

    def test_requires_positive_tau(self):
        basis = build_basis(L, 3)
        quad = build_quadrature(L, 12)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.0)
        zero = np.zeros(3)
        stiffness = assemble_stiffness(basis, quad)
        with pytest.raises(ValueError):
            recover_third(params, stiffness, np.eye(3), zero, zero, zero, zero)

    def test_consistency_with_stored_second_derivative(self):
        # forward difference of xi'' approaches xi''' at first order
        params = ModelParams(c2=1.0, delta=0.3, tau=0.15)
        basis = build_basis(L, 6)
        sig = WindowedSignal(0.5, 2.0, 5, 1.0)
        gaps = []
        for dt in (1 / 100, 1 / 200):
            config = SolverConfig(dt=dt, t_final=1.0, n_modes=6)
            traj = solve_smgt_linear(params, basis, constant_field(1.0), None, sig, config)
            fd = (traj.coeff_tt[1:] - traj.coeff_tt[:-1]) / dt
            gap = np.abs(fd - traj.coeff_ttt[:-1]).max()
            gaps.append(gap)
        assert 1.5 <= gaps[0] / gaps[1] <= 2.6


class TestOdeResidual:
    def test_zero_trajectory_zero_residual(self):
        basis = build_basis(L, 4)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1)
        config = SolverConfig(dt=0.01, t_final=0.3, n_modes=4)
        residual = ode_residual_z(
            zero_trajectory(params, basis, config), basis, constant_field(1.0)
        )
        assert residual.max() == 0.0

    def test_manufactured_first_order_decay(self):
        params = ModelParams(c2=1.0, delta=0.05, tau=0.1)
        maxima = []
        for dt in (1 / 100, 1 / 200):
            basis, traj = manufactured_run(params, dt)

            def forcing(x, t):
                gain = 6.0 * params.tau + 6.0 * t + 3.0 * params.b * t**2 + params.c2 * t**3
                return gain * np.cos(np.asarray(x, dtype=float))

            residual = ode_residual_z(traj, basis, constant_field(1.0), f=forcing)
            maxima.append(residual.max())
        assert 1.6 <= maxima[0] / maxima[1] <= 2.4

    def test_invariant_under_zero_amplitude_lift(self):
        params = ModelParams(c2=1.0, delta=0.05, tau=0.1)
        basis, traj = manufactured_run(params, 1 / 100)

        def forcing(x, t):
            gain = 6.0 * params.tau + 6.0 * t + 3.0 * params.b * t**2 + params.c2 * t**3
            return gain * np.cos(np.asarray(x, dtype=float))

        plain = ode_residual_z(traj, basis, constant_field(1.0), f=forcing)
        with_null_signal = ode_residual_z(
            traj, basis, constant_field(1.0), f=forcing, g=WindowedSignal(0.0, 1.0, 5, 0.0)
        )
        np.testing.assert_array_equal(plain, with_null_signal)

    def test_rejects_tau_zero(self):
        basis = build_basis(L, 4)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.0)
        config = SolverConfig(dt=0.01, t_final=0.3, n_modes=4)
        traj = zero_trajectory(params, basis, config, with_third=False)
        with pytest.raises(ValueError):
            ode_residual_z(traj, basis, constant_field(1.0))

    @pytest.mark.parametrize("bc", [BoundaryKind.PURE_NEUMANN, BoundaryKind.MIXED])
    @pytest.mark.parametrize("coefficient", ["constant", "varying", "picard"])
    def test_matches_explicit_z_formula(self, bc, coefficient):
        params = ModelParams(c2=1.0, delta=0.3, tau=0.1, k=0.3, beta=0.5)
        basis = build_basis(L, 8)
        config = SolverConfig(dt=0.01, t_final=1.0, n_modes=8)
        source = lambda x, t: np.sin(x) * t**2
        sig = WindowedSignal(0.3, 2.0, 5, 1.0)
        if coefficient == "picard":
            traj, _ = solve_jmgt(params, basis, source, sig, config, bc)
            field = field_from_trajectory(basis, traj, params.k)
        else:
            field = {
                "constant": constant_field(1.3),
                "varying": CoefficientField(lambda x, t: 1.0 + 0.3 * np.cos(x) * np.sin(t)),
            }[coefficient]
            traj = solve_smgt_linear(params, basis, field, source, sig, config, bc)
        oracle = z_ode_residual(traj, basis, field, f=source, g=sig)
        residual = ode_residual_z(traj, basis, field, f=source, g=sig)
        assert np.abs(residual - oracle).max() <= 1e-12 * oracle.max()


class TestDiscreteEquations:
    """Oracle for the step: the stored arrays satisfy the discrete equations.

    Each stored derivative and the one above it obey the BDF2 kinematic
    identity (implicit Euler at the first step), xi''' agrees with the
    momentum balance solved for it (``recover_third``), and the Westervelt
    arrays satisfy their balance at every step after the start.  The fields
    cover both ways the core builds its step matrix: once per run for a
    constant alpha, and per step for one that varies, including one that
    leaves 1 at a single interior grid time only.
    """

    DT = 0.01
    T_FINAL = 0.5
    BUMP_TIME = 0.25

    @staticmethod
    def field():
        return CoefficientField(value=lambda x, t: 1.0 + 0.3 * np.cos(x) * np.sin(t))

    @classmethod
    def fields(cls):
        def bump(x, t):
            values = np.ones_like(np.asarray(x, dtype=float))
            return values * (1.6 if abs(t - cls.BUMP_TIME) < cls.DT / 2 else 1.0)

        return {"constant": constant_field(1.7), "bump": CoefficientField(value=bump)}

    @staticmethod
    def source(x, t):
        return t * np.sin(2.0 * x) + t**2 * np.cos(x)

    def run(self, solve, n, tau, bc, field=None):
        field = self.field() if field is None else field
        basis = build_basis(L, n)
        params = ModelParams(c2=1.0, delta=0.5, tau=tau, beta=0.6)
        config = SolverConfig(dt=self.DT, t_final=self.T_FINAL, n_modes=n)
        drive = WindowedSignal(0.5, 2.0, 5, 1.0)
        traj = solve(params, basis, field, self.source, drive, config, bc)
        quad = build_quadrature(L, config.quad_points)
        loads = [
            assemble_load(basis, quad, self.source, drive, traj.params, t)
            for t in traj.times
        ]
        masses = [assemble_mass(basis, quad, field, t) for t in traj.times]
        boundary = assemble_boundary(basis, End.RIGHT) if bc is BoundaryKind.MIXED else None
        return traj, assemble_stiffness(basis, quad), masses, loads, boundary

    @staticmethod
    def assert_kinematics(derivs, dt):
        for lower, upper in zip(derivs, derivs[1:]):
            difference = np.empty_like(lower[1:])
            difference[0] = lower[1] - lower[0]
            difference[1:] = 1.5 * lower[2:] - 2.0 * lower[1:-1] + 0.5 * lower[:-2]
            scale = max(np.abs(lower).max(), dt * np.abs(upper).max())
            assert scale > 0.0
            assert np.abs(difference - dt * upper[1:]).max() <= 1e-12 * scale

    def assert_smgt_oracles(self, traj, stiffness, masses, loads, boundary):
        self.assert_kinematics((traj.coeff, traj.coeff_t, traj.coeff_tt, traj.coeff_ttt), traj.dt)
        recovered = np.array(
            [
                recover_third(
                    traj.params,
                    stiffness,
                    masses[m],
                    loads[m],
                    traj.coeff[m],
                    traj.coeff_t[m],
                    traj.coeff_tt[m],
                    boundary=boundary,
                )
                for m in range(len(traj.times))
            ]
        )
        scale = np.abs(traj.coeff_ttt).max()
        assert np.abs(recovered - traj.coeff_ttt).max() <= 1e-10 * scale

    def assert_westervelt_oracles(self, traj, stiffness, masses, loads, boundary):
        self.assert_kinematics((traj.coeff, traj.coeff_t, traj.coeff_tt), traj.dt)
        params = traj.params
        damping = params.b * stiffness
        mass_extra = np.zeros_like(stiffness)
        if boundary is not None:
            damping = damping + params.c2 * params.beta * boundary
            mass_extra = params.b * params.beta * boundary
        for m in range(1, len(traj.times)):
            terms = (
                (masses[m] + mass_extra) @ traj.coeff_tt[m],
                damping @ traj.coeff_t[m],
                params.c2 * (stiffness @ traj.coeff[m]),
            )
            scale = max(np.abs(term).max() for term in (loads[m], *terms))
            assert np.abs(loads[m] - sum(terms)).max() <= 1e-12 * scale

    @given(
        n=st.integers(1, 24),
        tau=st.floats(-4.0, 0.0).map(lambda exponent: 10.0**exponent),
        bc=st.sampled_from(list(BoundaryKind)),
    )
    @settings(max_examples=20, deadline=None)
    def test_smgt_arrays_solve_the_discrete_equations(self, n, tau, bc):
        self.assert_smgt_oracles(*self.run(solve_smgt_linear, n, tau, bc))

    @given(n=st.integers(1, 24), bc=st.sampled_from(list(BoundaryKind)))
    @settings(max_examples=20, deadline=None)
    def test_westervelt_arrays_solve_the_discrete_equations(self, n, bc):
        self.assert_westervelt_oracles(*self.run(solve_westervelt_linearized, n, 0.1, bc))

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    @pytest.mark.parametrize("name", ["constant", "bump"])
    def test_smgt_constant_and_one_step_fields(self, name, bc):
        field = self.fields()[name]
        self.assert_smgt_oracles(*self.run(solve_smgt_linear, 6, 0.01, bc, field))

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    @pytest.mark.parametrize("name", ["constant", "bump"])
    def test_westervelt_constant_and_one_step_fields(self, name, bc):
        field = self.fields()[name]
        self.assert_westervelt_oracles(*self.run(solve_westervelt_linearized, 6, 0.1, bc, field))


class TestTextbookOracle:
    """The step loop against ``helpers.reference_bdf2``, a textbook BDF2 loop on the
    first-order system with one dense solve of the whole state per step.

    Linear runs with a time-varying alpha and the rounds of a Picard window both take
    the fused step; the oracle uses none of its shift map, split mass or per-plan step
    matrices.  A Picard round's oracle mass comes from ``field_from_trajectory`` of the
    iterate before it.
    """

    CONFIG = SolverConfig(dt=0.01, t_final=1.0, n_modes=8)
    DRIVE = WindowedSignal(0.5, 2.0, 5, 2.0)
    CASES = [(BoundaryKind.PURE_NEUMANN, 0.0), (BoundaryKind.MIXED, 0.5)]

    @staticmethod
    def assert_matches(traj, reference, order):
        names = ("coeff", "coeff_t", "coeff_tt") + (("coeff_ttt",) if order == 3 else ())
        for name in names:
            got, expected = getattr(traj, name), getattr(reference, name)
            assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max(), name

    @pytest.mark.parametrize("bc, beta", CASES, ids=["neumann", "mixed"])
    @pytest.mark.parametrize("order", [3, 2])
    def test_time_varying_alpha(self, order, bc, beta):
        basis = build_basis(L, self.CONFIG.n_modes)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1, beta=beta)
        field = CoefficientField(value=lambda x, t: 1.0 + 0.3 * t * np.cos(x))
        solve = solve_smgt_linear if order == 3 else solve_westervelt_linearized
        traj = solve(params, basis, field, None, self.DRIVE, self.CONFIG, bc)
        reference = reference_bdf2(order, params, basis, field, None, self.DRIVE, self.CONFIG, bc)
        self.assert_matches(traj, reference, order)

    @pytest.mark.parametrize("clamped", [False, True], ids=["full", "relaxed"])
    @pytest.mark.parametrize("bc, beta", CASES, ids=["neumann", "mixed"])
    @pytest.mark.parametrize("order", [3, 2])
    def test_picard_window(self, order, bc, beta, clamped):
        # a window of two rounds after the alpha = 1 iterate: round 0 reads the stored
        # iterate, round 1 the psi_t that round 0 stores one loop step earlier
        basis = build_basis(L, self.CONFIG.n_modes)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1, k=0.4, beta=beta)
        solve = solve_smgt_linear if order == 3 else solve_westervelt_linearized
        previous = solve(params, basis, constant_field(1.0), None, self.DRIVE, self.CONFIG, bc)
        members, quad, loads = _prepare_data(
            order, [params], basis, None, self.DRIVE, self.CONFIG, bc
        )
        products = None if clamped else _triple_products(basis)
        k = np.array([[params.k]])
        masses = TimeVaryingMass(basis, quad, previous.coeff_t[None], k, products)
        assert not masses.constant
        rounds = _integrate(order, members, basis, masses, loads, self.CONFIG, bc, 2)
        assert [failure for _, failure in rounds] == [None, None]
        for traj, _ in rounds:
            field = field_from_trajectory(basis, previous, params.k, clamped)
            reference = reference_bdf2(
                order, params, basis, field, None, self.DRIVE, self.CONFIG, bc
            )
            moved = np.abs(traj.coeff_t - previous.coeff_t).max()
            assert moved > 1e-6 * np.abs(previous.coeff_t).max()  # each round is a new iterate
            self.assert_matches(traj, reference, order)
            previous = traj


class TestStepOperatorOncePerRun:
    """Mass assemblies, step solves and step-matrix inversions per run.

    A batch whose masses never change inverts its step matrices twice (startup and
    BDF2) and steps by products with the inverse; any other batch solves every step.
    """

    PARAMS = ModelParams(c2=1.0, delta=1.0, tau=0.1, k=0.4, beta=0.5)
    DRIVE = WindowedSignal(0.5, 2.0, 5, 1.0)
    CONFIG = SolverConfig(dt=0.02, t_final=0.5, n_modes=5, picard_tol=1e-10)

    @staticmethod
    def count(monkeypatch, owner, attr):
        calls = []
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
        return calls

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    @pytest.mark.parametrize("solve", [solve_smgt_linear, solve_westervelt_linearized])
    def test_constant_field_assembles_one_mass(self, monkeypatch, solve, bc):
        masses = self.count(monkeypatch, TimeVaryingMass, "matrix")
        solves = self.count(monkeypatch, np.linalg, "solve")
        inversions = self.count(monkeypatch, np.linalg, "inv")
        basis = build_basis(L, self.CONFIG.n_modes)
        solve(self.PARAMS, basis, constant_field(1.0), None, self.DRIVE, self.CONFIG, bc)
        assert (len(masses), len(solves), len(inversions)) == (1, 0, 2)

    def count_rounds(self, monkeypatch):
        """(batch size, rounds, mass rows, solve rows, inversions) of every ``_integrate`` call
        of a Picard run, appended as it runs; a stacked mass or solve counts one per row, and
        a mass is counted where its varying part is formed."""
        masses, solves = [], []
        original_mass = TimeVaryingMass._varying
        original_solve = np.linalg.solve

        def mass(self, velocity, k):
            masses.append(len(velocity))
            return original_mass(self, velocity, k)

        def solve(a, b):
            solves.append(len(a))
            return original_solve(a, b)

        monkeypatch.setattr(TimeVaryingMass, "_varying", mass)
        monkeypatch.setattr(np.linalg, "solve", solve)
        inversions = self.count(monkeypatch, np.linalg, "inv")
        per_call = []
        original = nonlinear._integrate

        def integrate(order, members, *args):
            before = sum(masses), sum(solves), len(inversions)
            result = original(order, members, *args)
            after = sum(masses), sum(solves), len(inversions)
            per_call.append((len(members), args[-1], *(b - a for a, b in zip(before, after))))
            return result

        monkeypatch.setattr(nonlinear, "_integrate", integrate)
        return per_call

    @staticmethod
    def windows(iterations, picard_max):
        """(batch size, rounds) of the windows after round 1 of runs of these iteration counts."""
        schedule, first = [], 2
        while first <= max(iterations):
            size = sum(count >= first for count in iterations)
            rounds = min(max(2, nonlinear._WINDOW_ROWS // size), picard_max - first + 1)
            schedule.append((size, rounds))
            first += rounds
        return schedule

    @pytest.mark.parametrize(
        "taus", [(0.1,), (0.1, 0.01, 0.001), ()], ids=["one", "three", "westervelt"]
    )
    def test_picard_assembles_one_mass_for_the_first_iterate_only(self, monkeypatch, taus):
        # round 1 freezes the zero iterate, so its (stacked) mass is built and its step
        # matrices inverted once; every later round builds a mass and solves at every step
        # of each of its rows, in windows of rounds stepped together
        per_call = self.count_rounds(monkeypatch)
        basis = build_basis(L, self.CONFIG.n_modes)
        if taus:
            members = [ModelParams(c2=1.0, delta=1.0, tau=tau, k=0.4, beta=0.5) for tau in taus]
            runs = nonlinear._picard_loop(
                members, basis, None, self.DRIVE, self.CONFIG, BoundaryKind.MIXED,
                nonlinear.NonlinearVariant.FULL_JMGT,
            )
            iterations = [report.iterations for _, report in runs]
        else:
            _, report = solve_westervelt_nonlinear(
                self.PARAMS, basis, None, self.DRIVE, self.CONFIG, BoundaryKind.MIXED
            )
            iterations = [report.iterations]
        steps = self.CONFIG.n_steps
        assert min(iterations) >= 3
        windows = self.windows(iterations, self.CONFIG.picard_max)
        assert per_call == [(len(iterations), 1, len(iterations), 0, 2)] + [
            (size, rounds, size * rounds * steps, size * rounds * steps, 0)
            for size, rounds in windows
        ]

    def test_a_batch_with_one_changing_member_solves_every_step(self, monkeypatch):
        # the rule is one per batch: a constant member next to a changing one is solved
        # with it at every step, and matches its lone (inverted) run to roundoff
        bc = BoundaryKind.MIXED
        basis = build_basis(L, self.CONFIG.n_modes)
        members = [self.PARAMS, replace(self.PARAMS, tau=0.05)]
        members, quad, loads = _prepare_data(3, members, basis, None, self.DRIVE, self.CONFIG, bc)
        alpha = np.ones((2, self.CONFIG.n_steps + 1, quad.count))
        alpha[1] += 0.2 * self.CONFIG.times[:, None]
        masses = TimeVaryingMass(basis, quad, alpha)
        assert not masses.constant
        solves = self.count(monkeypatch, np.linalg, "solve")
        inversions = self.count(monkeypatch, np.linalg, "inv")
        results = _integrate(3, members, basis, masses, loads, self.CONFIG, bc)
        assert [failure for _, failure in results] == [None, None]
        assert (len(solves), len(inversions)) == (self.CONFIG.n_steps, 0)
        lone = solve_smgt_linear(
            self.PARAMS, basis, constant_field(1.0), None, self.DRIVE, self.CONFIG, bc
        )
        for name in ("coeff", "coeff_t", "coeff_tt", "coeff_ttt"):
            batch, alone = getattr(results[0][0], name), getattr(lone, name)
            assert np.abs(batch - alone).max() <= 1e-12 * np.abs(alone).max(), name

    def test_zero_k_picard_never_solves(self, monkeypatch):
        # with k = 0 the coefficient is exactly 1 whatever the iterate, so every round
        # builds one mass and inverts its two step matrices, one round at a time
        per_call = self.count_rounds(monkeypatch)
        basis = build_basis(L, self.CONFIG.n_modes)
        params = replace(self.PARAMS, k=0.0)
        _, report = solve_westervelt_nonlinear(
            params, basis, None, self.DRIVE, self.CONFIG, BoundaryKind.MIXED
        )
        assert report.iterations == 2
        assert per_call == [(1, 1, 1, 0, 2)] * 2


class TestMixedBoundary:
    def test_dissipative_after_data_window(self):
        # once the drive has died out the discrete energy decays step by step
        basis = build_basis(L, 8)
        params = ModelParams(c2=1.0, delta=2.0, tau=0.1, beta=0.5)
        sig = WindowedSignal(2.0, 3.0, 5, 5.0)
        config = SolverConfig(dt=1 / 200, t_final=5.5, n_modes=8)
        traj = solve_smgt_linear(
            params, basis, constant_field(1.0), None, sig, config, BoundaryKind.MIXED
        )
        stiff = np.diag(basis.eigenvalues)
        energy = (
            0.5 * params.tau * (traj.coeff_tt**2).sum(axis=1)
            + 0.5 * params.b * np.einsum("mi,ij,mj->m", traj.coeff_t, stiff, traj.coeff_t)
            + (traj.coeff_t**2).sum(axis=1)
        )
        window_end = 4.0
        after = energy[traj.times > window_end]
        assert after[0] > 1e-9  # the test is not vacuous
        assert np.all(np.diff(after) <= 1e-8)

    def test_flux_terms_enter_the_balance(self):
        # with beta > 0 the mixed trajectory differs from the pure-Neumann one
        basis = build_basis(L, 6)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1, beta=0.8)
        sig = WindowedSignal(0.5, 2.0, 5, 1.0)
        config = SolverConfig(dt=0.01, t_final=1.0, n_modes=6)
        field = constant_field(1.0)
        neumann = solve_smgt_linear(params, basis, field, None, sig, config)
        mixed = solve_smgt_linear(
            params, basis, field, None, sig, config, BoundaryKind.MIXED
        )
        assert np.abs(neumann.coeff - mixed.coeff).max() > 1e-6
        flux = boundary_flux(mixed, params, basis)
        assert flux is not None
        assert flux.acceleration_flux_accum[-1] > 0.0

    def test_mixed_requires_fourth_order_compatibility(self):
        basis = build_basis(L, 4)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1, beta=0.5)
        config = SolverConfig(dt=0.01, t_final=0.3, n_modes=4)
        # t^2-onset behaves like t^3 near zero: third derivative nonzero at 0
        bad = WindowedSignal(1.0, 1.0, 2, 0.0)
        with pytest.raises(CompatibilityError):
            solve_smgt_linear(
                params, basis, constant_field(1.0), None, bad, config, BoundaryKind.MIXED
            )
        # the same signal is fine for the pure Neumann solver (order 3)
        solve_smgt_linear(params, basis, constant_field(1.0), None, bad, config)


class TestRobustness:
    def test_vanishing_relaxation_time_completes(self):
        # L-stable stepping keeps the run alive for tau down to 1e-6 at fixed dt
        basis = build_basis(L, 6)
        sig = WindowedSignal(0.3, 2.0, 5, 1.0)
        config = SolverConfig(dt=0.02, t_final=0.5, n_modes=6)
        reference = None
        for tau in (1e-2, 1e-4, 1e-6):
            params = ModelParams(c2=1.0, delta=1.0, tau=tau)
            traj = solve_smgt_linear(params, basis, constant_field(1.0), None, sig, config)
            assert np.all(np.isfinite(traj.coeff_ttt))
            if reference is None:
                reference = np.abs(traj.coeff_t).max()
            else:
                assert np.abs(traj.coeff_t).max() < 10.0 * reference

    def test_nonpositive_tau_rejected(self):
        basis = build_basis(L, 4)
        config = SolverConfig(dt=0.01, t_final=0.2, n_modes=4)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.0)
        with pytest.raises(InvalidParameters, match="tau must be positive"):
            solve_smgt_linear(params, basis, constant_field(1.0), None, None, config)

    @pytest.mark.parametrize("n_modes", [4, 1])
    @pytest.mark.parametrize(
        "solve",
        [
            lambda p, b, c: solve_smgt_linear(p, b, constant_field(1.0), None, None, c),
            lambda p, b, c: solve_westervelt_linearized(p, b, constant_field(1.0), None, None, c),
            lambda p, b, c: solve_jmgt(p, b, None, None, c),
        ],
        ids=["smgt", "westervelt", "jmgt"],
    )
    def test_config_size_must_match_the_basis(self, solve, n_modes):
        # the quadrature and margin grid sizes come from n_modes, so a config sized
        # for another basis would silently change the run
        basis = build_basis(L, 16)
        config = SolverConfig(dt=0.01, t_final=0.2, n_modes=n_modes)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1)
        with pytest.raises(InvalidParameters) as info:
            solve(params, basis, config)
        rule = f"must equal the basis size 16, got {n_modes}"
        assert info.value.violations == [("n_modes", rule)]

    def test_unsolvable_step_reports_time_index(self):
        # a coefficient field that turns NaN mid-run surfaces as a step failure
        basis = build_basis(L, 3)
        config = SolverConfig(dt=0.1, t_final=0.5, n_modes=3)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1)

        def broken(x, t):
            values = np.ones_like(np.asarray(x, dtype=float))
            return values * (np.nan if t > 0.25 else 1.0)

        zero = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
        field = CoefficientField(value=broken, space_derivative=zero, time_derivative=zero)
        with pytest.raises(SingularStepMatrixError) as info:
            solve_smgt_linear(
                params, basis, field, lambda x, t: np.ones_like(x), None, config
            )
        assert info.value.step >= 1
        assert info.value.time > 0.25


    @pytest.mark.parametrize("solve", [solve_smgt_linear, solve_westervelt_linearized])
    def test_nan_field_fails_at_the_first_step(self, solve):
        # NaN never equals itself, so such a field never passes for a constant one
        basis = build_basis(L, 3)
        config = SolverConfig(dt=0.1, t_final=0.5, n_modes=3)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1)
        field = CoefficientField(value=lambda x, t: np.full_like(np.asarray(x, dtype=float), np.nan))
        with pytest.raises(SingularStepMatrixError) as info:
            solve(params, basis, field, lambda x, t: np.ones_like(x), None, config)
        assert info.value.step == 1
        assert info.value.time == config.dt

    def test_non_finite_third_derivative_at_t0_fails_at_step_0(self):
        # coeff_ttt[0] = F(0)/tau is stored before the first step; a load that is
        # NaN at t = 0 only leaves every later step finite
        basis = build_basis(L, 3)
        config = SolverConfig(dt=0.1, t_final=0.5, n_modes=3)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1)

        def source(x, t):
            return np.full_like(np.asarray(x, dtype=float), np.nan if t == 0.0 else t)

        with pytest.raises(SingularStepMatrixError) as info:
            solve_smgt_linear(params, basis, constant_field(1.0), source, None, config)
        assert (info.value.step, info.value.time) == (0, 0.0)
        assert info.value.__cause__ is None

    def test_singular_steady_member_fails_alone(self):
        # alpha = 0 leaves the order-2 step matrix a zero row (mode 0 has no stiffness):
        # the stacked inverse raises, the batch inverts one member at a time, and the
        # healthy member keeps the bits of its lone run
        basis = build_basis(L, 4)
        config = SolverConfig(dt=0.1, t_final=1.0, n_modes=4)
        members = [ModelParams(c2=1.0, delta=delta, tau=0.0) for delta in (1.0, 0.8)]

        def source(x, t):
            return np.cos(np.asarray(x, dtype=float)) + t

        bc = BoundaryKind.PURE_NEUMANN
        members, quad, loads = _prepare_data(2, members, basis, source, None, config, bc)
        alpha = np.ones((2, config.n_steps + 1, quad.count))
        alpha[1] = 0.0
        masses = TimeVaryingMass(basis, quad, alpha)
        assert masses.constant
        (traj, healthy), (_, failure) = _integrate(2, members, basis, masses, loads, config, bc)
        assert healthy is None
        assert isinstance(failure, SingularStepMatrixError)
        assert (failure.step, failure.time) == (1, config.dt)
        assert type(failure.__cause__) is np.linalg.LinAlgError
        lone = solve_westervelt_linearized(
            members[0], basis, constant_field(1.0), source, None, config
        )
        assert np.array_equal(traj.coeff, lone.coeff)
        assert np.array_equal(traj.coeff_t, lone.coeff_t)
        assert np.array_equal(traj.coeff_tt, lone.coeff_tt)


class TestNestedLevels:
    """Refinement levels of one run, stepped as one constant batch on nested grids."""

    @staticmethod
    def levels(order, params, basis, f, config, bc, count, alpha=None):
        # the levels config.dt / 2**l, l < count, as one batch as ``mms`` builds it: one row
        # per level, finest first, reading every 2**(count - 1 - l)-th load of the finest grid
        finest = replace(config, dt=config.dt / 2 ** (count - 1))
        members, quad, loads = _prepare_data(order, [params], basis, f, None, finest, bc)
        if alpha is None:
            alpha = np.ones((1, finest.n_steps + 1, quad.count))
        strides = 2 ** np.arange(count)
        nested = np.zeros((count, finest.n_steps + 1, basis.n))
        for row, stride in enumerate(strides):
            nested[row, : finest.n_steps // stride + 1] = loads[0, ::stride]
        masses = TimeVaryingMass(basis, quad, alpha)
        return _integrate(order, members * count, basis, masses, nested, finest, bc, 1, strides)

    @pytest.mark.parametrize("count", [2, 5])
    @pytest.mark.parametrize("bc", [BoundaryKind.PURE_NEUMANN, BoundaryKind.MIXED])
    @pytest.mark.parametrize(
        "order, solve", [(3, solve_smgt_linear), (2, solve_westervelt_linearized)]
    )
    def test_every_level_equals_its_lone_run(self, order, solve, bc, count):
        basis = build_basis(L, 6)
        config = SolverConfig(dt=0.1, t_final=0.5, n_modes=6)
        beta = 0.5 if bc is BoundaryKind.MIXED else 0.0
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1, beta=beta)
        source = smgt_forcing(params)
        results = self.levels(order, params, basis, source, config, bc, count)
        finest = results[0][0]
        for row, (traj, failure) in enumerate(results):
            level = count - 1 - row
            lone_config = replace(config, dt=config.dt / 2**level)
            lone = solve(params, basis, constant_field(1.0), source, None, lone_config, bc)
            assert failure is None
            assert traj.params == lone.params
            assert np.array_equal(traj.times, lone.times)
            # level l reads every 2**(count - 1 - l)-th time of the finest grid
            assert np.array_equal(traj.times, finest.times[:: 2**row])
            for name in ("coeff", "coeff_t", "coeff_tt"):
                assert np.array_equal(getattr(traj, name), getattr(lone, name)), name
            if order == 3:
                assert np.array_equal(traj.coeff_ttt, lone.coeff_ttt)
            else:
                assert traj.coeff_ttt is None and lone.coeff_ttt is None
            # a row leaves the loop at its horizon: nothing is stored past its last step
            stored = traj.coeff.base
            assert not stored[:, row, traj.n_steps + 2 :].any()

    def test_a_changing_mass_keeps_one_grid(self):
        basis = build_basis(L, 4)
        config = SolverConfig(dt=0.1, t_final=0.5, n_modes=4)
        params = ModelParams(c2=1.0, delta=1.0, tau=0.1)
        alpha = 1.0 + config.times[None, :, None] * np.ones((1, 1, 16)) / 8.0
        with pytest.raises(ValueError, match="nested grids"):
            self.levels(3, params, basis, None, config, BoundaryKind.PURE_NEUMANN, 2, alpha)


class TestWesterveltSnapshot:
    def test_tau_reset_in_stored_params(self):
        basis = build_basis(L, 4)
        params = ModelParams(c2=1.0, delta=0.7, tau=0.3)
        config = SolverConfig(dt=0.01, t_final=0.2, n_modes=4)
        traj = solve_westervelt_linearized(
            params, basis, constant_field(1.0), None, None, config
        )
        assert traj.params.tau == 0.0
        assert traj.params.b == params.delta
        assert traj.coeff_ttt is None
