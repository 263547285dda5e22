import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jmgt_lab import (
    InvalidParameters,
    ModelParams,
    SolverConfig,
    UnsupportedOrderError,
    WindowedSignal,
    signal_eval,
    validate_compatibility,
)

from helpers import fd_derivative

EPS = np.finfo(float).eps


def leibniz_derivative(sig: WindowedSignal, t: float, order: int) -> tuple[float, float]:
    """d^order/dt^order of A t^p e^(-sigma t) sin(omega t) by the three-factor Leibniz rule.

    Sums m!/(a! b! c!) (t^p)^(a) (e^(-sigma t))^(b) (sin omega t)^(c) over
    a + b + c = m, with sin's c-th derivative omega^c sin(omega t + c pi/2)
    taken as a signed sine or cosine; real arithmetic only, unlike the complex
    two-factor form of ``signal_eval``.  Returns the derivative and the sum of
    the terms' magnitudes, the scale of its rounding error.
    """
    p, sigma, omega = sig.onset_power, sig.decay_rate, sig.frequency
    quarter_turns = (math.sin, math.cos, lambda x: -math.sin(x), lambda x: -math.cos(x))
    terms = []
    for a in range(min(order, p) + 1):
        for b in range(order - a + 1):
            c = order - a - b
            multinomial = math.factorial(order) // (
                math.factorial(a) * math.factorial(b) * math.factorial(c)
            )
            power = math.perm(p, a) * t ** (p - a)
            decay = (-sigma) ** b * math.exp(-sigma * t)
            wave = omega**c * quarter_turns[c % 4](omega * t)
            terms.append(sig.amplitude * multinomial * power * decay * wave)
    return math.fsum(terms), math.fsum(abs(term) for term in terms)


class TestDerivedB:
    def test_paper_arithmetic(self):
        assert ModelParams(c2=4.0, delta=0.1, tau=0.5).b == pytest.approx(2.1, rel=1e-15)

    def test_tau_zero_collapses_to_delta(self):
        assert ModelParams(c2=1.0, delta=1.0, tau=0.0).b == 1.0

    def test_direct_substitution(self):
        assert ModelParams(c2=2.25, delta=0.01, tau=0.04).b == pytest.approx(0.1, rel=1e-15)

    def test_property_matches_function(self):
        params = ModelParams(c2=3.0, delta=0.2, tau=0.7)
        assert params.b == params.delta + params.tau * params.c2

    @given(
        c2=st.floats(1e-3, 1e3),
        delta=st.floats(1e-3, 1e3),
        tau=st.floats(0.0, 1e2),
    )
    @settings(max_examples=50, deadline=None)
    def test_b_at_least_delta(self, c2, delta, tau):
        params = ModelParams(c2=c2, delta=delta, tau=tau)
        assert params.b >= delta
        if tau == 0.0:
            assert params.b == delta

    def test_b_strictly_above_delta_for_positive_tau(self):
        assert ModelParams(c2=2.0, delta=0.5, tau=1e-6).b > 0.5


class TestParamValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(c2=0.0, delta=1.0, tau=0.1),
            dict(c2=-1.0, delta=1.0, tau=0.1),
            dict(c2=1.0, delta=0.0, tau=0.1),
            dict(c2=1.0, delta=1.0, tau=-0.1),
            dict(c2=1.0, delta=1.0, tau=0.1, beta=-1.0),
            dict(c2=1.0, delta=1.0, tau=float("nan")),
            dict(c2=1.0, delta=1.0, tau=0.1, beta=float("nan")),
            dict(c2=1.0, delta=1.0, tau=0.1, k=float("nan")),
            dict(c2=1.0, delta=1.0, tau=0.1, k=float("-inf")),
            dict(c2=float("inf"), delta=1.0, tau=0.1),
            dict(c2=1.0, delta=float("inf"), tau=0.1),
            dict(c2=1.0, delta=1.0, tau=float("inf")),
            dict(c2=1.0, delta=1.0, tau=0.1, beta=float("inf")),
        ],
    )
    def test_invalid_coefficients_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_solver_config_defaults(self):
        config = SolverConfig(dt=0.01, t_final=1.0, n_modes=8)
        assert config.quad_points == 32
        assert config.eval_grid == 64
        assert config.n_steps == 100
        assert [item.name for item in fields(SolverConfig)] == [
            "dt", "t_final", "n_modes", "picard_tol", "picard_max"
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=0.0, t_final=1.0, n_modes=4),
            dict(dt=2.0, t_final=1.0, n_modes=4),
            dict(dt=0.01, t_final=1.0, n_modes=0),
            dict(dt=0.01, t_final=1.0, n_modes=4, picard_tol=0.0),
            dict(dt=0.01, t_final=1.0, n_modes=4, picard_max=0),
            dict(dt=0.01, t_final=float("inf"), n_modes=4),
            dict(dt=0.01, t_final=float("nan"), n_modes=4),
            dict(dt=float("nan"), t_final=1.0, n_modes=4),
            dict(dt=float("inf"), t_final=1.0, n_modes=4),
            dict(dt=0.01, t_final=1.0, n_modes=4, picard_tol=float("inf")),
            dict(dt=0.01, t_final=1.0, n_modes=4, picard_tol=float("nan")),
            # the count fields are integers, and a bool is not one
            dict(dt=0.1, t_final=1.0, n_modes=4.5),
            dict(dt=0.1, t_final=1.0, n_modes=4.0),
            dict(dt=0.1, t_final=1.0, n_modes=True),
            dict(dt=0.1, t_final=1.0, n_modes=4, picard_max=2.5),
            dict(dt=0.1, t_final=1.0, n_modes=4, picard_max=True),
        ],
    )
    def test_invalid_solver_config_rejected(self, kwargs):
        with pytest.raises(InvalidParameters):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("field", ["n_modes", "picard_max"])
    def test_count_field_that_is_not_an_integer_is_reported(self, field):
        kwargs = dict(dt=0.1, t_final=1.0, n_modes=4)
        kwargs[field] = 4.5 if field == "n_modes" else False
        with pytest.raises(InvalidParameters) as info:
            SolverConfig(**kwargs)
        assert info.value.violations == [(field, f"must be an integer, got {kwargs[field]}")]

    def test_numpy_integers_are_integers(self):
        config = SolverConfig(dt=0.1, t_final=1.0, n_modes=np.int64(4), picard_max=np.int32(3))
        assert config.quad_points == 16
        assert config.eval_grid == 32

    @pytest.mark.parametrize("n_modes, quad_points, eval_grid", [(32, 128, 256), (8, 32, 64)])
    def test_sizes_follow_n_modes_under_replace(self, n_modes, quad_points, eval_grid):
        config = replace(SolverConfig(dt=0.005, t_final=2.0, n_modes=16), n_modes=n_modes)
        assert (config.quad_points, config.eval_grid) == (quad_points, eval_grid)

    @pytest.mark.parametrize("size", ["quad_points", "eval_grid"])
    def test_derived_sizes_are_not_settable(self, size):
        with pytest.raises(TypeError):
            SolverConfig(dt=0.1, t_final=1.0, n_modes=4, **{size: 64})
        config = SolverConfig(dt=0.1, t_final=1.0, n_modes=4)
        with pytest.raises(AttributeError):
            setattr(config, size, 64)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(amplitude=float("nan"), frequency=1.0),
            dict(amplitude=1.0, frequency=float("inf")),
            dict(amplitude=1.0, frequency=1.0, decay_rate=float("nan")),
            dict(amplitude=1.0, frequency=1.0, decay_rate=float("inf")),
            dict(amplitude=1.0, frequency=1.0, decay_rate=-0.5),
            dict(amplitude=1.0, frequency=1.0, onset_power=-1),
            dict(amplitude=1.0, frequency=1.0, onset_power=5.5),
            dict(amplitude=1.0, frequency=1.0, onset_power=float("inf")),
            dict(amplitude=1.0, frequency=1.0, onset_power=True),
            dict(amplitude=1.0, frequency=1.0, onset_power=5.0),
        ],
    )
    def test_invalid_signal_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WindowedSignal(**kwargs)

    def test_every_bad_field_is_listed(self):
        with pytest.raises(InvalidParameters) as info:
            SolverConfig(dt=-0.1, t_final=float("inf"), n_modes=0, picard_max=0)
        assert [name for name, _ in info.value.violations] == [
            "dt", "t_final", "n_modes", "picard_max"
        ]
        assert dict(info.value.violations)["t_final"] == "must be finite, got inf"
        assert isinstance(info.value, ValueError)
        with pytest.raises(InvalidParameters) as info:
            ModelParams(c2=0.0, delta=float("nan"), tau=-1.0, k=float("inf"), beta=-2.0)
        assert [name for name, _ in info.value.violations] == ["c2", "delta", "tau", "k", "beta"]

    @pytest.mark.parametrize("dt", [0.3, 0.15, 0.0099])
    def test_step_that_does_not_divide_horizon_rejected(self, dt):
        with pytest.raises(ValueError, match="divide"):
            SolverConfig(dt=dt, t_final=1.0, n_modes=4)

    @pytest.mark.parametrize(
        "dt, t_final, steps",
        [(0.1, 1.0, 10), (1 / 3, 1.0, 3), (0.02, 0.5, 25), (1 / 200, 2.0, 400)],
    )
    def test_dividing_step_lands_on_horizon(self, dt, t_final, steps):
        config = SolverConfig(dt=dt, t_final=t_final, n_modes=4)
        assert config.n_steps == steps
        assert config.dt * config.n_steps == pytest.approx(t_final, rel=1e-12)


class TestSignalEval:
    def test_vanishes_at_origin_up_to_fourth_order(self):
        sig = WindowedSignal(amplitude=1.0, frequency=1.0, onset_power=5, decay_rate=0.0)
        for order in range(5):
            assert signal_eval(sig, 0.0, order) == 0.0

    def test_zero_frequency_means_zero_signal(self):
        sig = WindowedSignal(amplitude=1.0, frequency=0.0, onset_power=5, decay_rate=0.3)
        for t in (0.0, 0.5, 2.0, 7.3):
            for order in range(5):
                assert signal_eval(sig, t, order) == 0.0

    def test_order_zero_matches_closed_form(self):
        sig = WindowedSignal(amplitude=2.0, frequency=3.0, onset_power=5, decay_rate=1.0)
        t = 0.7
        expected = 2.0 * t**5 * math.exp(-t) * math.sin(3.0 * t)
        assert signal_eval(sig, t, 0) == pytest.approx(expected, rel=1e-14)

    def test_third_derivative_against_fd_oracle(self):
        sig = WindowedSignal(amplitude=2.0, frequency=3.0, onset_power=5, decay_rate=1.0)
        value = signal_eval(sig, 0.7, 3)
        oracle, floor = fd_derivative(lambda t: signal_eval(sig, t, 0), 0.7, 3, h=0.01)
        assert abs(value - oracle) <= 1e-7 * abs(oracle) + floor

    @given(
        amplitude=st.floats(0.5, 2.0),
        frequency=st.floats(0.5, 3.0),
        decay=st.floats(0.0, 2.0),
        power=st.integers(5, 6),
        t=st.floats(0.1, 3.0),
        order=st.integers(1, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_all_derivatives_against_leibniz_oracle(
        self, amplitude, frequency, decay, power, t, order
    ):
        sig = WindowedSignal(amplitude, frequency, power, decay)
        value = signal_eval(sig, t, order)
        oracle, scale = leibniz_derivative(sig, t, order)
        assert abs(value - oracle) <= 64.0 * EPS * scale

    def test_leibniz_oracle_on_a_former_fd_failure(self):
        # the 11-point FD oracle missed its bound here by 20 %; a 50-digit
        # evaluation gives -321.80741367524871
        sig = WindowedSignal(1.0, 1.1863202946559266, 5, 0.0)
        oracle, scale = leibniz_derivative(sig, 2.65625, 4)
        assert abs(oracle - -321.80741367524871) <= 4.0 * EPS * scale
        assert abs(signal_eval(sig, 2.65625, 4) - oracle) <= 64.0 * EPS * scale

    @given(
        amplitude=st.floats(-3.0, 3.0),
        frequency=st.floats(0.0, 4.0),
        t=st.floats(0.0, 5.0),
        order=st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_linearity_in_amplitude(self, amplitude, frequency, t, order):
        base = WindowedSignal(amplitude, frequency, 5, 0.4)
        doubled = WindowedSignal(2.0 * amplitude, frequency, 5, 0.4)
        left = signal_eval(doubled, t, order)
        right = 2.0 * signal_eval(base, t, order)
        # doubling is exact in IEEE arithmetic outside the subnormal range
        assert left == right or max(abs(left), abs(right)) < 1e-300

    def test_unsupported_order_raises(self):
        sig = WindowedSignal(1.0, 1.0, 5, 0.0)
        with pytest.raises(UnsupportedOrderError):
            signal_eval(sig, 0.5, 5)
        with pytest.raises(UnsupportedOrderError):
            signal_eval(sig, 0.5, -1)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            signal_eval(WindowedSignal(1.0, 1.0, 5, 0.0), -0.1, 0)

    def test_array_evaluation_matches_scalars(self):
        sig = WindowedSignal(1.5, 2.0, 5, 0.7)
        times = np.array([0.0, 0.3, 1.1, 2.4])
        batch = signal_eval(sig, times, 2)
        singles = [signal_eval(sig, float(t), 2) for t in times]
        np.testing.assert_allclose(batch, singles, rtol=0, atol=0)


class TestCompatibility:
    def test_standard_signal_compatible_to_fourth_order(self):
        sig = WindowedSignal(1.0, 2.0, 5, 1.0)
        assert validate_compatibility(sig, 4) == []

    def test_zero_amplitude_compatible_for_any_order(self):
        sig = WindowedSignal(0.0, 2.0, 2, 1.0)
        for order in (2, 3, 4):
            assert validate_compatibility(sig, order) == []

    def test_low_onset_power_violations(self):
        # t^2 * sin(omega t) ~ omega t^3 near zero: derivatives 0..2 vanish,
        # the third is 6*A*omega != 0.
        sig = WindowedSignal(1.0, 1.0, 2, 0.0)
        assert validate_compatibility(sig, 4) == [3]
        assert validate_compatibility(sig, 3) == []

    def test_required_order_validated(self):
        with pytest.raises(ValueError):
            validate_compatibility(WindowedSignal(1.0, 1.0, 5, 0.0), 5)
