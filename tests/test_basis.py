import math

import numpy as np
import pytest

from jmgt_lab import (
    End,
    build_basis,
    build_quadrature,
    mode_matrix,
    project,
    trace_vector,
)


class TestQuadrature:
    def test_weights_sum_to_length(self):
        for length in (1.0, 2.0, math.pi, 10.0):
            quad = build_quadrature(length, 48)
            assert abs(quad.weights.sum() - length) < 1e-12

    def test_polynomial_exactness_up_to_stated_degree(self):
        length = 2.0
        quad = build_quadrature(length, 32)
        for degree in range(quad.degree + 1):
            exact = length ** (degree + 1) / (degree + 1)
            value = quad.weights @ quad.nodes**degree
            assert value == pytest.approx(exact, rel=1e-13)

    def test_minimum_node_count_honoured(self):
        quad = build_quadrature(1.0, 100)
        assert quad.count >= 100


class TestEigenpairs:
    def test_eigenvalues_on_pi_interval(self):
        basis = build_basis(math.pi, 4)
        np.testing.assert_allclose(basis.eigenvalues, [0.0, 1.0, 4.0, 9.0], atol=1e-14)

    def test_first_eigenvalue_unit_interval(self):
        basis = build_basis(1.0, 2)
        assert basis.eigenvalues[1] == pytest.approx(math.pi**2, rel=1e-15)

    def test_eigenvalues_strictly_increasing_from_zero(self):
        basis = build_basis(2.5, 12)
        assert basis.eigenvalues[0] == 0.0
        assert np.all(np.diff(basis.eigenvalues) > 0)

    @pytest.mark.parametrize("length,n", [(math.pi, 8), (2.0, 6), (1.0, 12)])
    def test_gram_matrix_is_identity(self, length, n):
        basis = build_basis(length, n)
        quad = build_quadrature(length, 4 * n)
        modes = mode_matrix(basis, quad.nodes)
        gram = np.einsum("iq,q,jq->ij", modes, quad.weights, modes)
        assert np.abs(gram - np.eye(n)).max() < 1e-12

    def test_stiffness_identity(self):
        # integral of w_i' w_j' equals lambda_i * delta_ij
        basis = build_basis(math.pi, 6)
        quad = build_quadrature(math.pi, 24)
        grads = mode_matrix(basis, quad.nodes, deriv=1)
        matrix = np.einsum("iq,q,jq->ij", grads, quad.weights, grads)
        assert np.abs(matrix - np.diag(basis.eigenvalues)).max() < 1e-12

    def test_derivative_vanishes_at_both_ends(self):
        basis = build_basis(2.0, 6)
        slopes = mode_matrix(basis, np.array([0.0, 2.0]), deriv=1)
        np.testing.assert_allclose(slopes, 0.0, atol=1e-12)


class TestEvalMode:
    """Point values of single modes, read from rows of ``mode_matrix``."""

    def test_constant_mode_has_zero_derivative(self):
        basis = build_basis(math.pi, 4)
        slopes = mode_matrix(basis, np.array([0.0, 1.0, math.pi]), deriv=1)
        assert np.all(slopes[0] == 0.0)

    def test_value_at_left_end(self):
        basis = build_basis(math.pi, 4)
        assert mode_matrix(basis, 0.0)[2, 0] == pytest.approx(math.sqrt(2 / math.pi), rel=1e-15)

    def test_eigenrelation_for_second_derivative(self):
        basis = build_basis(math.pi, 4)
        xs = np.linspace(0.0, math.pi, 17)
        left = mode_matrix(basis, xs, deriv=2)[3]
        right = -9.0 * mode_matrix(basis, xs)[3]
        assert np.abs(left - right).max() < 1e-13

    @pytest.mark.parametrize("deriv", [-1, 3])
    def test_derivative_order_outside_range_rejected(self, deriv):
        basis = build_basis(1.0, 3)
        with pytest.raises(ValueError):
            mode_matrix(basis, np.array([0.5]), deriv=deriv)


class TestTrace:
    def test_right_end_alternating_signs(self):
        basis = build_basis(math.pi, 4)
        root = math.sqrt(2 / math.pi)
        traces = trace_vector(basis, End.RIGHT)
        assert traces[1] == pytest.approx(-root, rel=1e-15)
        assert traces[2] == pytest.approx(root, rel=1e-15)

    def test_constant_mode_trace(self):
        for length in (1.0, 2.0, math.pi):
            basis = build_basis(length, 2)
            expected = 1.0 / math.sqrt(length)
            assert trace_vector(basis, End.LEFT)[0] == pytest.approx(expected, rel=1e-15)
            assert trace_vector(basis, End.RIGHT)[0] == pytest.approx(expected, rel=1e-15)

    def test_trace_vector_matches_pointwise_evaluation(self):
        basis = build_basis(2.0, 8)
        for end, x in ((End.LEFT, 0.0), (End.RIGHT, 2.0)):
            np.testing.assert_allclose(
                trace_vector(basis, end), mode_matrix(basis, x)[:, 0], rtol=0, atol=1e-14
            )


class TestProject:
    def test_projection_of_basis_mode_is_unit_vector(self):
        basis = build_basis(math.pi, 6)
        quad = build_quadrature(math.pi, 24)
        coeffs = project(basis, quad, lambda x: mode_matrix(basis, x)[3])
        expected = np.zeros(6)
        expected[3] = 1.0
        assert np.abs(coeffs - expected).max() < 1e-12

    def test_projection_of_zero_function(self):
        basis = build_basis(1.0, 4)
        quad = build_quadrature(1.0, 16)
        np.testing.assert_array_equal(project(basis, quad, lambda x: 0.0 * x), np.zeros(4))

    def test_linear_function_coefficients(self):
        # c_0 = integral of x / sqrt(pi) = pi^(3/2)/2; higher modes against a
        # high-resolution quadrature oracle.
        basis = build_basis(math.pi, 5)
        quad = build_quadrature(math.pi, 20)
        coeffs = project(basis, quad, lambda x: x)
        assert coeffs[0] == pytest.approx(math.pi**1.5 / 2.0, rel=1e-13)
        oracle_quad = build_quadrature(math.pi, 200)
        oracle = project(basis, oracle_quad, lambda x: x)
        np.testing.assert_allclose(coeffs, oracle, atol=1e-12)

    def test_parseval_on_the_span(self):
        rng = np.random.default_rng(7)
        basis = build_basis(2.0, 8)
        quad = build_quadrature(2.0, 32)
        coeffs = rng.standard_normal(8)
        modes = mode_matrix(basis, quad.nodes)

        def fn(x):
            return coeffs @ mode_matrix(basis, x)

        projected = project(basis, quad, fn)
        l2_quad = math.sqrt(quad.weights @ (coeffs @ modes) ** 2)
        assert np.linalg.norm(projected) == pytest.approx(l2_quad, abs=1e-10)
