import math

import numpy as np
import pytest

from lienardqm.specfun import (hermite, laguerre_assoc, quadrature_nodes,
                               weighted_laguerre_cutoff)


# ------------------------------------------------------------------ Laguerre

def _laguerre_series(n, alpha, y):
    # explicit series oracle: sum_m (-1)^m Gamma(n+alpha+1) /
    #   (Gamma(m+alpha+1) (n-m)! m!) * y^m
    # also returns the sum of term magnitudes, which sets the rounding
    # floor of the alternating sum
    total = 0.0
    magnitude = 0.0
    for m in range(n + 1):
        coef = math.exp(math.lgamma(n + alpha + 1.0)
                        - math.lgamma(m + alpha + 1.0)
                        - math.lgamma(n - m + 1.0) - math.lgamma(m + 1.0))
        term = (-1.0) ** m * coef * y ** m
        total += term
        magnitude += abs(term)
    return total, magnitude


def test_laguerre_seeds():
    assert laguerre_assoc(0, 3.7, 11.0) == 1.0
    assert laguerre_assoc(1, 2.5, 0.75) == pytest.approx(1.0 + 2.5 - 0.75, abs=1e-15)


def test_laguerre_low_degree_frozen_value():
    # L_2^0(y) = 1 - 2y + y^2/2 evaluated at y = 2 gives -1
    assert laguerre_assoc(2, 0.0, 2.0) == pytest.approx(-1.0, abs=1e-14)


def test_laguerre_against_series_oracle():
    for n in range(7):
        for alpha in (0.0, 0.5, 18.0, 20.0):
            for y in (0.1, 1.0, 7.5, 30.0):
                expected, magnitude = _laguerre_series(n, alpha, y)
                tol = 1e-12 * magnitude + 1e-12
                assert abs(laguerre_assoc(n, alpha, y) - expected) < tol


def _laguerre_deriv(n, alpha, y, order):
    """order-th derivative from d/dy L_n^a = -L_{n-1}^{a+1}."""
    if order > n:
        return np.zeros_like(y)
    return (-1.0) ** order * laguerre_assoc(n - order, alpha + order, y)


def test_laguerre_differential_equation_residual():
    # y L'' + (1 + alpha - y) L' + n L = 0 with recurrence derivatives
    y = np.linspace(0.05, 60.0, 400)
    for n in range(1, 7):
        for alpha in (0.0, 18.0, 20.0):
            val = laguerre_assoc(n, alpha, y)
            d1 = _laguerre_deriv(n, alpha, y, 1)
            d2 = _laguerre_deriv(n, alpha, y, 2)
            resid = y * d2 + (1.0 + alpha - y) * d1 + n * val
            scale = np.max(np.abs(val))
            assert np.max(np.abs(resid)) < 1e-8 * max(scale, 1.0)


def test_laguerre_derivative_against_finite_difference():
    h = 1e-6
    for n in (1, 3, 5):
        for y in (0.5, 4.0, 12.0):
            fd = (laguerre_assoc(n, 6.0, y + h) - laguerre_assoc(n, 6.0, y - h)) / (2 * h)
            assert _laguerre_deriv(n, 6.0, y, 1) == pytest.approx(fd, rel=1e-7)


def test_laguerre_orthogonality_by_quadrature():
    for alpha in (0.0, 18.0, 20.0):
        y_max = weighted_laguerre_cutoff(alpha, 6)
        nodes, weights = quadrature_nodes(y_max, int(y_max / 2.5), 10)
        log_weight = alpha * np.log(nodes) - nodes
        vals = np.array([laguerre_assoc(n, alpha, nodes) for n in range(7)])
        for n in range(7):
            norm_n = math.exp(math.lgamma(n + alpha + 1.0) - math.lgamma(n + 1.0))
            for m in range(n, 7):
                integral = float(np.sum(
                    weights * np.exp(log_weight) * vals[n] * vals[m]))
                if m == n:
                    assert integral == pytest.approx(norm_n, rel=1e-8)
                else:
                    norm_m = math.exp(math.lgamma(m + alpha + 1.0)
                                      - math.lgamma(m + 1.0))
                    assert abs(integral) / math.sqrt(norm_n * norm_m) < 1e-8


# ------------------------------------------------------------------- Hermite

def test_hermite_values():
    assert hermite(0, -2.3) == 1.0
    assert hermite(1, 3.0) == pytest.approx(6.0, abs=1e-15)
    assert hermite(2, 1.0) == pytest.approx(2.0, abs=1e-14)  # 4x^2 - 2


def test_hermite_explicit_forms():
    x = np.linspace(-3.0, 3.0, 61)
    np.testing.assert_allclose(hermite(3, x), 8 * x ** 3 - 12 * x, rtol=1e-13)
    np.testing.assert_allclose(hermite(4, x), 16 * x ** 4 - 48 * x ** 2 + 12,
                               rtol=1e-13, atol=1e-12)


def test_hermite_orthogonality_by_quadrature():
    # integral over [-L, L] of e^{-x^2} H_m H_n = delta_mn sqrt(pi) 2^n n!
    half = 9.0
    nodes, weights = quadrature_nodes(2.0 * half, 72, 10)
    x = nodes - half
    weight = np.exp(-x * x)
    vals = np.array([hermite(n, x) for n in range(7)])
    for n in range(7):
        exact_n = math.sqrt(math.pi) * 2.0 ** n * math.factorial(n)
        for m in range(n, 7):
            integral = float(np.sum(weights * weight * vals[n] * vals[m]))
            if m == n:
                assert integral == pytest.approx(exact_n, rel=1e-8)
            else:
                exact_m = math.sqrt(math.pi) * 2.0 ** m * math.factorial(m)
                assert abs(integral) / math.sqrt(exact_n * exact_m) < 1e-8


# ---------------------------------------------------------------- quadrature

def integrate_sampled(f, y_max, panels, order):
    """Integral of f over [0, y_max] with the composite rule."""
    nodes, weights = quadrature_nodes(y_max, panels, order)
    return float(np.dot(weights, f(nodes)))


def test_log_gamma_half_integer_against_quadrature():
    # integral of t^(-1/2) e^(-t) over (0, inf) is Gamma(1/2) = sqrt(pi);
    # substituting t = u^2 gives 2 * integral of e^(-u^2) du, a smooth
    # integrand for the composite rule
    val = integrate_sampled(lambda u: 2.0 * np.exp(-u * u), 12.0, 48, 10)
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_quadrature_exponential_closed_form():
    val = integrate_sampled(lambda y: np.exp(-y), 40.0, 64, 8)
    assert val == pytest.approx(1.0 - math.exp(-40.0), abs=1e-12)


def test_quadrature_weight_sum_and_positivity():
    for panels, order in ((1, 4), (5, 7), (64, 8), (13, 16)):
        nodes, weights = quadrature_nodes(37.5, panels, order)
        assert np.all(weights > 0.0)
        assert np.all((nodes > 0.0) & (nodes < 37.5))
        assert float(np.sum(weights)) == pytest.approx(37.5, rel=1e-14)


def test_quadrature_weighted_laguerre_norm_against_gamma():
    # integral of y^18 e^-y (L_0^18)^2 over [0, 200] is Gamma(19)
    lam = 9.0
    val = integrate_sampled(lambda y: np.exp(2 * lam * np.log(y) - y), 200.0, 64, 10)
    assert val == pytest.approx(math.exp(math.lgamma(2 * lam + 1.0)), rel=1e-10)


def test_quadrature_parameter_validation():
    with pytest.raises(ValueError):
        quadrature_nodes(0.0, 4, 8)
    with pytest.raises(ValueError):
        quadrature_nodes(10.0, 0, 8)
    with pytest.raises(ValueError):
        quadrature_nodes(10.0, 4, 3)
    with pytest.raises(ValueError):
        quadrature_nodes(10.0, 4, 17)


def test_gauss_legendre_exact_for_polynomials():
    # one panel of the order-6 rule on [0, 2] integrates degree <= 11
    # exactly; in u = y - 1 the exact moments over [-1, 1] are
    # (1 - (-1)^(deg + 1)) / (deg + 1)
    nodes, weights = quadrature_nodes(2.0, 1, 6)
    for deg in range(12):
        exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
        assert float(np.sum(weights * (nodes - 1.0) ** deg)) == pytest.approx(
            exact, abs=1e-14)
