import math

import numpy as np
import pytest

from lienardqm.classical import (OscillatorState, analytic_solution,
                                 analytic_velocity, conjugate_momentum,
                                 hamiltonian_classical, integrate_lienard,
                                 jlm_condition_residual, jlm_sigma_roots,
                                 lagrangian, lienard_rhs,
                                 phase_constraint_value)
from lienardqm.errors import (AmplitudeRangeError, ConstraintViolationError,
                              DomainError)
from lienardqm.params import PhysicalParams

PHYS = PhysicalParams(omega=1.0, k=1.0)
HARMONIC = PhysicalParams(omega=1.0, k=0.0)


# ----------------------------------------------------------------- equation

def test_rhs_values():
    assert lienard_rhs(PHYS, OscillatorState(0.0, 0.0)) == 0.0
    assert lienard_rhs(HARMONIC, OscillatorState(1.0, 5.0)) == -1.0
    # -1 - 1/9 - 1
    assert lienard_rhs(PHYS, OscillatorState(1.0, 1.0)) == pytest.approx(
        -19.0 / 9.0, abs=1e-15)


def test_analytic_solution_values():
    assert analytic_solution(PHYS, 1.0, 0.0, 0.0) == 0.0
    # cos(pi/2) = 0 kills the denominator correction
    assert analytic_solution(PHYS, 1.0, 0.0, math.pi / 2) == pytest.approx(
        1.0, abs=1e-15)
    t = np.linspace(0.0, 7.0, 50)
    np.testing.assert_allclose(analytic_solution(HARMONIC, 2.0, 0.0, t),
                               2.0 * np.sin(t), rtol=1e-14, atol=1e-14)


def test_amplitude_range_enforced():
    with pytest.raises(AmplitudeRangeError):
        analytic_solution(PHYS, 3.0, 0.0, 0.0)
    with pytest.raises(AmplitudeRangeError):
        analytic_velocity(PHYS, 5.0, 0.0, 0.0)
    # k = 0 admits any amplitude
    analytic_solution(HARMONIC, 50.0, 0.0, 1.0)


def test_analytic_velocity_against_finite_difference():
    h = 1e-6
    for t in (0.0, 0.4, 1.7, 3.9):
        fd = (analytic_solution(PHYS, 1.0, 0.3, t + h)
              - analytic_solution(PHYS, 1.0, 0.3, t - h)) / (2.0 * h)
        assert analytic_velocity(PHYS, 1.0, 0.3, t) == pytest.approx(fd, abs=1e-8)


def test_closed_form_satisfies_equation():
    # second central difference of the closed form plugged into the equation
    t = np.linspace(0.05, 2.0 * math.pi, 300)
    d = 1e-4
    x = analytic_solution(PHYS, 1.0, 0.0, t)
    xp = analytic_solution(PHYS, 1.0, 0.0, t + d)
    xm = analytic_solution(PHYS, 1.0, 0.0, t - d)
    acc = (xp - 2.0 * x + xm) / d ** 2
    vel = (xp - xm) / (2.0 * d)
    resid = acc + PHYS.k * x * vel + PHYS.k ** 2 / 9.0 * x ** 3 + x
    assert np.max(np.abs(resid)) < 1e-6


def test_closed_form_period_invariance():
    t = np.linspace(0.0, 6.0, 100)
    a = analytic_solution(PHYS, 1.0, 0.2, t)
    b = analytic_solution(PHYS, 1.0, 0.2, t + 2.0 * math.pi)
    np.testing.assert_allclose(a, b, atol=1e-10)


# --------------------------------------------------------------- integration

def _oracle_initial(phys, amplitude):
    return OscillatorState(x=analytic_solution(phys, amplitude, 0.0, 0.0),
                           v=analytic_velocity(phys, amplitude, 0.0, 0.0))


def test_rk4_matches_closed_form_over_one_period():
    traj = integrate_lienard(PHYS, _oracle_initial(PHYS, 1.0),
                             2.0 * math.pi, 1e-3)
    exact = analytic_solution(PHYS, 1.0, 0.0, traj.times)
    assert np.max(np.abs(traj.positions - exact)) < 1e-6


def test_rk4_harmonic_limit():
    traj = integrate_lienard(HARMONIC, OscillatorState(1.0, 0.0), 5.0, 1e-3)
    np.testing.assert_allclose(traj.positions, np.cos(traj.times), atol=1e-9)


def test_rk4_fourth_order_convergence():
    errors = []
    for step in (0.02, 0.01):
        traj = integrate_lienard(PHYS, _oracle_initial(PHYS, 1.0),
                                 2.0 * math.pi, step)
        exact = analytic_solution(PHYS, 1.0, 0.0, traj.times)
        errors.append(np.max(np.abs(traj.positions - exact)))
    ratio = errors[0] / errors[1]
    assert 8.0 < ratio < 32.0  # 16x within a factor of two


def test_energy_conserved_along_trajectory():
    traj = integrate_lienard(PHYS, _oracle_initial(PHYS, 1.0),
                             2.0 * math.pi, 1e-3)
    energy = np.array([
        hamiltonian_classical(PHYS, x, conjugate_momentum(PHYS, OscillatorState(x, v)))
        for x, v in zip(traj.positions, traj.velocities)])
    assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) < 1e-8


def test_integration_argument_validation():
    with pytest.raises(ValueError):
        integrate_lienard(PHYS, OscillatorState(0.0, 0.0), 1.0, -1e-3)
    with pytest.raises(ValueError):
        integrate_lienard(PHYS, OscillatorState(0.0, 0.0), 0.0, 1e-3)


def test_integration_reports_constraint_violation():
    # strongly negative initial velocity leaves the admissible region
    bad = OscillatorState(x=0.0, v=-2.0)
    with pytest.raises(ConstraintViolationError):
        integrate_lienard(PHYS, bad, 1.0, 1e-3)


# ------------------------------------------------- Lagrangian / Hamiltonian

def test_lagrangian_values():
    assert lagrangian(PHYS, OscillatorState(0.0, 0.0)) == 0.0
    with pytest.raises(ConstraintViolationError):
        lagrangian(PHYS, OscillatorState(0.0, -2.0))  # 1 - 4/3 < 0


def test_lagrangian_harmonic_limit_sequence():
    # fixed state, k -> 0: approaches (v^2 - x^2)/2 = -1/2 monotonically
    target = -0.5
    state = OscillatorState(1.0, 0.0)
    devs = []
    for k in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        value = lagrangian(PhysicalParams(omega=1.0, k=k), state)
        devs.append(abs(value - target))
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 1e-6
    assert lagrangian(HARMONIC, state) == target


def test_conjugate_momentum_values():
    assert conjugate_momentum(PHYS, OscillatorState(0.0, 0.0)) == 0.0
    # S = 1 + 2*(4/3)/3 = 17/9, p = 3 (1 - 3/sqrt(17))
    expected = 3.0 * (1.0 - 3.0 / math.sqrt(17.0))
    assert conjugate_momentum(PHYS, OscillatorState(0.0, 4.0 / 3.0)) == \
        pytest.approx(expected, rel=1e-15)
    assert conjugate_momentum(HARMONIC, OscillatorState(2.0, 0.7)) == 0.7


def test_momentum_bounded_on_valid_states():
    rng = np.random.default_rng(3)
    found = 0
    while found < 200:
        x, v = rng.uniform(-3, 3), rng.uniform(-1.4, 8)
        if phase_constraint_value(PHYS, x, v) <= 0.0:
            continue
        found += 1
        assert conjugate_momentum(PHYS, OscillatorState(x, v)) <= 3.0


def test_hamiltonian_values_and_domain():
    assert hamiltonian_classical(PHYS, 0.0, 0.0) == 0.0
    assert hamiltonian_classical(PHYS, 2.0, 0.0) == 2.0
    with pytest.raises(DomainError):
        hamiltonian_classical(PHYS, 0.0, 3.0)
    with pytest.raises(DomainError):
        hamiltonian_classical(PHYS, 0.0, 4.0)


def test_array_calls_match_scalar_calls():
    traj = integrate_lienard(PHYS, _oracle_initial(PHYS, 1.0),
                             2.0 * math.pi, 1e-3)
    x, v = traj.positions, traj.velocities
    p = conjugate_momentum(PHYS, OscillatorState(x, v))
    energy = hamiltonian_classical(PHYS, x, p)
    p_each = np.array([conjugate_momentum(PHYS, OscillatorState(a, b))
                       for a, b in zip(x, v)])
    energy_each = np.array([hamiltonian_classical(PHYS, a, b)
                            for a, b in zip(x, p_each)])
    assert np.all(np.abs(p - p_each) <= np.spacing(np.abs(p_each)))
    assert np.all(np.abs(energy - energy_each) <= np.spacing(energy_each))


def test_array_calls_reject_any_bad_sample():
    # (0, -2) has S = -1/3; p = 3 is the momentum bound 3 omega^2 / k
    with pytest.raises(ConstraintViolationError, match=r"x=0\.0, v=-2\.0"):
        conjugate_momentum(PHYS, OscillatorState(np.zeros(3),
                                                 np.array([0.0, -2.0, 0.5])))
    with pytest.raises(DomainError):
        hamiltonian_classical(PHYS, np.zeros(3), np.array([0.0, 3.0, 1.0]))


def test_legendre_transform_identity():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 100:
        x, v = rng.uniform(-2, 2), rng.uniform(-1.2, 4)
        if phase_constraint_value(PHYS, x, v) <= 1e-3:
            continue
        checked += 1
        state = OscillatorState(x, v)
        p = conjugate_momentum(PHYS, state)
        lhs = hamiltonian_classical(PHYS, x, p)
        rhs = p * v - lagrangian(PHYS, state)
        assert abs(lhs - rhs) < 1e-12


def test_hamiltonian_harmonic_limit_sequence():
    x, p = 1.0, 0.4
    target = 0.5 * (p ** 2 + x ** 2)
    devs = []
    for k in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        value = hamiltonian_classical(PhysicalParams(omega=1.0, k=k), x, p)
        devs.append(abs(value - target))
    assert all(b < a for a, b in zip(devs, devs[1:]))


# ------------------------------------------------------------ JLM condition

def test_sigma_roots():
    roots = jlm_sigma_roots(PHYS)
    assert roots[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert roots[1] == pytest.approx(2.0 / 3.0, abs=1e-15)
    roots2 = jlm_sigma_roots(PhysicalParams(omega=2.3, k=0.7))
    assert roots2 == pytest.approx(roots)
    # the roots do not depend on omega: no grid check that rounding defeats
    # at large omega stands between them and the caller
    assert jlm_sigma_roots(PhysicalParams(omega=30, k=1)) == roots


def test_sigma_condition_residual():
    xs = np.linspace(0.2, 3.0, 64)
    assert jlm_condition_residual(PHYS, 2.0 / 3.0, xs) < 1e-12
    assert jlm_condition_residual(PHYS, 1.0 / 3.0, xs) < 1e-12
    # sigma = 1/2 gives sigma(1-sigma) = 1/4 != 2/9 and a growing residual
    assert jlm_condition_residual(PHYS, 0.5, xs) > 1e-3
    assert abs(0.5 * (1.0 - 0.5) - 2.0 / 9.0) > 1e-2
