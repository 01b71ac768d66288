import math

import numpy as np
import pytest

from lienardqm.errors import DomainError, OverflowGuardError
from lienardqm.params import AmbiguityParams, PhysicalParams, derive_params
from lienardqm.specfun import hermite, quadrature_nodes
from lienardqm.wavefn import (gamma_asymptotic_check, laguerre_hermite_limit,
                              lho_psi, limit_deviation, norm_const_log,
                              overlap_matrix, p_of_y, psi, support_window,
                              y_of_p)

PHYS = PhysicalParams(omega=1.0, k=1.0)
HARMONIC = PhysicalParams(omega=1.0, k=0.0)
AMB0 = AmbiguityParams(alpha=0.0, gamma=0.0)
AMB19 = AmbiguityParams(alpha=19.0, gamma=1.0)


def _momentum_quadrature(phys, derived, n):
    # direct quadrature in p over the support window; independent of the
    # y-Jacobian route used by overlap_matrix
    lo, hi = support_window(phys, derived, n)
    nodes, weights = quadrature_nodes(hi - lo, 160, 10)
    return nodes + lo, weights


# ------------------------------------------------------------- normalization

def test_states_are_normalized_by_quadrature():
    derived = derive_params(PHYS, AMB19)
    for n in range(5):
        p, w = _momentum_quadrature(PHYS, derived, n)
        norm = float(np.sum(w * psi(PHYS, derived, n, p) ** 2))
        assert norm == pytest.approx(1.0, abs=1e-8)


def test_lho_psi_closed_form_constant():
    # psi_n = (pi hbar omega)^(-1/4) (2^n n!)^(-1/2)
    #         * exp(-p^2 / 2 hbar omega) H_n(p / sqrt(hbar omega))
    phys = PhysicalParams(omega=2.0, k=0.0)
    hw = phys.hbar_omega
    for p in (0.0, 0.3, -1.7):
        for n in range(5):
            constant = ((math.pi * hw) ** -0.25
                        / math.sqrt(2.0 ** n * math.factorial(n)))
            expected = (constant * math.exp(-p * p / (2.0 * hw))
                        * hermite(n, p / math.sqrt(hw)))
            assert lho_psi(phys, n, p) == pytest.approx(expected, rel=1e-14,
                                                        abs=1e-300)


def test_harmonic_states_normalized():
    half = 8.0
    nodes, weights = quadrature_nodes(2 * half, 64, 10)
    p = nodes - half
    for n in range(5):
        norm = float(np.sum(weights * lho_psi(HARMONIC, n, p) ** 2))
        assert norm == pytest.approx(1.0, abs=1e-8)


# ----------------------------------------------------------------- evaluation

def test_psi_vanishes_toward_domain_boundary():
    derived = derive_params(PHYS, AMB19)
    assert abs(psi(PHYS, derived, 0, 3.0 - 1e-9)) < 1e-80
    with pytest.raises(DomainError):
        psi(PHYS, derived, 0, 3.0)


def test_psi_node_counts_match_level():
    derived = derive_params(PHYS, AMB19)
    for n in range(5):
        lo, hi = support_window(PHYS, derived, n)
        p = np.linspace(lo, hi, 4001)
        values = psi(PHYS, derived, n, p)
        strong = values[np.abs(values) > 1e-8 * np.max(np.abs(values))]
        changes = int(np.sum(np.sign(strong[1:]) * np.sign(strong[:-1]) < 0))
        assert changes == n


def test_boundary_decay_beyond_support():
    # below 1e-12 once y exceeds the quadrature cutoff 4 lam + 40 n + 100;
    # at the tighter edge 2 lam + 40 n + 80 the n = 0 state still sits at
    # ~1e-11, so that is the honest decay scale
    derived = derive_params(PHYS, AMB19)
    for n in range(5):
        y_edge = 4.0 * derived.lam + 40.0 * n + 100.0
        p_edge = p_of_y(PHYS, derived, y_edge)
        assert abs(psi(PHYS, derived, n, p_edge)) < 1e-12
    tight = abs(psi(PHYS, derived, 0,
                    p_of_y(PHYS, derived, 2.0 * derived.lam + 80.0)))
    assert 1e-13 < tight < 1e-10


def test_variable_change_round_trip():
    derived = derive_params(PHYS, AMB19)
    p = np.linspace(-20.0, 2.9, 57)
    np.testing.assert_allclose(p_of_y(PHYS, derived, y_of_p(PHYS, derived, p)),
                               p, rtol=1e-12, atol=1e-12)


# ------------------------------------------------------------- orthonormality

def test_overlap_matrix_identity():
    for phys, amb in ((PhysicalParams(omega=1.0, k=1.0), AMB0),
                      (PhysicalParams(omega=1.0, k=1.0), AMB19),
                      (PhysicalParams(omega=2.0, k=1.0), AMB0),
                      (PhysicalParams(omega=2.0, k=1.0), AMB19)):
        derived = derive_params(phys, amb)
        gram = overlap_matrix(phys, derived, 4)
        assert np.max(np.abs(gram - np.eye(5))) < 1e-8
        assert np.max(np.abs(np.diag(gram) - 1.0)) < 1e-8


# ------------------------------------------------------------ harmonic branch

def test_lho_psi_values():
    assert lho_psi(HARMONIC, 0, 0.0) == pytest.approx(math.pi ** -0.25,
                                                      rel=1e-14)
    assert lho_psi(HARMONIC, 0, 0.0) == pytest.approx(0.7511255444649425,
                                                      abs=1e-15)
    for n in (1, 3, 5):
        assert lho_psi(HARMONIC, n, 0.0) == 0.0  # odd parity


def test_psi_dispatches_to_harmonic_branch():
    p = np.linspace(-4.0, 4.0, 101)
    np.testing.assert_array_equal(psi(HARMONIC, None, 2, p),
                                  lho_psi(HARMONIC, 2, p))


# --------------------------------------------------------------- limit studies

def test_gamma_asymptotic_accuracy_decays():
    rows = gamma_asymptotic_check([10.0, 100.0, 1000.0])
    by_a = {a: max(err for aa, _, err in rows if aa == a)
            for a in (10.0, 100.0, 1000.0)}
    assert by_a[10.0] < 1e-2
    assert by_a[1000.0] < 1e-4
    assert by_a[10.0] > by_a[100.0] > by_a[1000.0]
    with pytest.raises(ValueError):
        gamma_asymptotic_check([5.0])


def test_laguerre_hermite_limit_frozen_deviations():
    # exact finite-size deviations (rational arithmetic):
    #   n=1: 1/(2 sqrt a) for every x; n=2 at x=1: 1/sqrt(a) + 1/(4a)
    rows = laguerre_hermite_limit(1, 1.0, [1e4, 1e6])
    assert rows[0][3] == pytest.approx(5.0e-3, rel=1e-9)
    assert rows[1][3] == pytest.approx(5.0e-4, rel=1e-9)
    rows = laguerre_hermite_limit(2, 1.0, [1e4, 1e6])
    assert rows[0][3] == pytest.approx(0.010025, rel=1e-9)
    assert rows[1][3] == pytest.approx(0.00100025, rel=1e-7)


def test_laguerre_hermite_limit_monotone_and_degenerate_cases():
    for a, scaled, target, dev in laguerre_hermite_limit(0, 0.7, [1e2, 1e4, 1e6]):
        assert scaled == 1.0 and target == 1.0 and dev == 0.0
    for n in (1, 2, 3):
        devs = [row[3] for row in laguerre_hermite_limit(n, 1.0, [1e4, 1e6])]
        assert devs[1] < devs[0]


def test_limit_deviation_monotone_along_k_sequence():
    for n in (0, 1):
        rows = limit_deviation(n, (1e-1, 1e-2, 1e-3), HARMONIC)
        devs = [dev for _, dev in rows]
        assert all(b < a for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 1e-3


def test_limit_deviation_validates_sequence():
    with pytest.raises(ValueError):
        limit_deviation(0, (1e-2, 1e-1), HARMONIC)
    with pytest.raises(ValueError):
        limit_deviation(0, (1e-1, 0.0), HARMONIC)


def test_overflow_guard():
    from lienardqm.wavefn import _guarded_exp
    assert _guarded_exp(10.0) == pytest.approx(math.exp(10.0))
    with pytest.raises(OverflowGuardError):
        _guarded_exp(701.0)
    with pytest.raises(OverflowGuardError):
        _guarded_exp(np.array([0.0, 800.0]))


def test_norm_const_log_against_sum_of_logs():
    # omega = k = hbar = 1 and alpha*gamma = 19 give a_script = 9 and
    # lam = sqrt(81 + 19) = 10 exactly, so N_n^2 = sqrt(9) * 2 n! / (20 + n)!
    derived = derive_params(PHYS, AMB19)
    assert derived.lam == 10.0
    for n in range(5):
        log_fact = math.fsum(math.log(j) for j in range(1, n + 1))
        log_gamma = math.fsum(math.log(j) for j in range(1, 21 + n))
        exact = 0.5 * (0.5 * math.log(9.0) + math.log(2.0) + log_fact
                       - log_gamma)
        assert norm_const_log(PHYS, derived, n) == pytest.approx(exact,
                                                                 rel=1e-14)


def test_psi_refuses_to_return_an_overflowed_recurrence():
    # at level 200 the Laguerre recurrence overflows to inf where the
    # exponential factor is 0, which would give NaN samples
    derived = derive_params(PHYS, AMB0)
    lo, hi = support_window(PHYS, derived, 200)
    with pytest.raises(OverflowGuardError, match="psi_200 .* lam = 9"):
        psi(PHYS, derived, 200, np.linspace(lo, hi, 101))
    with pytest.raises(OverflowGuardError, match="psi_400 .* k = 0"):
        psi(HARMONIC, None, 400, np.linspace(-6.0, 6.0, 101))
    lo, hi = support_window(PHYS, derived, 150)
    assert np.all(np.isfinite(psi(PHYS, derived, 150,
                                  np.linspace(lo, hi, 101))))


def test_extreme_deformation_scale_stays_in_range():
    # k = 1e-3 drives a_script to 9e6; the log assembly must stay finite and
    # normalized without tripping the guard
    phys = PhysicalParams(omega=1.0, k=1e-3)
    derived = derive_params(phys, AMB0)
    assert derived.a_script == pytest.approx(9e6)
    p = np.linspace(-4.0, 4.0, 101)
    values = psi(phys, derived, 0, p)
    assert np.all(np.isfinite(values))
    assert np.max(np.abs(values)) == pytest.approx(math.pi ** -0.25, abs=1e-3)
