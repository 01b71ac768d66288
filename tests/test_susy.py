import numpy as np
import pytest

from lienardqm.errors import ConstraintViolationError, DomainError
from lienardqm.params import (SQRT2, AmbiguityParams, PhysicalParams,
                              derive_params)
from lienardqm.quantize import MomentumGrid, SampledFunction
from lienardqm.susy import (Superpotential, apply_lowering,
                            apply_raising, ground_state_closed_form,
                            ground_state_energy, ground_state_exponent,
                            partner_minus, partner_potentials,
                            partner_potentials_from_definitions,
                            partner_shift, riccati_residual,
                            shape_invariance_remainder, spectrum,
                            superpotential_eval)
from lienardqm.wavefn import psi, support_window

PHYS = PhysicalParams(omega=1.0, k=1.0)
AMB0 = AmbiguityParams(alpha=0.0, gamma=0.0)
AMB19 = AmbiguityParams(alpha=19.0, gamma=1.0)

PARAM_SETS = [
    (PhysicalParams(omega=1.0, k=1.0), AmbiguityParams(0.0, 0.0)),
    (PhysicalParams(omega=1.0, k=1.0), AmbiguityParams(19.0, 1.0)),
    (PhysicalParams(omega=2.0, k=1.0), AmbiguityParams(10.0, 1.0)),
    (PhysicalParams(omega=1.0, k=0.5), AmbiguityParams(-30.0, 1.0)),
    (PhysicalParams(omega=1.5, k=2.0), AmbiguityParams(2.5, 2.0)),
]


def _grid(phys, n_points=1000):
    p_max = 3.0 * phys.omega ** 2 / phys.k
    return np.linspace(-3.0 * p_max, 0.97 * p_max, n_points)


# -------------------------------------------------------------- superpotential

def test_superpotential_values():
    d0 = derive_params(PHYS, AMB0)
    sp0 = Superpotential.from_derived(PHYS, d0)
    assert superpotential_eval(sp0, 0.0) == 0.0
    d19 = derive_params(PHYS, AMB19)
    sp19 = Superpotential.from_derived(PHYS, d19)
    assert superpotential_eval(sp19, 0.0) == pytest.approx(
        1.0 / (3.0 * SQRT2), rel=1e-15)
    assert superpotential_eval(sp19, 0.0) == pytest.approx(0.235702, abs=1e-6)


def test_slope_is_always_inverse_sqrt2():
    for phys, amb in PARAM_SETS:
        assert derive_params(phys, amb).a_coef == 1.0 / SQRT2


def test_superpotential_rejects_bad_offset():
    with pytest.raises(ConstraintViolationError):
        Superpotential(phys=PHYS, a_coef=1.0 / SQRT2, b_coef=-3.0)
    with pytest.raises(ConstraintViolationError):
        Superpotential(phys=PHYS, a_coef=-1.0, b_coef=0.0)


def test_superpotential_domain():
    sp = Superpotential.from_derived(PHYS, derive_params(PHYS, AMB0))
    with pytest.raises(DomainError):
        superpotential_eval(sp, 3.0)


# --------------------------------------------------------- partner potentials

def test_partner_minus_at_origin():
    d = derive_params(PHYS, AMB0)
    v_minus, _ = partner_potentials(PHYS, d, 0.0)
    assert v_minus == pytest.approx(-0.5, rel=1e-15)


def test_partner_gap_is_constant_remainder():
    for phys, amb in PARAM_SETS:
        d = derive_params(phys, amb)
        p = _grid(phys)
        v_minus_shifted = partner_minus(phys, d.a_coef,
                                        d.b_coef + partner_shift(phys), p)
        _, v_plus = partner_potentials(phys, d, p)
        np.testing.assert_allclose(v_plus - v_minus_shifted,
                                   phys.hbar_omega, rtol=1e-11, atol=1e-12)


def test_partner_compact_matches_definitions():
    for phys, amb in PARAM_SETS:
        d = derive_params(phys, amb)
        p = _grid(phys)
        compact = partner_potentials(phys, d, p)
        defs = partner_potentials_from_definitions(phys, d, p)
        for a, b in zip(compact, defs):
            assert np.max(np.abs(a - b)) < 1e-10


def test_partner_minus_harmonic_branch():
    # k = 0 with a = 1/sqrt2, b = 0: V_- = p^2/2 - hbar omega / 2
    phys = PhysicalParams(omega=1.0, k=0.0)
    p = np.linspace(-5.0, 5.0, 11)
    np.testing.assert_allclose(partner_minus(phys, 1.0 / SQRT2, 0.0, p),
                               p ** 2 / 2.0 - 0.5, rtol=1e-15, atol=1e-15)


# ----------------------------------------------------------------- Riccati

def test_riccati_residual_small_for_fitted_parameters():
    assert riccati_residual(PHYS, AMB0, _grid(PHYS)) < 1e-10
    assert riccati_residual(PHYS, AMB19, _grid(PHYS)) < 1e-10
    for phys, amb in PARAM_SETS:
        assert riccati_residual(phys, amb, _grid(phys)) < 1e-10


def test_riccati_ground_energy_value():
    assert ground_state_energy(PHYS, derive_params(PHYS, AMB19)) == \
        pytest.approx(1.5, abs=1e-14)


def test_riccati_detects_perturbed_offset():
    assert riccati_residual(PHYS, AMB19, _grid(PHYS), b_offset=1e-3) > 1e-4


# ------------------------------------------------------------ shape invariance

def test_shape_invariance_remainder():
    for phys, amb in PARAM_SETS:
        d = derive_params(phys, amb)
        mean, std = shape_invariance_remainder(phys, d, _grid(phys))
        assert mean == pytest.approx(phys.hbar_omega, rel=1e-10)
        assert std < 1e-12 * max(1.0, phys.hbar_omega)


def test_shape_invariance_scaling_with_omega():
    phys = PhysicalParams(omega=2.0, k=1.0)
    d = derive_params(phys, AmbiguityParams(0.0, 0.0))
    mean, _ = shape_invariance_remainder(phys, d, _grid(phys))
    assert mean == pytest.approx(2.0, rel=1e-12)


def test_shape_invariance_negative_control():
    # omitting the offset advance makes the difference p-dependent
    d = derive_params(PHYS, AMB19)
    p = _grid(PHYS)
    wrong = (partner_potentials(PHYS, d, p)[1]
             - partner_minus(PHYS, d.a_coef, d.b_coef, p))
    assert np.std(wrong) > 1e-3


# ------------------------------------------------------------------ spectrum

def test_spectrum_values():
    table = spectrum(PHYS, AMB0, 5)
    np.testing.assert_allclose(table.energies,
                               [0.5, 1.5, 2.5, 3.5, 4.5, 5.5], atol=1e-14)
    assert spectrum(PHYS, AMB19, 0).energies[0] == pytest.approx(1.5, abs=1e-14)


def test_spectrum_spacing_and_positivity():
    for phys, amb in PARAM_SETS:
        table = spectrum(phys, amb, 6)
        np.testing.assert_allclose(table.spacings, phys.hbar_omega, rtol=1e-13)
        assert np.all(table.energies - table.energies[0] >= 0.0)


def test_spectrum_harmonic_branch():
    table = spectrum(PhysicalParams(omega=1.0, k=0.0), AMB19, 3)
    np.testing.assert_allclose(table.energies, [0.5, 1.5, 2.5, 3.5], atol=1e-15)


def test_spectrum_bitwise_in_product():
    t1 = spectrum(PHYS, AmbiguityParams(2.0, 3.0), 4)
    t2 = spectrum(PHYS, AmbiguityParams(6.0, 1.0), 4)
    np.testing.assert_array_equal(t1.energies, t2.energies)


def test_spectrum_all_negative_levels_accepted():
    # alpha*gamma near -a_script^2 puts every level below zero; the ladder
    # cross-check must scale its tolerance by the largest |e_n|, not e_nmax.
    phys = PhysicalParams(omega=1.7357, k=0.428444, hbar=1.64418)
    amb = AmbiguityParams(alpha=0.531662, gamma=-21332.1)
    table = spectrum(phys, amb, 41)
    d = derive_params(phys, amb)
    n = np.arange(42)
    assert np.all(table.energies < 0.0)
    expected = (n + 0.5 + (d.lam - d.a_script)) * (phys.hbar * phys.omega)
    np.testing.assert_array_equal(table.energies, expected)


# ------------------------------------------------------------- ladder action

def _sampled_state(phys, amb, n, h=1e-3):
    derived = derive_params(phys, amb)
    lo, hi = support_window(phys, derived, max(n, 1))
    grid = MomentumGrid.with_spacing(phys, lo, hi, h)
    return derived, grid, SampledFunction(grid, psi(phys, derived, n, grid.points))


def test_lowering_annihilates_ground_state():
    derived, grid, samples = _sampled_state(PHYS, AMB0, 0)
    sp = Superpotential.from_derived(PHYS, derived)
    out = apply_lowering(sp, samples)
    assert np.max(np.abs(out.values)) < 1e-5


def test_raising_lowering_eigenrelation():
    # A+ A psi_1 = (e_1 - e_0) psi_1 up to the stencil error
    derived, grid, samples = _sampled_state(PHYS, AMB19, 1)
    sp = Superpotential.from_derived(PHYS, derived)
    chained = apply_raising(sp, apply_lowering(sp, samples))
    inner = samples.values[2:-2]
    resid = np.max(np.abs(chained.values - PHYS.hbar_omega * inner))
    assert resid < 1e-4


def test_susy_chain_norm_ratios():
    # <A psi_n, A psi_n> / <psi_n, psi_n> ~ e_n - e_0 = n hbar omega
    derived, grid, _ = _sampled_state(PHYS, AMB19, 3)
    sp = Superpotential.from_derived(PHYS, derived)
    for n in range(1, 4):
        samples = SampledFunction(grid, psi(PHYS, derived, n, grid.points))
        lowered = apply_lowering(sp, samples)
        num = np.trapezoid(lowered.values ** 2, dx=grid.spacing)
        den = np.trapezoid(samples.values ** 2, dx=grid.spacing)
        assert num / den == pytest.approx(n * PHYS.hbar_omega, abs=2e-4)


def test_recurrence_builds_first_excited_state():
    # A+(b1) applied to the partner ground state (b2) is proportional to
    # psi_1(b1); compare directions through the cosine similarity
    derived, grid, _ = _sampled_state(PHYS, AMB19, 1)
    sp1 = Superpotential.from_derived(PHYS, derived)
    sp2 = sp1.shifted(partner_shift(PHYS))
    partner_ground = ground_state_closed_form(sp2, grid.points)
    raised = apply_raising(sp1, SampledFunction(grid, partner_ground))
    closed = psi(PHYS, derived, 1, grid.interior().points)
    cosine = abs(np.dot(raised.values, closed)) / (
        np.linalg.norm(raised.values) * np.linalg.norm(closed))
    assert cosine > 1.0 - 1e-6


# -------------------------------------------------------------- ground state

def test_ground_state_vanishes_at_boundary():
    derived = derive_params(PHYS, AMB19)
    sp = Superpotential.from_derived(PHYS, derived)
    assert ground_state_closed_form(sp, 3.0 - 1e-9) < 1e-80


def test_ground_state_exponent_equals_lam():
    derived = derive_params(PHYS, AMB19)
    sp = Superpotential.from_derived(PHYS, derived)
    assert ground_state_exponent(sp) == pytest.approx(10.0, rel=1e-12)
    d0 = derive_params(PHYS, AMB0)
    assert ground_state_exponent(Superpotential.from_derived(PHYS, d0)) == \
        pytest.approx(9.0, rel=1e-12)


def test_ground_state_proportional_to_normalized_state():
    derived = derive_params(PHYS, AMB19)
    sp = Superpotential.from_derived(PHYS, derived)
    lo, hi = support_window(PHYS, derived, 0)
    p = np.linspace(lo, hi, 500)
    raw = ground_state_closed_form(sp, p)
    normed = psi(PHYS, derived, 0, p)
    keep = np.abs(normed) > 1e-8
    ratio = raw[keep] / normed[keep]
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-10
