import math

import pytest

from lienardqm.errors import ConstraintViolationError
from lienardqm.params import (AmbiguityParams, PhysicalParams, derive_params,
                              momentum_domain)


def test_physical_params_validation():
    PhysicalParams(omega=1.0, k=0.0)
    with pytest.raises(ConstraintViolationError):
        PhysicalParams(omega=0.0, k=1.0)
    with pytest.raises(ConstraintViolationError):
        PhysicalParams(omega=1.0, k=-0.5)
    with pytest.raises(ConstraintViolationError):
        PhysicalParams(omega=1.0, k=1.0, hbar=0.0)
    # non-finite values: nan passes every order comparison, inf the signs
    for bad in ({"omega": math.inf, "k": 1.0}, {"omega": 1.0, "k": math.nan},
                {"omega": 1.0, "k": math.inf},
                {"omega": 1.0, "k": 1.0, "hbar": math.inf}):
        with pytest.raises(ConstraintViolationError, match="must be finite"):
            PhysicalParams(**bad)
    for alpha, gamma in ((math.nan, 1.0), (1.0, -math.inf)):
        with pytest.raises(ConstraintViolationError, match="must be finite"):
            AmbiguityParams(alpha=alpha, gamma=gamma)


def test_derive_zero_product_forces_zero_shift():
    # alpha*gamma = 0 makes lam = sqrt(a_script^2) = a_script
    d = derive_params(PhysicalParams(omega=1.0, k=1.0),
                      AmbiguityParams(alpha=0.0, gamma=7.0))
    assert d.a_script == 9.0
    assert d.lam == 9.0
    assert d.shift == 0.0


def test_derive_hand_evaluated_example():
    # sqrt(81 + 19) = 10
    d = derive_params(PhysicalParams(omega=1.0, k=1.0),
                      AmbiguityParams(alpha=19.0, gamma=1.0))
    assert d.lam == pytest.approx(10.0, abs=1e-14)
    assert d.shift == pytest.approx(1.0, abs=1e-14)
    assert d.a_coef == 1.0 / math.sqrt(2.0)
    # b = hbar k / (3 sqrt 2 omega) * shift
    assert d.b_coef == pytest.approx(1.0 / (3.0 * math.sqrt(2.0)), rel=1e-15)


def test_derive_rejects_product_at_and_below_bound():
    phys = PhysicalParams(omega=1.0, k=1.0)
    with pytest.raises(ConstraintViolationError, match="-81"):
        derive_params(phys, AmbiguityParams(alpha=-9.0, gamma=9.0))
    with pytest.raises(ConstraintViolationError):
        derive_params(phys, AmbiguityParams(alpha=-100.0, gamma=1.0))
    # just inside the bound is accepted
    d = derive_params(phys, AmbiguityParams(alpha=-80.9, gamma=1.0))
    assert d.lam > 0.0


def test_derive_rejects_a_script_squared_below_the_normal_floats():
    # a_script = 9e-200 and 9e-155 are floats; their squares underflow to 0
    # and to a subnormal, which the product bound must not be measured on
    for hbar in (1e200, 1e155):
        with pytest.raises(ConstraintViolationError,
                           match="a_script\\^2 or lam .* outside the finite "
                                 "positive normal floats"):
            derive_params(PhysicalParams(omega=1.0, k=1.0, hbar=hbar),
                          AmbiguityParams(alpha=0.0, gamma=1.0))


def test_derive_rejects_k_zero():
    with pytest.raises(ConstraintViolationError):
        derive_params(PhysicalParams(omega=1.0, k=0.0),
                      AmbiguityParams(alpha=0.0, gamma=0.0))


def test_momentum_domain():
    assert momentum_domain(PhysicalParams(omega=1.0, k=1.0)) == 3.0
    assert momentum_domain(PhysicalParams(omega=2.0, k=1.0)) == 12.0
    assert momentum_domain(PhysicalParams(omega=1.0, k=0.0)) == math.inf


def test_shift_vanishes_for_zero_product_any_k():
    for k in (0.1, 0.5, 1.0, 2.0, 5.0):
        d = derive_params(PhysicalParams(omega=1.3, k=k),
                          AmbiguityParams(alpha=0.0, gamma=-3.0))
        assert d.shift == 0.0


def test_shift_decreases_monotonically_as_k_shrinks():
    shifts = []
    for k in (1.0, 0.5, 0.25, 0.1, 0.05, 0.01):
        d = derive_params(PhysicalParams(omega=1.0, k=k),
                          AmbiguityParams(alpha=4.0, gamma=3.0))
        shifts.append(abs(d.shift))
    assert all(b < a for a, b in zip(shifts, shifts[1:]))


def test_derived_depends_only_on_product():
    phys = PhysicalParams(omega=1.0, k=1.0)
    d1 = derive_params(phys, AmbiguityParams(alpha=2.0, gamma=3.0))
    d2 = derive_params(phys, AmbiguityParams(alpha=6.0, gamma=1.0))
    assert d1 == d2  # identical structures, bitwise


def test_b_above_normalizability_bound_for_accepted_sets():
    for omega in (0.5, 1.0, 2.0):
        for k in (0.2, 1.0, 3.0):
            phys = PhysicalParams(omega=omega, k=k)
            a_script = 9.0 * omega ** 3 / k ** 2
            for frac in (-0.999, -0.5, 0.0, 1.0, 5.0):
                amb = AmbiguityParams(alpha=frac * a_script ** 2, gamma=1.0)
                d = derive_params(phys, amb)
                assert d.b_coef > -(3.0 * omega ** 2 / k) * d.a_coef
