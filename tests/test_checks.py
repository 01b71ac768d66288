import math

import pytest

from lienardqm import checks, susy
from lienardqm.errors import ConstraintViolationError
from lienardqm.params import AmbiguityParams, PhysicalParams, derive_params

OPERATOR_ROWS = ("quantize.eigenrelation-residual",
                 "susy.ground-state-annihilation")


def _cell(a_script, ratio):
    """omega = hbar = 1 at a_script, with alpha*gamma = ratio a_script^2."""
    return (PhysicalParams(omega=1.0, k=3.0 / math.sqrt(a_script)),
            AmbiguityParams(alpha=ratio * a_script ** 2, gamma=1.0))


def _operator_rows(phys, amb):
    return {r.name: r for r in checks.run_suite(phys, amb)
            if r.name in OPERATOR_ROWS}


@pytest.mark.parametrize("a_script, ratio, lam", [
    (9.0, (2.5 ** 2 - 81.0) / 81.0, 2.5), (4.0, -0.5, 2.83), (4.0, 0.0, 4.0),
    (9.0, -0.5, 6.36), (30.0, -0.99, 3.0), (100.0, -0.99, 10.0),
    (900.0, -0.99, 90.0)])
def test_run_suite_serves_lam_down_to_its_bound(a_script, ratio, lam):
    # a_script = 4 at alpha*gamma = 0 is `verify --k 1.5`; the r = -0.99
    # cells at a_script = 100 and 900 failed the old momentum-grid rows
    phys, amb = _cell(a_script, ratio)
    assert derive_params(phys, amb).lam == pytest.approx(lam, rel=1e-2)
    records = checks.run_suite(phys, amb)
    assert [r.name for r in records if not r.passed] == []
    assert len(records) == 19


def test_run_suite_refuses_lam_below_its_bound_before_any_check(monkeypatch):
    def unreachable(phys, amb):
        raise AssertionError("a check ran")

    monkeypatch.setattr(checks, "_classical_checks", unreachable)
    phys, amb = _cell(9.0, (2.49 ** 2 - 81.0) / 81.0)
    with pytest.raises(ConstraintViolationError, match=r"lam = 2\.49, set by "
                       r"omega = 1, k = 1, hbar = 1 and alpha\*gamma = "
                       r"-74\.7999.*, is below 2\.5"):
        checks.run_suite(phys, amb)


def test_operator_rows_at_the_defaults():
    for product in (0.0, 19.0):
        rows = _operator_rows(PhysicalParams(omega=1.0, k=1.0),
                              AmbiguityParams(alpha=product, gamma=1.0))
        assert all(row.passed and row.tolerance == 1e-8
                   and row.measured <= 1e-11 for row in rows.values())


def test_eigenrelation_row_fails_when_the_product_is_off_by_1e_6(monkeypatch):
    # the energies read alpha*gamma = 19 (1 + 1e-6): lam = 10 and every
    # level move by 19e-6 / (2 lam) = 9.5e-7 hbar omega
    phys = PhysicalParams(omega=1.0, k=1.0)
    amb = AmbiguityParams(alpha=19.0, gamma=1.0)
    monkeypatch.setattr(susy, "derive_params", lambda phys, amb: derive_params(
        phys, AmbiguityParams(alpha=amb.product * (1.0 + 1e-6), gamma=1.0)))
    row = _operator_rows(phys, amb)["quantize.eigenrelation-residual"]
    assert not row.passed
    assert row.measured == pytest.approx(9.5e-7, rel=1e-3)


def test_annihilation_row_fails_when_b_is_off_by_1e_6(monkeypatch):
    # A psi_0 gains (db / sqrt(1 - q)) psi_0, with db = 1e-6 b = 2.36e-7 at
    # alpha*gamma = 19 and 1 - q near 1 where psi_0 peaks
    phys = PhysicalParams(omega=1.0, k=1.0)
    amb = AmbiguityParams(alpha=19.0, gamma=1.0)
    monkeypatch.setattr(susy.Superpotential, "from_derived", classmethod(
        lambda cls, phys, derived: cls(phys=phys, a_coef=derived.a_coef,
                                       b_coef=derived.b_coef * (1.0 + 1e-6))))
    row = _operator_rows(phys, amb)["susy.ground-state-annihilation"]
    assert not row.passed
    assert 2.0e-7 < row.measured < 2.4e-7
