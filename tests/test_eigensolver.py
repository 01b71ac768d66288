import dataclasses
import math

import numpy as np
import pytest

from lienardqm import checks, eigensolver, kernels, susy
from lienardqm.eigensolver import (BISECTION_TOL, TridiagonalOperator, YGrid,
                                   build_operator, collocation_levels,
                                   lowest_eigenvalues, sign_changes,
                                   verify_spectrum)
from lienardqm.errors import ConvergenceError
from lienardqm.params import AmbiguityParams, PhysicalParams, derive_params
from lienardqm.susy import spectrum

PHYS = PhysicalParams(omega=1.0, k=1.0)
AMB0 = AmbiguityParams(alpha=0.0, gamma=0.0)
AMB19 = AmbiguityParams(alpha=19.0, gamma=1.0)


def test_ygrid_geometry():
    grid = YGrid(y_max=150.0, n_points=6000)
    assert grid.spacing == pytest.approx(150.0 / 6001.0, rel=1e-15)
    pts = grid.points
    assert pts[0] == pytest.approx(grid.spacing)
    assert pts[-1] < 150.0
    fine = grid.refined()
    assert fine.spacing == pytest.approx(grid.spacing / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        YGrid(y_max=150.0, n_points=400)
    with pytest.raises(ValueError):
        YGrid(y_max=-1.0, n_points=1000)
    with pytest.raises(ValueError, match="finite"):
        YGrid(y_max=math.inf, n_points=1000)
    with pytest.raises(ValueError, match="integer"):
        YGrid(y_max=150.0, n_points=600.5)


def test_operator_structure():
    grid = YGrid(y_max=150.0, n_points=600 + 400)
    op = build_operator(PHYS, AMB19, grid)
    assert np.all(op.off_diagonal < 0.0)
    assert op.dim == 1000
    # spot-check against the momentum-space definition at an interior index:
    # p = p_max - y hbar omega / (2 p_max) = 3 - y / 6, in ascending order
    hp = grid.spacing / 6.0
    p = 3.0 - grid.points[::-1] / 6.0
    i = 137
    c = 1.0 / (2.0 * hp ** 2)  # (hbar omega)^2 / (2 h^2)

    def factor(momentum):  # 1 - k p / (3 omega^2)
        return 1.0 - momentum / 3.0

    potential = (p[i] ** 2 + 19.0 / 9.0) / (2.0 * factor(p[i]))
    expected_diag = (c * (factor(p[i] - hp / 2) + factor(p[i] + hp / 2))
                     + potential)
    assert op.diagonal[i] == pytest.approx(expected_diag, rel=1e-13)
    assert op.off_diagonal[i] == pytest.approx(-c * factor(p[i] + hp / 2),
                                               rel=1e-13)
    # the whole matrix is the y-space one, -hbar omega [d/dy (y d/dy)
    # - lam^2/y - y/4 + a_script], in reverse order
    lam, a_script = 10.0, 9.0
    h, y = grid.spacing, grid.points
    diag_y = 2.0 * y / h ** 2 + lam ** 2 / y + y / 4.0 - a_script
    off_y = -(y[:-1] + h / 2) / h ** 2
    np.testing.assert_allclose(op.diagonal[::-1], diag_y, rtol=1e-12, atol=0)
    np.testing.assert_allclose(op.off_diagonal[::-1], off_y, rtol=1e-12,
                               atol=0)


def _mutated(lam_of):
    """derive_params with lam = lam_of(a_script, alpha*gamma)."""
    def derive(phys, amb):
        d = derive_params(phys, amb)
        lam = lam_of(d.a_script, amb.product)
        shift = lam - d.a_script
        return dataclasses.replace(d, lam=lam, shift=shift, b_coef=(
            phys.hbar * phys.k / (3.0 * math.sqrt(2.0) * phys.omega) * shift))
    return derive


# lam = sqrt(a_script^2 + 1.5 alpha*gamma)
_wrong_lam = _mutated(lambda a_script, product: math.sqrt(
    a_script ** 2 + 1.5 * product))


def _levels_row():
    return next(r for r in checks.run_suite(PHYS, AMB19)
                if r.name == "eigensolver.levels-vs-algebraic")


def test_levels_row_fails_when_lam_is_mutated(monkeypatch):
    # a wrong lam in place of the true value: the operator never reads lam,
    # so its levels leave the algebraic ones
    assert _levels_row().passed
    for module in (checks, susy):
        monkeypatch.setattr(module, "derive_params", _wrong_lam)
    row = _levels_row()
    assert not row.passed
    assert row.measured > 0.1


def test_levels_row_fails_when_the_product_is_off_by_1e_6(monkeypatch):
    # the analytic spectrum reads alpha*gamma = 19 (1 + 1e-6): lam = 10
    # moves by 19e-6 / (2 lam) = 9.5e-7, and so does every level
    assert _levels_row().measured < 1e-12
    monkeypatch.setattr(susy, "derive_params", _mutated(
        lambda a_script, product: math.sqrt(a_script ** 2
                                            + product * (1.0 + 1e-6))))
    row = _levels_row()
    assert not row.passed
    assert row.measured == pytest.approx(9.5e-7, rel=1e-3)


def test_eigensolver_grid_ignores_a_mutated_lam(monkeypatch):
    # the collocation window comes from the operator, so a wrong lam leaves
    # the points verify's operator and eigensolver checks collocate at as
    # they are
    windows = []
    window_x = eigensolver.window_x
    monkeypatch.setattr(eigensolver, "window_x", lambda phys, amb: (
        windows.append(window_x(phys, amb)) or windows[-1]))
    checks.run_suite(PHYS, AMB19)
    expected = list(windows)
    # the operator rows at N, then the levels at N and at 2N
    assert expected == [window_x(PHYS, AMB19)] * 3
    windows.clear()
    for module in (checks, susy):
        monkeypatch.setattr(module, "derive_params", _wrong_lam)
    checks.run_suite(PHYS, AMB19)
    assert windows == expected


@pytest.mark.parametrize("omega, k, product", [
    (0.99, 1.01, 0.0), (1.03, 0.97, 19.0)], ids=["box-low-lam", "box-high-lam"])
def test_window_truncation_at_box_corners(monkeypatch, omega, k, product):
    # widen the collocation window by half at 1.5 times the degree: the
    # levels verify checks move only by truncation, which the window keeps
    # negligible
    phys = PhysicalParams(omega=omega, k=k)
    amb = AmbiguityParams(alpha=product, gamma=1.0)
    lo, hi = eigensolver.window_x(phys, amb)
    values = collocation_levels(phys, amb, checks._COLLOCATION_N)
    monkeypatch.setattr(eigensolver, "window_x",
                        lambda phys, amb: (lo, lo + 1.5 * (hi - lo)))
    wide = collocation_levels(phys, amb, 3 * checks._COLLOCATION_N // 2)
    assert np.max(np.abs(values - wide)) <= 1e-12


def test_window_from_the_operator_potential():
    # in x = sqrt(y) the operator's potential is hbar omega (lam^2 / x^2 +
    # x^2 / 4 - a_script), minimal at x0 = sqrt(2 lam) with W'' = 2 hbar
    # omega: the window spans 9 widths (1/8)^(1/4) either side of x0, cut
    # at x = 0
    for phys, amb, cut in ((PHYS, AMB0, True), (PHYS, AMB19, True),
                           (PhysicalParams(omega=2.0, k=0.1, hbar=0.5), AMB19,
                            False)):
        x0 = math.sqrt(2.0 * derive_params(phys, amb).lam)
        reach = 9.0 * 8.0 ** -0.25
        lo, hi = eigensolver.window_x(phys, amb)
        assert (lo == 0.0) == cut
        assert lo == pytest.approx(max(0.0, x0 - reach), rel=1e-6)
        assert hi == pytest.approx(x0 + reach, rel=1e-6)


@pytest.mark.parametrize("omega, k, hbar, lam", [
    (1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 4.0), (1.0, 1.0, 1.0, 9.0),
    (1.0, 1.0, 1.0, 10.0), (1.0, 1.0, 1.0, 900.0), (30.0, 1.0, 50.0, 4860.0),
    (1.0, 0.01, 1.0, 9e4)])
def test_collocation_levels_over_lam_range(omega, k, hbar, lam):
    # lam 1..900 at a_script = 9 through alpha*gamma = lam^2 - 81; 4860 and
    # 9e4 are a_script itself, at alpha*gamma = 0
    phys = PhysicalParams(omega=omega, k=k, hbar=hbar)
    a_script = derive_params(phys, AMB0).a_script
    amb = AmbiguityParams(alpha=lam ** 2 - a_script ** 2, gamma=1.0)
    assert derive_params(phys, amb).lam == pytest.approx(lam, rel=1e-12)
    levels = collocation_levels(phys, amb, checks._COLLOCATION_N)
    errors = np.abs(levels - spectrum(phys, amb, 2).energies)
    assert np.max(errors) / phys.hbar_omega <= 1e-10


def test_complex_collocation_levels_raise(monkeypatch):
    # the matrix is not symmetric: a complex pair among the lowest levels
    # is an error, never its real part
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda matrix: np.array([1.0, 2.0 + 1e-3j, 2.0 - 1e-3j]))
    with pytest.raises(ConvergenceError, match="complex levels"):
        collocation_levels(PHYS, AMB19, 8)


def test_two_by_two_diagonal_matrix():
    op = TridiagonalOperator(diagonal=np.array([1.0, 3.0]),
                             off_diagonal=np.array([0.0]))
    np.testing.assert_allclose(lowest_eigenvalues(op, 2), [1.0, 3.0],
                               atol=1e-9)


def test_dirichlet_laplacian_lowest_eigenvalue():
    # -u'' on (0, 1): lowest eigenvalue pi^2, classical closed form
    n = 1000
    h = 1.0 / (n + 1)
    op = TridiagonalOperator(diagonal=np.full(n, 2.0 / h ** 2),
                             off_diagonal=np.full(n - 1, -1.0 / h ** 2))
    lowest = lowest_eigenvalues(op, 1)[0]
    assert abs(lowest - math.pi ** 2) / math.pi ** 2 < 1e-3


def test_sturm_count_between_levels():
    grid = YGrid(y_max=150.0, n_points=2000)
    op = build_operator(PHYS, AMB0, grid)
    energies = spectrum(PHYS, AMB0, 1).energies
    assert op.count_below(0.5 * (energies[0] + energies[1])) == 1


def test_count_validation():
    op = TridiagonalOperator(diagonal=np.arange(12.0),
                             off_diagonal=np.full(11, -0.1))
    with pytest.raises(ValueError):
        lowest_eigenvalues(op, 0)
    with pytest.raises(ValueError):
        lowest_eigenvalues(op, 11)
    # more levels than the matrix has: no bound is passed off as one
    two = TridiagonalOperator(diagonal=np.array([1.0, 2.0]),
                              off_diagonal=np.array([0.0]))
    with pytest.raises(ValueError, match="count 3 exceeds the dimension 2"):
        lowest_eigenvalues(two, 3)


def _plain_bisection(op, count):
    """Reference: the same bisection with one Sturm sweep per midpoint."""
    lo_all, hi_all = op.gershgorin()
    out = np.empty(count)
    lo_start = lo_all
    for k in range(count):
        lo, hi = lo_start, hi_all
        while hi - lo > BISECTION_TOL:
            mid = 0.5 * (lo + hi)
            if op.count_below(mid) >= k + 1:
                hi = mid
            else:
                lo = mid
        out[k] = 0.5 * (lo + hi)
        lo_start = out[k] - BISECTION_TOL
    return out


@pytest.mark.parametrize("refined, shared_sweeps, plain_sweeps",
                         [(False, 122, 162), (True, 124, 168)],
                         ids=["N8500", "N17001"])
def test_shared_brackets_bit_identical_with_fewer_sweeps(
        monkeypatch, refined, shared_sweeps, plain_sweeps):
    # the operator pair verify solved at its default parameters on the window
    # 4 lam + 130 it took before the window came from the operator
    grid = YGrid(y_max=170.0, n_points=8500)
    op = build_operator(PHYS, AMB19, grid.refined() if refined else grid)
    sweeps = []
    sturm_count = kernels.sturm_count
    monkeypatch.setattr(kernels, "sturm_count",
                        lambda *args: sweeps.append(args[2]) or sturm_count(*args))
    expected = _plain_bisection(op, 3)
    assert len(sweeps) == plain_sweeps
    sweeps.clear()
    values = lowest_eigenvalues(op, 3)
    assert len(sweeps) == shared_sweeps
    assert [v.hex() for v in values] == [v.hex() for v in expected]


def _count_rows(monkeypatch):
    rows = []
    sturm_count = kernels.sturm_count
    monkeypatch.setattr(kernels, "sturm_count",
                        lambda *args: rows.append(len(args[0]))
                        or sturm_count(*args))
    return rows


@pytest.mark.parametrize("omega, k, product, n_max, n_points", [
    (0.99, 1.01, 0.0, 2, 2000), (1.03, 0.97, 19.0, 2, 2000),
    (1.01, 0.99, 19.0, 2, 2000), (1.0, 1.0, 19.0, 3, 6000)],
    ids=["box-low-lam", "box-high-lam", "box-inner", "acceptance-N6000"])
def test_verify_spectrum_bits_equal_plain_bisection(omega, k, product, n_max,
                                                    n_points):
    # points of the benchmark's verify box, and the acceptance grid
    phys = PhysicalParams(omega=omega, k=k)
    amb = AmbiguityParams(alpha=product, gamma=1.0)
    grid = YGrid(y_max=150.0, n_points=n_points)
    cmp = verify_spectrum(phys, amb, n_max, grid)
    for solved, g in ((cmp.numeric, grid), (cmp.refined_numeric, grid.refined())):
        plain = _plain_bisection(build_operator(phys, amb, g), n_max + 1)
        assert [v.hex() for v in solved] == [v.hex() for v in plain]


def test_operator_forms_sturm_rows_once(monkeypatch):
    formed = []
    sturm_rows = kernels.sturm_rows
    monkeypatch.setattr(kernels, "sturm_rows",
                        lambda *args: formed.append(len(args[0]))
                        or sturm_rows(*args))
    sweeps = _count_rows(monkeypatch)
    op = build_operator(PHYS, AMB19, YGrid(y_max=150.0, n_points=2000))
    lowest_eigenvalues(op, 3)
    assert formed == [2000]
    assert len(sweeps) > 50
    # one operator per grid of verify_spectrum, each formed once
    formed.clear()
    verify_spectrum(PHYS, AMB19, 2, YGrid(y_max=150.0, n_points=8500))
    assert formed == [8500, 17001]


def test_verify_spectrum_against_algebraic_levels():
    grid = YGrid(y_max=150.0, n_points=6000)
    for amb, e0 in ((AMB0, 0.5), (AMB19, 1.5)):
        cmp = verify_spectrum(PHYS, amb, 2, grid)
        assert cmp.numeric[0] == pytest.approx(e0, abs=1e-5)
        assert np.max(cmp.errors) < 1e-5
        assert np.all((cmp.convergence_ratios > 3.5)
                      & (cmp.convergence_ratios < 4.5))


def test_numeric_spacings_approach_hbar_omega():
    grid = YGrid(y_max=150.0, n_points=6000)
    cmp = verify_spectrum(PHYS, AMB19, 3, grid)
    coarse = np.max(np.abs(np.diff(cmp.numeric) - 1.0))
    fine = np.max(np.abs(np.diff(cmp.refined_numeric) - 1.0))
    assert coarse < 1e-5
    assert fine < coarse


def test_eigenvalues_increasing_and_simple():
    grid = YGrid(y_max=150.0, n_points=3000)
    op = build_operator(PHYS, AMB19, grid)
    vals = lowest_eigenvalues(op, 6)
    gaps = np.diff(vals)
    assert np.all(gaps > 0.9)  # simple, separated by ~hbar omega


def test_truncation_insensitivity_at_fixed_spacing():
    # widen the domain by 50% at identical spacing: pure truncation effect
    base = YGrid(y_max=150.0, n_points=2999)       # h = 150/3000
    wide = YGrid(y_max=225.0, n_points=4499)       # h = 225/4500, identical
    assert base.spacing == wide.spacing
    v_base = lowest_eigenvalues(build_operator(PHYS, AMB19, base), 4)
    v_wide = lowest_eigenvalues(build_operator(PHYS, AMB19, wide), 4)
    assert np.max(np.abs(v_base - v_wide)) < 1e-8


def test_sign_changes_counts_strict_alternations():
    assert sign_changes([1.0, -2.0, 3.0, 4.0, -5.0]) == 3
    assert sign_changes([2.0, 0.0, -1.0]) == 1  # a zero is no sign
    # entries at or below floor * sup drop out: the -1e-9 wiggle is no node
    assert sign_changes([1.0, -1e-9, 2.0, -1.0]) == 1
    assert sign_changes([1.0, -2e-8, 2.0, -1.0]) == 1  # 2e-8 is the floor


def test_verify_spectrum_validation():
    grid = YGrid(y_max=150.0, n_points=1000)
    with pytest.raises(ValueError):
        verify_spectrum(PHYS, AMB0, 6, grid)
