import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lienardqm import checks, eigensolver, kernels, susy
from lienardqm.eigensolver import (BISECTION_TOL, TridiagonalOperator, YGrid,
                                   build_operator, lowest_eigenvalues,
                                   sign_changes, verify_spectrum)
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


def _wrong_lam(phys, amb):
    """derive_params with lam = sqrt(a_script^2 + 1.5 alpha*gamma)."""
    d = derive_params(phys, amb)
    lam = math.sqrt(d.a_script ** 2 + 1.5 * amb.product)
    shift = lam - d.a_script
    return dataclasses.replace(d, lam=lam, shift=shift, b_coef=(
        phys.hbar * phys.k / (3.0 * math.sqrt(2.0) * phys.omega) * shift))


def test_levels_row_fails_when_lam_is_mutated(monkeypatch):
    # a wrong lam in place of the true value: the operator never reads lam,
    # so its levels leave the algebraic ones
    def levels_row():
        return next(r for r in checks.run_suite(PHYS, AMB19)
                    if r.name == "eigensolver.levels-vs-algebraic")

    assert levels_row().passed
    for module in (checks, susy):
        monkeypatch.setattr(module, "derive_params", _wrong_lam)
    row = levels_row()
    assert not row.passed
    assert row.measured > 0.1


def test_eigensolver_grid_ignores_a_mutated_lam(monkeypatch):
    # the window comes from the operator, so a wrong lam leaves verify's
    # eigensolver grid as it is
    def grid_of_run_suite():
        grids = []
        monkeypatch.setattr(checks, "_eigensolver_checks",
                            lambda phys, amb, grid: grids.append(grid) or [])
        checks.run_suite(PHYS, AMB19)
        return grids

    expected = grid_of_run_suite()
    assert expected == [checks._eigensolver_grid(PHYS, AMB19)]
    for module in (checks, susy):
        monkeypatch.setattr(module, "derive_params", _wrong_lam)
    assert grid_of_run_suite() == expected


@pytest.mark.parametrize("omega, k, product", [
    (0.99, 1.01, 0.0), (1.03, 0.97, 19.0)], ids=["box-low-lam", "box-high-lam"])
def test_window_truncation_at_box_corners(omega, k, product):
    # widen verify's window by half at identical spacing: the levels it
    # checks move only by truncation, which the window keeps negligible
    phys = PhysicalParams(omega=omega, k=k)
    amb = AmbiguityParams(alpha=product, gamma=1.0)
    grid = checks._eigensolver_grid(phys, amb)
    wide_points = round(1.5 * (grid.n_points + 1)) - 1
    wide = YGrid(y_max=grid.spacing * (wide_points + 1), n_points=wide_points)
    assert wide.spacing == pytest.approx(grid.spacing, rel=1e-15)
    values = lowest_eigenvalues(build_operator(phys, amb, grid), 3)
    wide_values = lowest_eigenvalues(build_operator(phys, amb, wide), 3)
    assert np.max(np.abs(values - wide_values)) <= 1e-9


def test_window_from_the_operator_potential():
    # in x = sqrt(y) the operator's potential is hbar omega (lam^2 / x^2 +
    # x^2 / 4 - a_script), minimal at x0 = sqrt(2 lam) with W'' = 2 hbar
    # omega: the window ends 9 widths (1/8)^(1/4) past x0
    for phys, amb in ((PHYS, AMB0), (PHYS, AMB19),
                      (PhysicalParams(omega=2.0, k=0.1, hbar=0.5), AMB19)):
        lam = derive_params(phys, amb).lam
        expected = (math.sqrt(2.0 * lam) + 9.0 * 8.0 ** -0.25) ** 2
        assert eigensolver.window_y_max(phys, amb) == pytest.approx(
            expected, rel=1e-6)


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
    with pytest.raises(ValueError, match="3 guesses for 2 levels"):
        lowest_eigenvalues(two, 2, [(1.0, 0.1)] * 3)


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


_entries = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
# most counts one guess can take: each side widens _MAX_WIDENINGS times
_GUESS_COUNTS = 2 * (eigensolver._MAX_WIDENINGS + 1)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_guesses_never_move_a_bit(data):
    dim = data.draw(st.integers(1, 12), label="dim")
    op = TridiagonalOperator(
        diagonal=np.array(data.draw(st.lists(_entries, min_size=dim,
                                             max_size=dim))),
        off_diagonal=np.array(data.draw(st.lists(_entries, min_size=dim - 1,
                                                 max_size=dim - 1))))
    count = data.draw(st.integers(1, min(dim, 10)), label="count")
    with mock.patch.object(kernels, "sturm_count",
                           wraps=kernels.sturm_count) as sweeps:
        plain = _plain_bisection(op, count)
        midpoints = sweeps.call_count
        lo, hi = op.gershgorin()
        # anywhere, beyond the spectrum, exactly on a computed eigenvalue,
        # within a few tolerances of one, and not finite; margins from
        # subnormal to huge. A subnormal margin at 0 would widen for ~270
        # counts if the widening were not bounded.
        centres = st.one_of(
            st.floats(lo - 10.0, hi + 10.0),
            st.sampled_from([lo - 1.0, hi + 1.0, -1e300, 1e300, 0.0,
                             math.nan, math.inf, -math.inf]),
            st.sampled_from(plain.tolist()),
            st.builds(lambda v, d: v + d * BISECTION_TOL,
                      st.sampled_from(plain.tolist()), st.integers(-4, 4)))
        margins = st.one_of(
            st.floats(5e-324, 1e300),
            st.sampled_from([5e-324, 1e-300, BISECTION_TOL, 1.0, 1e300]))
        tiny = st.tuples(st.just(0.0), st.sampled_from([5e-324, 1e-300]))
        guesses = data.draw(st.lists(st.tuples(centres, margins) | tiny,
                                     max_size=count), label="guesses")
        sweeps.reset_mock()
        guessed = lowest_eigenvalues(op, count, guesses)
    assert [v.hex() for v in guessed] == [v.hex() for v in plain]
    # each midpoint is counted at most once, every guess at most
    # _GUESS_COUNTS times
    assert sweeps.call_count <= midpoints + _GUESS_COUNTS * len(guesses)


def test_guess_widening_is_bounded():
    # a 1x1 matrix: the Gershgorin bounds meet at its eigenvalue 1e3, so the
    # bisection takes no count and every count is the guess's own
    op = TridiagonalOperator(diagonal=np.array([1e3]),
                             off_diagonal=np.array([]))
    for guess, counts in [
            # one count below the level, then 9 above it: 5e-324 .. ~2e-314
            ((0.0, 5e-324), 1 + _GUESS_COUNTS // 2),
            ((1e3, 1.0), 2),
            ((5e3, 1.0), 4),    # 4999, 4984, 4744, then 904 brackets it
            ((0.0, -1.0), 4),   # a negative margin: 1, 16, 256, 4096
            ((1e3, 0.0), 1),    # on the level, with nothing to widen
            ((math.nan, 1.0), 0), ((math.inf, 1.0), 0),
            ((-math.inf, 1.0), 0), ((0.0, math.nan), 0),
            ((0.0, math.inf), 0)]:
        with mock.patch.object(kernels, "sturm_count",
                               wraps=kernels.sturm_count) as sweeps:
            values = lowest_eigenvalues(op, 1, [guess])
        assert sweeps.call_count == counts, guess
        assert values.tolist() == [1e3]


def _count_rows(monkeypatch):
    rows = []
    sturm_count = kernels.sturm_count
    monkeypatch.setattr(kernels, "sturm_count",
                        lambda *args: rows.append(len(args[0]))
                        or sturm_count(*args))
    return rows


def test_verify_spectrum_coarse_to_fine_work_and_bits(monkeypatch):
    # the grid verify resolves at its default parameters with alpha*gamma = 19
    grid = checks._eigensolver_grid(PHYS, AMB19)
    rows = _count_rows(monkeypatch)
    cmp = verify_spectrum(PHYS, AMB19, 2, grid)
    # plain bisection of grids N and 2N + 1 sweeps 2,403,018 rows; on the
    # window 4 lam + 130 (N = 8500) the guided bisection took 600,203
    assert sum(rows) <= 394_961
    # three pilots, grid N, grid 2N + 1
    assert set(rows) == {74, 300, 1205, 4825, 9651}
    for solved, g in ((cmp.numeric, grid), (cmp.refined_numeric, grid.refined())):
        plain = lowest_eigenvalues(build_operator(PHYS, AMB19, g), 3)
        assert [v.hex() for v in solved] == [v.hex() for v in plain]


@pytest.mark.parametrize("omega, k, product, n_max, n_points", [
    (0.99, 1.01, 0.0, 2, None), (1.03, 0.97, 19.0, 2, None),
    (1.01, 0.99, 19.0, 2, None), (1.0, 1.0, 19.0, 3, 6000)],
    ids=["box-low-lam", "box-high-lam", "box-inner", "acceptance-N6000"])
def test_verify_spectrum_bits_equal_plain_bisection(omega, k, product, n_max,
                                                    n_points):
    # points of the benchmark's verify box on the grids verify picks, and
    # the acceptance grid
    phys = PhysicalParams(omega=omega, k=k)
    amb = AmbiguityParams(alpha=product, gamma=1.0)
    grid = (checks._eigensolver_grid(phys, amb)
            if n_points is None else YGrid(y_max=150.0, n_points=n_points))
    cmp = verify_spectrum(phys, amb, n_max, grid)
    for solved, g in ((cmp.numeric, grid), (cmp.refined_numeric, grid.refined())):
        plain = _plain_bisection(build_operator(phys, amb, g), n_max + 1)
        assert [v.hex() for v in solved] == [v.hex() for v in plain]


def test_verify_spectrum_pilot_chain_stops_below_60_points(monkeypatch):
    # the acceptance grid: pilots of 1499, 374 and 92 points; (92 - 3) // 4
    # = 22 points would fall below the 60-point pilot floor
    grid = YGrid(y_max=150.0, n_points=6000)
    rows = _count_rows(monkeypatch)
    verify_spectrum(PHYS, AMB19, 3, grid)
    assert set(rows) == {92, 374, 1499, 6000, 12001}
    assert sum(rows) == 725_805


def test_verify_spectrum_pilots_below_the_caller_grid_floor(monkeypatch):
    # pilots of 499 and 124 points, below the MIN_POINTS = 500 that a
    # caller's YGrid must hold; (124 - 3) // 4 = 30 would fall below 60
    grid = YGrid(y_max=150.0, n_points=2002)
    rows = _count_rows(monkeypatch)
    cmp = verify_spectrum(PHYS, AMB19, 2, grid)
    assert set(rows) == {124, 499, 2002, 4005}
    assert sum(rows) == 257_246
    plain = lowest_eigenvalues(build_operator(PHYS, AMB19, grid.refined()), 3)
    assert [v.hex() for v in cmp.refined_numeric] == [v.hex() for v in plain]
    with pytest.raises(ValueError, match="at least 500 grid points"):
        YGrid(y_max=150.0, n_points=499)


def test_operator_forms_sturm_rows_once(monkeypatch):
    formed = []
    sturm_rows = kernels.sturm_rows
    monkeypatch.setattr(kernels, "sturm_rows",
                        lambda *args: formed.append(len(args[0]))
                        or sturm_rows(*args))
    sweeps = _count_rows(monkeypatch)
    op = build_operator(PHYS, AMB19, YGrid(y_max=150.0, n_points=2000))
    lowest_eigenvalues(op, 3, guesses=[(1.5, 0.1), (2.5, 0.1)])
    assert formed == [2000]
    assert len(sweeps) > 50
    # one operator per grid of verify_spectrum, each formed once
    formed.clear()
    verify_spectrum(PHYS, AMB19, 2, YGrid(y_max=150.0, n_points=8500))
    assert formed == [131, 530, 2124, 8500, 17001]


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
