"""Backend equivalence and independent oracles for the two hot kernels.

Every test runs on the pure-Python twin and on the C extension, which the
`c_kernels` fixture compiles from source into a temporary directory, so the
compiled path is tested whether or not the package itself was built. Each
backend's Sturm count reads the rows of its own sturm_rows.
"""

import importlib.util
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from lienardqm.eigensolver import YGrid, build_operator, lowest_eigenvalues
from lienardqm.kernels import BACKEND, pykernels
from lienardqm.params import AmbiguityParams, PhysicalParams

C_SOURCE = (Path(__file__).resolve().parents[1]
            / "src" / "lienardqm" / "kernels" / "_ckernels.c")


@pytest.fixture(scope="module")
def c_kernels(tmp_path_factory):
    """The C kernels compiled with the extension's flags, or None without a
    C compiler. A compiler that fails on the source fails the tests."""
    link = shlex.split(sysconfig.get_config_var("LDSHARED") or "")
    if not link or shutil.which(link[0]) is None:
        return None
    out = (tmp_path_factory.mktemp("ckernels")
           / f"_ckernels{sysconfig.get_config_var('EXT_SUFFIX')}")
    subprocess.run([*link, sysconfig.get_config_var("CCSHARED"), "-O3",
                    "-ffp-contract=off", f"-I{sysconfig.get_paths()['include']}",
                    str(C_SOURCE), "-o", str(out)], check=True)
    spec = importlib.util.spec_from_file_location("_ckernels", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def backends(c_kernels):
    return [pykernels] + ([c_kernels] if c_kernels is not None else [])


def _count(backend, diag, off, shift):
    return backend.sturm_count(*backend.sturm_rows(diag, off), shift)


def test_backend_selected():
    assert BACKEND in ("python", "c")


def test_sturm_rows_form(backends):
    # a_i as given and b_{i-1}^2 with 0 for row 0
    diag = np.array([1.5, -2.0, 3.25])
    off = np.array([-0.5, 3.0])
    for backend in backends:
        a, b2 = backend.sturm_rows(diag, off)
        assert list(a) == [1.5, -2.0, 3.25]
        assert list(b2) == [0.0, 0.25, 9.0]
    # the pure-Python loop iterates Python floats, not numpy scalars
    a, b2 = pykernels.sturm_rows(diag, off)
    assert {type(v) for v in [*a, *b2]} == {float}


def test_sturm_count_against_dense_eigenvalue_oracle(backends):
    # oracle: dense symmetric eigensolver on a small random tridiagonal
    rng = np.random.default_rng(7)
    n = 60
    diag = rng.normal(size=n)
    off = rng.normal(size=n - 1)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    eigs = np.linalg.eigvalsh(dense)
    shifts = np.concatenate([eigs - 1e-9, eigs + 1e-9,
                             [-100.0, 0.0, 100.0]])
    for backend in backends:
        a, b2 = backend.sturm_rows(diag, off)
        for s in shifts:  # numpy scalars, as bisection midpoints are
            assert backend.sturm_count(a, b2, s) == int(np.sum(eigs < s))


def test_sturm_count_handles_exact_submatrix_eigenvalue(backends):
    # a shift hitting an eigenvalue exactly zeroes a pivot; the tie counts
    # as below, and the count is exact immediately off the tie
    diag = np.array([2.0, 5.0, 7.0])
    off = np.array([0.0, 0.0])
    for backend in backends:
        assert _count(backend, diag, off, 2.0) == 1   # tie at 2
        assert _count(backend, diag, off, 5.0) == 2   # tie at 5
        assert _count(backend, diag, off, np.float64(5.0)) == 2
        assert _count(backend, diag, off, 5.0 - 1e-12) == 1
        assert _count(backend, diag, off, 5.0 + 1e-12) == 2
        assert _count(backend, diag, off, 100.0) == 3


def test_sturm_count_edges(backends):
    # an empty matrix has no eigenvalues; an off-diagonal too short for the
    # diagonal is an error, never a silently truncated sweep
    for backend in backends:
        assert _count(backend, np.empty(0), np.empty(0), 1.0) == 0
        assert _count(backend, np.array([0.5]), np.empty(0), 1.0) == 1
        with pytest.raises(IndexError):
            _count(backend, np.ones(4), np.ones(2), 1.0)


def test_backends_bitwise_identical(c_kernels):
    if c_kernels is None:
        pytest.skip("no C compiler (the sysconfig LDSHARED command) on "
                    "PATH, so the C kernels could not be built")
    py, c = pykernels, c_kernels
    rng = np.random.default_rng(42)
    diag = np.cumsum(rng.normal(size=3000))
    off = rng.normal(size=2999)
    for shift in (-20.0, -1.0, 0.0, 2.5, 40.0):
        assert _count(py, diag, off, shift) == _count(c, diag, off, shift)
    py_b2, c_b2 = py.sturm_rows(diag, off)[1], c.sturm_rows(diag, off)[1]
    assert np.array_equal(np.array(py_b2), c_b2)
    # an N = 8500 operator at verify's defaults (the grid it solved on the
    # window 4 lam + 130, y_max = 170), at and 1 ulp either side of its bisected eigenvalues, where pivots come closest to 0
    phys = PhysicalParams(omega=1.0, k=1.0)
    amb = AmbiguityParams(alpha=19.0, gamma=1.0)
    op = build_operator(phys, amb, YGrid(y_max=170.0, n_points=8500))
    values = lowest_eigenvalues(op, 3)
    shifts = np.concatenate([values, np.nextafter(values, -np.inf),
                             np.nextafter(values, np.inf), op.gershgorin(),
                             [0.0, 2.0, 1e3]])
    py_rows = py.sturm_rows(op.diagonal, op.off_diagonal)
    c_rows = c.sturm_rows(op.diagonal, op.off_diagonal)
    for shift in shifts:  # numpy scalars, as the bisection passes
        assert py.sturm_count(*py_rows, shift) == c.sturm_count(*c_rows, shift)
    # (k, omega, x0, v0, step, n_steps): the CLI default orbit, a fine step,
    # a coarse step with strong damping, and the harmonic case
    for args in ((1.0, 1.0, 0.0, 1.5, 1e-3, 6283),
                 (0.3, 1.7, 0.4, -0.2, 2e-4, 5000),
                 (2.0, 0.5, -0.3, 0.1, 1e-2, 3000),
                 (0.0, 1.0, 1.0, 0.0, 1e-3, 2000)):
        xs_p, vs_p = py.rk4_lienard(*args)
        xs_c, vs_c = c.rk4_lienard(*args)
        assert np.array_equal(xs_p, xs_c)
        assert np.array_equal(vs_p, vs_c)
    # a step far beyond stability drives x ** 3 past the float range
    for backend in (py, c):
        with pytest.raises(OverflowError, match="Numerical result out of range"):
            backend.rk4_lienard(1.0, 1.0, 0.0, 1.5, 3.0, 100)


def test_rk4_harmonic_oracle(backends):
    # k = 0 reduces to x'' = -omega^2 x with closed-form cos(omega t)
    omega = 1.7
    step = 1e-3
    n = 4000
    t = step * np.arange(n + 1)
    for backend in backends:
        xs, vs = backend.rk4_lienard(0.0, omega, 1.0, 0.0, step, n)
        assert np.max(np.abs(xs - np.cos(omega * t))) < 1e-9
        assert np.max(np.abs(vs + omega * np.sin(omega * t))) < 1e-9


def test_rk4_includes_initial_state(backends):
    for backend in backends:
        xs, vs = backend.rk4_lienard(1.0, 1.0, 0.25, -0.1, 0.01, 10)
        assert len(xs) == 11
        assert xs[0] == 0.25
        assert vs[0] == -0.1
