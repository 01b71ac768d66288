"""Independent spectral oracles: the momentum-space Hamiltonian as a matrix.

Both oracles read the operator's own coefficients, 1 - q and V, never lam
or a_script, and are compared with the algebraic levels
(n + 1/2 + lam - a_script) hbar omega.

collocation_operator, behind `verify`'s levels and operator rows, works in
x = sqrt(y) for p = p_max - y hbar omega / (2 p_max), y = 0 at the domain
bound. There the operator is -(hbar omega / 4) x^-1 d/dx (x d/dx) + W(x),
with W the effective potential at the momentum of x. It is collocated at
Chebyshev points on window_x, a window read off W itself: a fixed number
of local harmonic widths either side of the minimum of W.

verify_spectrum, the entry point of the acceptance criteria, solves
quantize.hamiltonian_stencil on points uniform in y (a YGrid) and on the
grid of half the spacing. The stencil gives a symmetric tridiagonal
matrix with Dirichlet ends, whose lowest eigenvalues are extracted by
Sturm-count bisection.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels, quantize
from .errors import ConvergenceError
from .params import momentum_domain
from .susy import spectrum

BISECTION_TOL = 1e-10
_MAX_BISECTIONS = 200
MIN_POINTS = 500
# window_x: 9 widths from their centre, the harmonic states n <= 2 are
# below 1e-20 of their peak density (4e-11 of their peak amplitude)
_WINDOW_WIDTHS = 9.0


@dataclass(frozen=True)
class YGrid:
    """Uniform interior points i*h, i = 1..n_points, h = y_max/(n_points+1).

    y = 0 and y = y_max are the Dirichlet endpoints and are excluded.
    """

    y_max: float
    n_points: int

    def __post_init__(self):
        if not 0.0 < self.y_max < math.inf:
            raise ValueError(f"y_max must be finite and > 0, got {self.y_max}")
        if not isinstance(self.n_points, numbers.Integral):
            raise ValueError(
                f"n_points must be an integer, got {self.n_points!r}")
        if self.n_points < MIN_POINTS:
            raise ValueError(
                f"need at least {MIN_POINTS} grid points, got {self.n_points}")

    @property
    def spacing(self):
        return self.y_max / (self.n_points + 1)

    @property
    def points(self):
        return self.spacing * np.arange(1, self.n_points + 1)

    def refined(self):
        """Grid with exactly half the spacing (n -> 2n + 1)."""
        return YGrid(y_max=self.y_max, n_points=2 * self.n_points + 1)


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix.

    The rows the Sturm kernel reads are formed once, on the first count,
    and serve every shift after it.
    """

    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self):
        if len(self.off_diagonal) != len(self.diagonal) - 1:
            raise ValueError("off-diagonal must be one entry shorter than diagonal")
        self.diagonal.flags.writeable = False
        self.off_diagonal.flags.writeable = False

    @property
    def dim(self):
        return len(self.diagonal)

    @cached_property
    def _sturm_rows(self):
        return kernels.sturm_rows(self.diagonal, self.off_diagonal)

    def count_below(self, shift):
        """Number of eigenvalues strictly below shift (Sturm sign count)."""
        return kernels.sturm_count(*self._sturm_rows, shift)

    def gershgorin(self):
        radius = np.zeros(self.dim)
        radius[:-1] += np.abs(self.off_diagonal)
        radius[1:] += np.abs(self.off_diagonal)
        return (float(np.min(self.diagonal - radius)),
                float(np.max(self.diagonal + radius)))


def _momentum_map(phys):
    """p_max and scale = |dp/dy| of the map p = p_max - scale * y."""
    p_max = momentum_domain(phys)
    return p_max, phys.hbar_omega / (2.0 * p_max)


def build_operator(phys, amb, grid):
    """hamiltonian_stencil on the grid's momenta, passed in ascending p."""
    p_max, scale = _momentum_map(phys)
    diag, couplings = quantize.hamiltonian_stencil(
        phys, amb, p_max - scale * grid.points[::-1], scale * grid.spacing)
    return TridiagonalOperator(diagonal=diag, off_diagonal=couplings[1:-1])


def window_x(phys, amb):
    """The x window (lo, hi) of the lowest levels, read off W itself.

    Near the minimizer x0 of W the lowest levels are harmonic states of
    width w = (hbar omega / (4 W''(x0)))^(1/4), O(1) whatever the
    parameters, so the window spans _WINDOW_WIDTHS widths either side of
    x0, cut at the domain bound x = 0: [max(0, x0 - 9 w), x0 + 9 w].

    From the x of p = 0, x doubles or halves until W turns, so [x/2, 2x]
    brackets x0. The bracket is sampled once; a parabola through the
    discrete minimum and its neighbours, then one through 1e-3 x0 either
    side of that vertex, place x0, and the last gives W''(x0).
    """
    p_max, scale = _momentum_map(phys)

    def potential(x):  # W at the momentum of y = x^2
        return quantize.effective_potential(phys, amb, p_max - scale * x ** 2)

    x = math.sqrt(p_max / scale)  # p = 0
    step = 0.5 if potential(2.0 * x) > potential(x) else 2.0
    while potential(step * x) < potential(x):
        x *= step
    xs = np.linspace(0.5 * x, 2.0 * x, 1025)
    x0 = xs[np.argmin(potential(xs))]
    for d in (xs[1] - xs[0], 1e-3 * x0):
        lo, mid, hi = potential(np.array([x0 - d, x0, x0 + d]))
        curvature = (lo - 2.0 * mid + hi) / d ** 2
        x0 += 0.5 * (lo - hi) / (curvature * d)
    reach = _WINDOW_WIDTHS * (0.25 * phys.hbar_omega / curvature) ** 0.25
    return float(max(0.0, x0 - reach)), float(x0 + reach)


def _cheb(n):
    """Trefethen's cheb: the points cos(pi j / n), j = 0..n, and their
    differentiation matrix (Spectral Methods in MATLAB, SIAM 2000, ch. 6)."""
    t = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[[0, -1]] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    d = np.outer(c, 1.0 / c) / (t[:, None] - t[None, :] + np.eye(n + 1))
    return t, d - np.diag(d.sum(axis=1))


def collocation_operator(phys, amb, n):
    """The operator in x = sqrt(y) at the n + 1 Chebyshev nodes of window_x.

    With u = sqrt(x) psi it is -kappa u'' + (W - kappa / (4 x^2)) u, kappa =
    hbar omega / 4. Returns the nodes x, descending from hi to lo, their
    momenta p, the matrices -kappa d^2/dx^2 and d/dp with a row for each
    interior node and a column for each node, and W - kappa / (4 x^2) at
    the interior nodes.
    """
    lo, hi = window_x(phys, amb)
    t, d = _cheb(n)
    x = lo + 0.5 * (hi - lo) * (t + 1.0)
    p_max, scale = _momentum_map(phys)
    p = p_max - scale * x ** 2
    kappa = 0.25 * phys.hbar_omega
    inner = x[1:-1]
    return (x, p, -kappa * (2.0 / (hi - lo)) ** 2 * (d @ d)[1:-1],
            2.0 / (hi - lo) * d[1:-1] / (-2.0 * scale * inner[:, None]),
            (quantize.effective_potential(phys, amb, p[1:-1])
             - kappa / (4.0 * inner ** 2)))


def collocation_levels(phys, amb, n):
    """The three lowest levels of the collocation_operator with u = 0 at
    both ends, by numpy.linalg.eigvals. The matrix is not symmetric, so a
    complex level among the lowest three raises ConvergenceError instead
    of being passed off as its real part.
    """
    _, _, kinetic, _, shifted = collocation_operator(phys, amb, n)
    values = np.linalg.eigvals(kinetic[:, 1:-1] + np.diag(shifted))
    lowest = values[np.argsort(values.real)[:3]]
    if np.any(lowest.imag != 0.0):
        raise ConvergenceError(
            f"collocation at n = {n} gave complex levels {lowest.tolist()}")
    return lowest.real


def _record_count(op, shift, below, above):
    """Take one Sturm count at shift and tighten every level's bounds."""
    n_below = op.count_below(shift)
    for j in range(len(below)):
        if n_below > j:
            above[j] = min(above[j], shift)
        else:
            below[j] = max(below[j], shift)


def lowest_eigenvalues(op, count):
    """The `count` smallest eigenvalues, each bisected to 1e-10 absolute.

    Bisection on the Sturm count is deterministic and needs no dense
    factorization; brackets start from the Gershgorin bounds and reuse the
    previously located eigenvalue as the lower end.

    Every count taken serves all wanted levels, as in LAPACK xSTEBZ:
    below[j] is the largest shift seen with at most j eigenvalues under it
    and above[j] the smallest with more than j. A midpoint of level k at or
    beyond either is decided without a sweep. The computed Sturm count is
    monotone in the shift (Demmel, Dhillon and Ren 1995), so the decision
    is the one a sweep would give: every level visits the same midpoints
    and returns the same bits as a plain bisection, with fewer sweeps.
    """
    if not 1 <= count <= 10:
        raise ValueError(f"count must be in 1..10, got {count}")
    if count > op.dim:
        raise ValueError(
            f"count {count} exceeds the dimension {op.dim} of the operator")
    lo_all, hi_all = op.gershgorin()
    below = [-math.inf] * count
    above = [math.inf] * count
    out = np.empty(count)
    lo_start = lo_all
    for k in range(count):
        lo, hi = lo_start, hi_all
        iterations = 0
        while hi - lo > BISECTION_TOL:
            iterations += 1
            if iterations > _MAX_BISECTIONS:
                raise ConvergenceError(
                    f"bisection for eigenvalue {k} did not reach "
                    f"{BISECTION_TOL} in {_MAX_BISECTIONS} iterations")
            mid = 0.5 * (lo + hi)
            if below[k] < mid < above[k]:
                _record_count(op, mid, below, above)
            if mid >= above[k]:
                hi = mid
            else:
                lo = mid
        out[k] = 0.5 * (lo + hi)
        lo_start = out[k] - BISECTION_TOL
    return out


def sign_changes(values):
    """Count strict sign alternations, ignoring entries below 1e-8 of the sup."""
    v = np.asarray(values)
    v = v[np.abs(v) > 1e-8 * np.max(np.abs(v))]
    return int(np.sum(np.sign(v[1:]) * np.sign(v[:-1]) < 0))


@dataclass(frozen=True)
class SpectrumComparison:
    """Solver-vs-algebraic comparison on a grid and its refinement."""

    analytic: np.ndarray
    numeric: np.ndarray
    refined_numeric: np.ndarray

    @property
    def errors(self):
        return np.abs(self.numeric - self.analytic)

    @property
    def refined_errors(self):
        return np.abs(self.refined_numeric - self.analytic)

    @property
    def convergence_ratios(self):
        return self.errors / self.refined_errors


def verify_spectrum(phys, amb, n_max, grid):
    """Pair solver eigenvalues with the algebraic spectrum for n = 0..n_max.

    Also solves on the half-spacing grid so the quadratic convergence of
    the discretization is observable from the error ratios.
    """
    if not 0 <= n_max <= 5:
        raise ValueError(f"n_max must be in 0..5, got {n_max}")
    table = spectrum(phys, amb, n_max)
    numeric, refined = (lowest_eigenvalues(build_operator(phys, amb, g),
                                           n_max + 1)
                        for g in (grid, grid.refined()))
    return SpectrumComparison(analytic=table.energies, numeric=numeric,
                              refined_numeric=refined)