"""Independent spectral oracle: the momentum-space Hamiltonian as a matrix.

Grid points y in (0, y_max) stand for the momenta
p = p_max - y hbar omega / (2 p_max), with y = 0 at the domain bound. On
them quantize.hamiltonian_stencil, the stencil apply_hamiltonian_fd
applies, gives a symmetric tridiagonal matrix with Dirichlet ends, built
from 1 - q and V alone, never from lam or a_script. window_y_max sizes
y_max from V too: a fixed number of local harmonic widths past the
minimum of V in x = sqrt(y). The lowest eigenvalues are extracted by
Sturm-count bisection and compared with the algebraic levels
(n + 1/2 + lam - a_script) hbar omega.

verify_spectrum solves a chain of pilot grids, then grid N and grid
2N + 1, coarse to fine. Each grid's bisection first takes Sturm counts
around a guess of each level extrapolated from the coarser grids. The
count is monotone in the shift, so such a count is bracket
information of the same kind as a bisection midpoint: it decides
midpoints without a sweep but never changes which way one goes, and every
reported eigenvalue keeps the bits of a plain bisection. The guesses come
from the solver's own coarser solutions, never from the algebraic
spectrum it is checked against.
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
_COARSE_MARGIN = 0.1  # see _guesses
_WIDENING, _MAX_WIDENINGS = 16.0, 8  # see lowest_eigenvalues
# window_y_max: 9 widths from their centre, the harmonic states n <= 2 are
# below 1e-20 of their peak density (4e-11 of their peak amplitude)
_WINDOW_WIDTHS = 9.0


@dataclass(frozen=True)
class YGrid:
    """Uniform interior points i*h, i = 1..n_points, h = y_max/(n_points+1).

    y = 0 and y = y_max are the Dirichlet endpoints and are excluded.
    """

    y_max: float
    n_points: int
    _floor = MIN_POINTS  # least n_points; a class attribute, not a field

    def __post_init__(self):
        if not 0.0 < self.y_max < math.inf:
            raise ValueError(f"y_max must be finite and > 0, got {self.y_max}")
        if not isinstance(self.n_points, numbers.Integral):
            raise ValueError(
                f"n_points must be an integer, got {self.n_points!r}")
        if self.n_points < self._floor:
            raise ValueError(
                f"need at least {self._floor} grid points, got {self.n_points}")

    @property
    def spacing(self):
        return self.y_max / (self.n_points + 1)

    @property
    def points(self):
        return self.spacing * np.arange(1, self.n_points + 1)

    def refined(self):
        """Grid with exactly half the spacing (n -> 2n + 1)."""
        return YGrid(y_max=self.y_max, n_points=2 * self.n_points + 1)


class _PilotGrid(YGrid):
    """A coarse grid that verify_spectrum solves only to place guesses."""

    _floor = 60


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


def window_y_max(phys, amb):
    """Upper end of the y window, read off the operator's own potential.

    In x = sqrt(y) the operator is -(hbar omega / 4) x^-1 d/dx (x d/dx)
    + W(x), with W the effective potential at the momentum of y = x^2. Near
    the minimizer x0 of W the lowest levels are harmonic states of width
    w = (hbar omega / (4 W''(x0)))^(1/4), O(1) whatever the parameters, so
    the window ends _WINDOW_WIDTHS widths past x0: y_max = (x0 + 9 w)^2.
    The lower end stays at y = 0, the domain bound.

    From the x of p = 0, x doubles or halves until W turns, so [x/2, 2x]
    brackets x0. The bracket is sampled once; a parabola through the
    discrete minimum and its neighbours, then one through 1e-3 x0 either
    side of that vertex, place x0, and the last gives W''(x0).
    """
    p_max, scale = _momentum_map(phys)

    def potential(x):
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
    width = (0.25 * phys.hbar_omega / curvature) ** 0.25
    return float((x0 + _WINDOW_WIDTHS * width) ** 2)


def _record_count(op, shift, below, above):
    """Take one Sturm count at shift and tighten every level's bounds."""
    n_below = op.count_below(shift)
    for j in range(len(below)):
        if n_below > j:
            above[j] = min(above[j], shift)
        else:
            below[j] = max(below[j], shift)


def lowest_eigenvalues(op, count, guesses=()):
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

    `guesses` holds at most one (centre, margin) pair per level, from
    level 0 up. Before the bisection, level j is counted at centre -+
    margin; on a side where the level lies beyond the shift, the margin
    widens 16-fold, at most 8 times, until a count brackets the level.
    Shifts that below/above already decide, or that are not finite, are
    not counted. These counts enter below/above like a midpoint's, so they
    cannot move a bit either: any guesses (far off, on an eigenvalue, with
    a subnormal or huge margin, NaN or infinite) return the values a plain
    bisection returns. A close guess decides more midpoints without a
    sweep; a wrong one costs at most 18 counts.
    """
    if not 1 <= count <= 10:
        raise ValueError(f"count must be in 1..10, got {count}")
    if count > op.dim:
        raise ValueError(
            f"count {count} exceeds the dimension {op.dim} of the operator")
    if len(guesses) > count:
        raise ValueError(
            f"{len(guesses)} guesses for {count} levels; at most one a level")
    lo_all, hi_all = op.gershgorin()
    below = [-math.inf] * count
    above = [math.inf] * count
    for j, (centre, margin) in enumerate(guesses):
        for step in (-margin, margin):
            for _ in range(_MAX_WIDENINGS + 1):
                shift = centre + step
                if not below[j] < shift < above[j]:
                    break
                _record_count(op, shift, below, above)
                step *= _WIDENING
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


def _guesses(hbar_omega, solved, grid):
    """A (centre, margin) guess per level on grid.

    solved holds the (grid, eigenvalues) of the coarser grids. A level
    moves as c0 + c1 h^2 + c2 h^4 + ..., so the centre is the polynomial in
    h^2 through the last (at most three) solved grids, taken at this h^2.
    After one grid (spacing h1) that is the level there, within the h^2
    error scale 0.1 hbar omega h1^2. After more, it is off by the next
    power of h^2 and the coarser values' bisection tolerance, so the margin
    is 2 BISECTION_TOL; lowest_eigenvalues widens it on a miss.
    """
    if not solved:
        return ()
    last = [(g.spacing ** 2, values) for g, values in solved[-3:]]
    centres = sum(values * math.prod((grid.spacing ** 2 - xj) / (xi - xj)
                                     for xj, _ in last if xj != xi)
                  for xi, values in last)
    margin = (_COARSE_MARGIN * hbar_omega * last[0][0] if len(last) == 1
              else 2.0 * BISECTION_TOL)
    return [(c, margin) for c in centres]


def verify_spectrum(phys, amb, n_max, grid):
    """Pair solver eigenvalues with the algebraic spectrum for n = 0..n_max.

    Also solves on the half-spacing grid so the quadratic convergence of
    the discretization is observable from the error ratios.

    The grids are solved coarse to fine, starting from a chain of pilot
    grids: each has (n - 3) // 4 points for the n of the grid after it,
    ~4x its spacing, and the chain grows while that keeps 60 points
    (_PilotGrid; a caller's grid needs MIN_POINTS). Each grid's bisection
    starts from guesses extrapolated from the coarser ones (_guesses). They
    save Sturm sweeps but cannot move a bit of the reported eigenvalues;
    the pilots' are used for nothing else.
    """
    if not 0 <= n_max <= 5:
        raise ValueError(f"n_max must be in 0..5, got {n_max}")
    table = spectrum(phys, amb, n_max)
    grids = [grid, grid.refined()]
    while (grids[0].n_points - 3) // 4 >= _PilotGrid._floor:
        grids.insert(0, _PilotGrid(y_max=grid.y_max,
                                   n_points=(grids[0].n_points - 3) // 4))
    solved = []
    for g in grids:
        op = build_operator(phys, amb, g)
        guesses = _guesses(phys.hbar_omega, solved, g)
        solved.append((g, lowest_eigenvalues(op, n_max + 1, guesses)))
    return SpectrumComparison(analytic=table.energies,
                              numeric=solved[-2][1],
                              refined_numeric=solved[-1][1])
