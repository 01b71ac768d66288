"""Independent spectral oracle: the momentum-space Hamiltonian as a matrix.

Grid points y in (0, y_max) stand for the momenta
p = p_max - y hbar omega / (2 p_max), with y = 0 at the domain bound. On
them quantize.hamiltonian_stencil, the stencil apply_hamiltonian_fd
applies, gives a symmetric tridiagonal matrix with Dirichlet ends, built
from 1 - q and V alone, never from lam or a_script. Its lowest eigenvalues
are extracted by Sturm-count bisection and compared with the algebraic
levels (n + 1/2 + lam - a_script) hbar omega.

verify_spectrum solves a chain of pilot grids, then grid N and grid
2N + 1, coarse to fine. Each grid's bisection is given probes: Sturm
counts taken first at shifts just below and above where the coarser grids
put each level. The count is monotone in the shift, so a probe is bracket
information of the same kind as a bisection midpoint: it decides
midpoints without a sweep but never changes which way one goes, and every
reported eigenvalue keeps the bits of a plain bisection. The probes come
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
# probe margins of verify_spectrum, see _probes
_COARSE_MARGIN = 0.1
_RICHARDSON_MARGIN = 1e-4


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


def default_y_max(lam, n_target):
    """Domain size enclosing the support of y^(2 lam) e^-y L_n^2 safely."""
    return 4.0 * lam + 40.0 * n_target + 50.0


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


def build_operator(phys, amb, grid):
    """hamiltonian_stencil on the grid's momenta, passed in ascending p."""
    p_max = momentum_domain(phys)
    scale = phys.hbar_omega / (2.0 * p_max)  # |dp/dy|
    diag, couplings = quantize.hamiltonian_stencil(
        phys, amb, p_max - scale * grid.points[::-1], scale * grid.spacing)
    return TridiagonalOperator(diagonal=diag, off_diagonal=couplings[1:-1])


def _record_count(op, shift, below, above):
    """Take one Sturm count at shift and tighten every level's bounds."""
    n_below = op.count_below(shift)
    for j in range(len(below)):
        if n_below > j:
            above[j] = min(above[j], shift)
        else:
            below[j] = max(below[j], shift)


def lowest_eigenvalues(op, count, probes=()):
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

    `probes` are extra shifts counted before the bisection starts, e.g.
    guesses of the eigenvalues from a coarser grid. Their counts enter
    below/above like a midpoint's, and for the same reason they cannot
    move a bit: start brackets, midpoints and stop rule are untouched, so
    any list of probes (unsorted, repeated, outside the spectrum, or on an
    eigenvalue) returns the values a plain bisection returns. A probe
    close to an eigenvalue only decides more midpoints without a sweep.
    """
    if not 1 <= count <= 10:
        raise ValueError(f"count must be in 1..10, got {count}")
    if count > op.dim:
        raise ValueError(
            f"count {count} exceeds the dimension {op.dim} of the operator")
    lo_all, hi_all = op.gershgorin()
    below = [-math.inf] * count
    above = [math.inf] * count
    for shift in probes:
        _record_count(op, shift, below, above)
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


def _probes(hbar_omega, solved, grid, op):
    """Shifts bracketing each level on grid, placed from coarser solutions.

    After one coarser grid (spacing h1) a level sits within the h^2 error
    scale of its value there: E1 +- 0.1 hbar omega h1^2. After two, the
    Richardson guess E2 + (E2 - E1)(h^2 - h2^2)/(h2^2 - h1^2) is off by the
    h^4 term and by the rounding of the Sturm counts behind E1 and E2, so
    the margin is 1e-4 |E2 - E1| plus 2 eps ||op||. The guess only places
    probes; the bisection still returns its own bits (lowest_eigenvalues).
    """
    if not solved:
        return ()
    if len(solved) == 1:
        (coarse, values), = solved
        centres = values
        margin = _COARSE_MARGIN * hbar_omega * coarse.spacing ** 2
    else:
        (g1, e1), (g2, e2) = solved[-2:]
        h1, h2, h = g1.spacing ** 2, g2.spacing ** 2, grid.spacing ** 2
        centres = e2 + (e2 - e1) * (h - h2) / (h2 - h1)
        norm = max(abs(bound) for bound in op.gershgorin())
        margin = (_RICHARDSON_MARGIN * np.abs(e2 - e1)
                  + 2.0 * np.finfo(float).eps * norm)
    return np.concatenate([centres - margin, centres + margin]).tolist()


def verify_spectrum(phys, amb, n_max, grid):
    """Pair solver eigenvalues with the algebraic spectrum for n = 0..n_max.

    Also solves on the half-spacing grid so the quadratic convergence of
    the discretization is observable from the error ratios.

    The grids are solved coarse to fine, starting from a chain of pilot
    grids: each has (n - 3) // 4 points for the n of the grid after it,
    ~4x its spacing, and the chain grows while that keeps MIN_POINTS
    points. Each grid's bisection is probed where the coarser ones put its
    levels (_probes). Probes save Sturm sweeps but cannot move a bit of the
    reported eigenvalues; the pilots' are used for nothing else.
    """
    if not 0 <= n_max <= 5:
        raise ValueError(f"n_max must be in 0..5, got {n_max}")
    table = spectrum(phys, amb, n_max)
    grids = [grid, grid.refined()]
    while (grids[0].n_points - 3) // 4 >= MIN_POINTS:
        grids.insert(0, YGrid(y_max=grid.y_max,
                              n_points=(grids[0].n_points - 3) // 4))
    solved = []
    for g in grids:
        op = build_operator(phys, amb, g)
        probes = _probes(phys.hbar_omega, solved, g, op)
        solved.append((g, lowest_eigenvalues(op, n_max + 1, probes)))
    return SpectrumComparison(analytic=table.energies,
                              numeric=solved[-2][1],
                              refined_numeric=solved[-1][1])
