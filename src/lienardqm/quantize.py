"""Momentum-space quantization: mass profile, effective potential, and a
conservative finite-difference application of the quantum Hamiltonian.

With q = k p / (3 omega^2), the kinetic mass and potential read

    m(p) = 1 / (omega^2 (1 - q)),        U(p) = p^2 / (2 (1 - q)),

and the symmetric-ordering recipe with exponents (alpha, beta, gamma),
alpha + beta + gamma = -1, produces the effective potential

    V = U + (hbar^2/2) [ alpha gamma m'^2/m^3
                         + (alpha+gamma) (m'^2/m^3 - m''/(2 m^2)) ].

For this mass family m'^2/m^3 == m''/(2 m^2), so the ordering enters only
through the product alpha*gamma and V collapses to the closed form

    V(p) = [p^2 + alpha gamma (hbar k / 3 omega)^2] / (2 (1 - q)).

The Hamiltonian

    H = -(hbar omega)^2/2 * d/dp (1 - q) d/dp + V(p)

is discretized once, in flux form with midpoint coefficients (exactly
symmetric), by hamiltonian_stencil: apply_hamiltonian_fd applies it to
samples and eigensolver.build_operator solves it as a matrix.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatchError
from .params import deformation_factor, momentum_domain


@dataclass(frozen=True)
class MassProfile:
    """Mass and its first two momentum derivatives at a point (closed forms)."""

    m: float
    m_prime: float
    m_double_prime: float


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform momentum samples strictly inside the domain."""

    points: np.ndarray
    spacing: float

    def __post_init__(self):
        self.points.flags.writeable = False

    @classmethod
    def uniform(cls, phys, lo, hi, num):
        if num < 16:
            raise ValueError(f"need at least 16 grid points, got {num}")
        if not lo < hi:
            raise ValueError(f"empty momentum window [{lo}, {hi}]")
        p_max = momentum_domain(phys)
        if hi >= p_max:
            raise DomainError(
                f"grid end {hi} not strictly below the domain bound {p_max}")
        points = np.linspace(lo, hi, num)
        return cls(points=points, spacing=(hi - lo) / (num - 1))

    @classmethod
    def with_spacing(cls, phys, lo, hi, spacing):
        num = int(round((hi - lo) / spacing)) + 1
        return cls.uniform(phys, lo, lo + spacing * (num - 1), num)

    def interior(self):
        return MomentumGrid(points=self.points[1:-1].copy(), spacing=self.spacing)

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class SampledFunction:
    """Real function values attached to the grid they were sampled on."""

    grid: MomentumGrid
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != len(self.grid):
            raise GridMismatchError(
                f"{len(self.values)} values on a {len(self.grid)}-point grid")
        self.values.flags.writeable = False


def mass(phys, p):
    """MassProfile at p (scalar or array): m, m', m'' in closed form."""
    u = deformation_factor(phys, p)
    w2 = phys.omega ** 2
    m = 1.0 / (w2 * u)
    m_p = phys.k / (3.0 * w2 ** 2) * u ** -2
    m_pp = 2.0 * phys.k ** 2 / (9.0 * w2 ** 3) * u ** -3
    if u.ndim:
        return MassProfile(m=m, m_prime=m_p, m_double_prime=m_pp)
    return MassProfile(m=float(m), m_prime=float(m_p), m_double_prime=float(m_pp))


def potential_U(phys, p):
    """Classical potential term U(p) = p^2 / (2 (1 - q))."""
    u = deformation_factor(phys, p)
    p = np.asarray(p, dtype=float)
    out = p ** 2 / (2.0 * u)
    return out if out.ndim else float(out)


def von_roos_potential(profile, u_value, amb, hbar):
    """Generic ordering correction added to U (no closed-form shortcuts)."""
    m, m_p, m_pp = profile.m, profile.m_prime, profile.m_double_prime
    grad_sq = m_p ** 2 / m ** 3
    return u_value + hbar ** 2 / 2.0 * (
        amb.alpha * amb.gamma * grad_sq
        + (amb.alpha + amb.gamma) * (grad_sq - m_pp / (2.0 * m ** 2)))


def effective_potential(phys, amb, p):
    """Closed-form effective potential [p^2 + ag (hbar k/3 omega)^2] / (2(1-q)).

    Must agree with von_roos_potential composed with mass/potential_U to
    rounding; consumes the ambiguity parameters only through their product.
    """
    u = deformation_factor(phys, p)
    p = np.asarray(p, dtype=float)
    shift_sq = amb.product * (phys.hbar * phys.k / (3.0 * phys.omega)) ** 2
    out = (p ** 2 + shift_sq) / (2.0 * u)
    return out if out.ndim else float(out)


def hamiltonian_stencil(phys, amb, points, spacing):
    """Diagonal and the n + 1 midpoint couplings of H on ascending points.

    diag_i = c (u_{i-1/2} + u_{i+1/2}) + V(p_i), coupling_{i+1/2} =
    -c u_{i+1/2}, with c = (hbar omega)^2 / (2 h^2) and u = 1 - q.
    """
    c = (phys.hbar * phys.omega) ** 2 / (2.0 * spacing ** 2)
    u = deformation_factor(
        phys, np.append(points - 0.5 * spacing, points[-1] + 0.5 * spacing))
    return c * (u[:-1] + u[1:]) + effective_potential(phys, amb, points), -c * u


def apply_hamiltonian_fd(phys, amb, grid, samples):
    """Apply the quantum Hamiltonian to sampled values; result on the interior.

    The hamiltonian_stencil of the interior points, whose outer couplings
    reach the end samples; requires the samples to live on the given grid
    and to have decayed below 1e-8 of their sup at both ends, so the
    implicit zero-extension outside the stencil is harmless.
    """
    if samples.grid is not grid and not np.array_equal(samples.grid.points, grid.points):
        raise GridMismatchError("samples were taken on a different grid")
    v = samples.values
    sup = float(np.max(np.abs(v))) or 1.0
    if abs(v[0]) > 1e-8 * sup or abs(v[-1]) > 1e-8 * sup:
        raise DomainError(
            "samples do not vanish at the grid ends; enlarge the window")
    diag, b = hamiltonian_stencil(phys, amb, grid.points[1:-1], grid.spacing)
    values = diag * v[1:-1] + b[:-1] * v[:-2] + b[1:] * v[2:]
    return SampledFunction(grid=grid.interior(), values=values)
