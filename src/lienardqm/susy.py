"""Factorization machinery: superpotential, partner potentials, shape
invariance, ladder operators, and the algebraic spectrum.

The first-order operators

    A   = (hbar/sqrt 2) (1/sqrt m) d/dp + W(p)
    A^+ = -(hbar/sqrt 2) d/dp (1/sqrt m) . + W(p)

factor the Hamiltonian, H - e_0 = A^+ A, once the superpotential

    W(p; a, b) = (a p + b) / sqrt(1 - q),    q = k p / (3 omega^2)

satisfies W^2 - (hbar/sqrt 2) (W / sqrt m)' = V - e_0. For this family
W / sqrt(m) = omega (a p + b), so the derivative term is exactly
omega * a, and matching coefficients fixes

    a = 1/sqrt(2),  b = (hbar k / (3 sqrt 2 omega)) (lam - a_script),
    e_0 = (1/2 + lam - a_script) hbar omega.

The partner potentials collapse to

    V_-(p; a, b) = (a p + b)^2 / (1 - q) - hbar omega a / sqrt(2)
    V_+(p; a, b) = (a p + b + hbar k / (6 sqrt 2 omega))^2 / (1 - q)
                   + hbar omega a / sqrt(2)

so V_+(b) = V_-(b + hbar k / (6 sqrt 2 omega)) + sqrt(2) a hbar omega: the
pair is shape invariant with the p-independent remainder sqrt(2) a hbar
omega = hbar omega, and the spectrum follows algebraically,

    e_n = (n + 1/2 + lam - a_script) hbar omega.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolationError
from .params import SQRT2, deformation_factor, derive_params
from .quantize import SampledFunction, effective_potential, mass


@dataclass(frozen=True)
class Superpotential:
    """W(p) = (a p + b) / sqrt(1 - q) with its physical parameters."""

    phys: object
    a_coef: float
    b_coef: float

    def __post_init__(self):
        if not self.a_coef > 0.0:
            raise ConstraintViolationError(f"a must be > 0, got {self.a_coef}")
        if not self.phys.is_deformed:
            return  # bound is vacuous on the whole real line
        bound = -3.0 * self.phys.omega ** 2 / self.phys.k * self.a_coef
        if not self.b_coef > bound:
            raise ConstraintViolationError(
                f"b = {self.b_coef} violates the normalizability bound b > {bound}")

    @classmethod
    def from_derived(cls, phys, derived):
        return cls(phys=phys, a_coef=derived.a_coef, b_coef=derived.b_coef)

    def shifted(self, b_offset):
        """Same slope, offset b; the partner chain advances b by
        hbar k / (6 sqrt 2 omega) per rung."""
        return Superpotential(phys=self.phys, a_coef=self.a_coef,
                              b_coef=self.b_coef + b_offset)


def partner_shift(phys):
    """Offset taking b to the partner's b: hbar k / (6 sqrt 2 omega)."""
    return phys.hbar * phys.k / (6.0 * SQRT2 * phys.omega)


def superpotential_eval(sp, p):
    """W(p) on the open momentum domain (scalar or array)."""
    phys = sp.phys
    u = deformation_factor(phys, p)
    p = np.asarray(p, dtype=float)
    out = (sp.a_coef * p + sp.b_coef) / np.sqrt(u)
    return out if out.ndim else float(out)


def partner_minus(phys, a_coef, b_coef, p):
    """V_- in compact form for arbitrary (a, b)."""
    u = deformation_factor(phys, p)
    p = np.asarray(p, dtype=float)
    out = (a_coef * p + b_coef) ** 2 / u - phys.hbar_omega * a_coef / SQRT2
    return out if out.ndim else float(out)


def partner_plus(phys, a_coef, b_coef, p):
    """V_+ in compact form for arbitrary (a, b)."""
    u = deformation_factor(phys, p)
    p = np.asarray(p, dtype=float)
    out = ((a_coef * p + b_coef + partner_shift(phys)) ** 2 / u
           + phys.hbar_omega * a_coef / SQRT2)
    return out if out.ndim else float(out)


def partner_potentials(phys, derived, p):
    """(V_-, V_+) at p for the fitted superpotential parameters."""
    return (partner_minus(phys, derived.a_coef, derived.b_coef, p),
            partner_plus(phys, derived.a_coef, derived.b_coef, p))


def partner_potentials_from_definitions(phys, derived, p):
    """(V_-, V_+) from the defining first-order expressions.

    V_- = W^2 - (hbar/sqrt 2)(W/sqrt m)', and V_+ carries the explicit
    W', m', m'' combination; all derivatives are analytic closed forms.
    Serves as the independent route against the compact forms.
    """
    u = deformation_factor(phys, p)
    p = np.asarray(p, dtype=float)
    a, b = derived.a_coef, derived.b_coef
    w2 = phys.omega ** 2
    w = (a * p + b) / np.sqrt(u)
    # (W / sqrt m)' = d/dp [omega (a p + b)] = omega a
    v_minus = w ** 2 - phys.hbar / SQRT2 * phys.omega * a
    w_prime = a / np.sqrt(u) + (a * p + b) * phys.k / (6.0 * w2) * u ** -1.5
    prof = mass(phys, p)
    m, m_p, m_pp = prof.m, prof.m_prime, prof.m_double_prime
    v_plus = (w ** 2
              + phys.hbar / SQRT2 * (w_prime / np.sqrt(m) + w * m_p / (2.0 * m ** 1.5))
              - phys.hbar ** 2 / 2.0 * (0.75 * m_p ** 2 / m ** 3 - 0.5 * m_pp / m ** 2))
    if p.ndim:
        return v_minus, v_plus
    return float(v_minus), float(v_plus)


def level_energy(n, shift, hbar_omega):
    """e_n = (n + 1/2 + shift) hbar omega, for floats or numpy arrays."""
    return (n + 0.5 + shift) * hbar_omega


def ground_state_energy(phys, derived):
    """e_0 = (1/2 + lam - a_script) hbar omega."""
    return level_energy(0, derived.shift, phys.hbar_omega)


def riccati_residual(phys, amb, grid, b_offset=0.0):
    """Max |W^2 - (hbar/sqrt 2)(W/sqrt m)' - V + e_0| over the grid.

    Zero (to rounding) for the fitted parameters; b_offset perturbs the
    superpotential offset so tests can confirm the residual actually
    detects non-solutions.
    """
    derived = derive_params(phys, amb)
    p = np.asarray(grid, dtype=float)
    u = deformation_factor(phys, p)
    w = (derived.a_coef * p + derived.b_coef + b_offset) / np.sqrt(u)
    v_eff = effective_potential(phys, amb, p)
    e0 = ground_state_energy(phys, derived)
    resid = w ** 2 - phys.hbar / SQRT2 * phys.omega * derived.a_coef - v_eff + e0
    return float(np.max(np.abs(resid)))


def shape_invariance_remainder(phys, derived, grid):
    """Pointwise V_+(b) - V_-(b + shift) over the grid: (mean, stddev).

    The mean is the remainder sqrt(2) a hbar omega = hbar omega; the
    stddev measures p-dependence and must sit at rounding level.
    """
    p = np.asarray(grid, dtype=float)
    b2 = derived.b_coef + partner_shift(phys)
    r = (partner_plus(phys, derived.a_coef, derived.b_coef, p)
         - partner_minus(phys, derived.a_coef, b2, p))
    return float(np.mean(r)), float(np.std(r))


@dataclass(frozen=True)
class SpectrumTable:
    """Bound-state energies e_0..e_n."""

    energies: np.ndarray

    def __post_init__(self):
        self.energies.flags.writeable = False

    def levels(self):
        return [(n, float(e)) for n, e in enumerate(self.energies)]

    @property
    def spacings(self):
        return np.diff(self.energies)


def spectrum(phys, amb, n_max):
    """Energies e_n = (n + 1/2 + shift) hbar omega for n = 0..n_max.

    The affine form is cross-checked against the ladder construction
    e_n = e_0 + sum of the n constant remainders, to 1e-14 of max |e_n|;
    on the harmonic branch (k = 0) the shift vanishes identically.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    n = np.arange(n_max + 1)
    if phys.is_deformed:
        derived = derive_params(phys, amb)
        shift = derived.shift
        remainder = SQRT2 * derived.a_coef * phys.hbar_omega
    else:
        shift = 0.0
        remainder = phys.hbar_omega
    energies = level_energy(n, shift, phys.hbar_omega)
    ladder = (0.5 + shift) * phys.hbar_omega + n * remainder
    defect = float(np.max(np.abs(energies - ladder)))
    if defect > 1e-14 * max(1.0, float(np.max(np.abs(energies)))):
        raise ConstraintViolationError(
            f"algebraic/ladder spectrum mismatch: {defect}")
    return SpectrumTable(energies=energies)


def _inv_sqrt_mass(phys, p):
    return phys.omega * np.sqrt(deformation_factor(phys, p))


def lowering(sp, p, values, derivative):
    """A psi = (hbar/sqrt 2)(1/sqrt m) psi' + W psi from psi and psi' at p."""
    return (sp.phys.hbar / SQRT2 * _inv_sqrt_mass(sp.phys, p) * derivative
            + superpotential_eval(sp, p) * values)


def apply_lowering(sp, samples):
    """A psi with psi' by central differences, on the sample grid's interior."""
    grid = samples.grid
    v = samples.values
    dpsi = (v[2:] - v[:-2]) / (2.0 * grid.spacing)
    return SampledFunction(grid=grid.interior(), values=lowering(
        sp, grid.points[1:-1], v[1:-1], dpsi))


def apply_raising(sp, samples):
    """A^+ psi = -(hbar/sqrt 2) d/dp (psi / sqrt m) + W psi."""
    phys = sp.phys
    grid = samples.grid
    p = grid.points
    v = samples.values
    h = grid.spacing
    g = v * _inv_sqrt_mass(phys, p)
    dg = (g[2:] - g[:-2]) / (2.0 * h)
    w = superpotential_eval(sp, p[1:-1])
    out = -phys.hbar / SQRT2 * dg + w * v[1:-1]
    return SampledFunction(grid=grid.interior(), values=out)


def ground_state_exponent(sp):
    """Exponent E = (3 sqrt 2 omega / hbar k)(b + 3 omega^2 a / k) of (1-q)^E.

    Equals lam when (a, b) carry their fitted values.
    """
    phys = sp.phys
    return (3.0 * SQRT2 * phys.omega / (phys.hbar * phys.k)
            * (sp.b_coef + 3.0 * phys.omega ** 2 / phys.k * sp.a_coef))


def ground_state_closed_form(sp, p):
    """Unnormalized ground state (1-q)^E exp(3 sqrt 2 omega a p / (hbar k))."""
    phys = sp.phys
    u = deformation_factor(phys, p)
    p = np.asarray(p, dtype=float)
    exponent = ground_state_exponent(sp)
    out = u ** exponent * np.exp(
        3.0 * SQRT2 * phys.omega * sp.a_coef / (phys.hbar * phys.k) * p)
    return out if out.ndim else float(out)
