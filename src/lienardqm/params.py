"""Physical, ambiguity and derived parameters of the deformed oscillator.

Conventions
-----------
The oscillator x'' + k x x' + (k^2/9) x^3 + omega^2 x = 0 carries a
deformation strength k >= 0 and a frequency omega > 0; hbar sets the action
scale (default 1, plain reals throughout, no unit system). Quantization in
momentum space introduces two real ordering exponents alpha and gamma whose
product alone enters the physics. The derived dimensionless quantities are

    a_script = 9 omega^3 / (hbar k^2)
    lam      = sqrt(a_script^2 + alpha*gamma)        (requires alpha*gamma > -a_script^2)
    shift    = lam - a_script                        (spectral offset in hbar*omega units)
    a_coef   = 1/sqrt(2)                             (superpotential slope)
    b_coef   = hbar k / (3 sqrt(2) omega) * shift    (superpotential offset)
    p_max    = 3 omega^2 / k                         (momentum domain bound)

k = 0 has no derived parameter set (a_script diverges); callers dispatch to
the analytic harmonic-oscillator branch instead.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConstraintViolationError, DomainError

SQRT2 = math.sqrt(2.0)
_TINY = np.finfo(float).tiny  # the least positive normal float


def _require_finite(params):
    for field in fields(params):
        value = getattr(params, field.name)
        if not math.isfinite(value):
            raise ConstraintViolationError(
                f"{field.name} must be finite, got {value}")


@dataclass(frozen=True)
class PhysicalParams:
    """Deformation strength k, angular frequency omega, action scale hbar."""

    omega: float
    k: float
    hbar: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        if not self.omega > 0.0:
            raise ConstraintViolationError(f"omega must be > 0, got {self.omega}")
        if not self.hbar > 0.0:
            raise ConstraintViolationError(f"hbar must be > 0, got {self.hbar}")
        if self.k < 0.0:
            raise ConstraintViolationError(f"k must be >= 0, got {self.k}")

    @property
    def is_deformed(self):
        return self.k > 0.0

    @property
    def hbar_omega(self):
        return self.hbar * self.omega


@dataclass(frozen=True)
class AmbiguityParams:
    """Ordering exponents alpha and gamma (finite reals, stored separately).

    Only the product alpha*gamma enters any physical result; keeping the
    factors separate supports reporting, and the equality of physics across
    factorizations is asserted by tests rather than by collapsing the type.
    The admissibility bound on the product is checked in derive_params.
    """

    alpha: float
    gamma: float

    def __post_init__(self):
        _require_finite(self)

    @property
    def product(self):
        return self.alpha * self.gamma


@dataclass(frozen=True)
class DerivedParams:
    """Dimensionless scales of the quantized problem (see module docstring)."""

    a_script: float
    lam: float
    shift: float
    a_coef: float
    b_coef: float
    p_max: float


def momentum_domain(phys):
    """Upper bound of the momentum domain: 3*omega**2/k, or +inf when k = 0."""
    if not phys.is_deformed:
        return math.inf
    return 3.0 * phys.omega ** 2 / phys.k


def deformation_factor(phys, p):
    """The factor 1 - q = 1 - k p / (3 omega^2) in m(p), V, W and V_+-.

    Raises DomainError when any p lies at or beyond momentum_domain(phys).
    """
    p_max = momentum_domain(phys)
    if np.any(np.asarray(p) >= p_max):
        raise DomainError(f"momentum at or beyond the domain bound {p_max}")
    return 1.0 - phys.k * np.asarray(p, dtype=float) / (3.0 * phys.omega ** 2)


# The formulas below take floats or numpy arrays: derive_params evaluates
# them at one point, derive_grid over a grid, with the same IEEE operations
# in the same order. Powers are not among them: both take those with
# Python's float **, whose last bit numpy's power does not always match.


def _a_script(omega_cubed, k_squared, hbar):
    """a_script = 9 omega^3 / (hbar k^2), given omega^3 and k^2."""
    return 9.0 * omega_cubed / (hbar * k_squared)


def _in_range(a_script_sq, product):
    """Whether a_script^2 is a positive normal float and a_script^2 +
    alpha*gamma is finite."""
    return (a_script_sq >= _TINY) & (a_script_sq + product < math.inf)


def _admissible(a_script_sq, product):
    """The admissibility bound alpha*gamma > -a_script^2."""
    return product > -a_script_sq


def _lam_shift(a_script, a_script_sq, product, sqrt):
    """lam = sqrt(a_script^2 + alpha*gamma) and shift = lam - a_script."""
    lam = sqrt(a_script_sq + product)
    return lam, lam - a_script


def derive_params(phys, amb):
    """Build DerivedParams; requires k > 0 and alpha*gamma > -a_script^2.

    a_script and lam must also come out finite and > 0, and a_script^2 a
    normal float; extreme omega, k or hbar that break this are rejected.

    The admissibility bound is strict: at alpha*gamma = -a_script^2 the
    exponent lam vanishes and the ground state no longer vanishes at the
    momentum bound, so the boundary case is rejected together with the
    region below it.
    """
    if not phys.is_deformed:
        raise ConstraintViolationError(
            "k = 0 has no deformed parameter set; use the harmonic-limit branch")
    try:
        a_script = _a_script(phys.omega ** 3, phys.k ** 2, phys.hbar)
        a_script_sq = a_script ** 2
    except (OverflowError, ZeroDivisionError):
        # a power beyond the float range, or hbar k^2 underflowing to 0
        a_script = a_script_sq = math.inf
    product = amb.product
    if not _in_range(a_script_sq, product):
        raise ConstraintViolationError(
            f"omega = {phys.omega}, k = {phys.k}, hbar = {phys.hbar} and "
            f"alpha*gamma = {product} put a_script = 9 omega^3/(hbar k^2), "
            f"a_script^2 or lam = sqrt(a_script^2 + alpha*gamma) outside the "
            f"finite positive normal floats")
    if not _admissible(a_script_sq, product):
        raise ConstraintViolationError(
            f"ambiguity product alpha*gamma = {product} violates the bound "
            f"alpha*gamma > {-a_script_sq}")
    lam, shift = _lam_shift(a_script, a_script_sq, product, math.sqrt)
    b_coef = phys.hbar * phys.k / (3.0 * SQRT2 * phys.omega) * shift
    return DerivedParams(
        a_script=a_script,
        lam=lam,
        shift=shift,
        a_coef=1.0 / SQRT2,
        b_coef=b_coef,
        p_max=momentum_domain(phys),
    )


def _float_powers(values, n):
    """x ** n for each x of an array, with Python's float ** as
    derive_params takes it; inf where that overflows."""
    def power(x):
        try:
            return x ** n
        except OverflowError:
            return math.inf
    return np.array([power(x) for x in values.ravel().tolist()],
                    dtype=float).reshape(values.shape)


def derive_grid(omega, k, hbar, alpha, gamma):
    """a_script, lam and shift of derive_params over a product grid.

    omega, k, alpha and gamma are 1-D sequences (the axes) and hbar one
    float. Each returned array has shape (len(omega), len(k), len(alpha),
    len(gamma)), and its entry at (i, j, l, m) equals, bit for bit,
    derive_params at PhysicalParams(omega[i], k[j], hbar) and
    AmbiguityParams(alpha[l], gamma[m]).

    Raises ConstraintViolationError naming the first point in that order
    where PhysicalParams, AmbiguityParams or derive_params would raise,
    followed by their message.
    """
    omega, k, alpha, gamma = np.ix_(*(np.asarray(axis, float)
                                      for axis in (omega, k, alpha, gamma)))
    with np.errstate(all="ignore"):  # inf and nan only at rejected points
        a_script = _a_script(_float_powers(omega, 3), _float_powers(k, 2),
                             hbar)
        a_script_sq = _float_powers(a_script, 2)
        product = alpha * gamma
        valid = ((omega > 0.0) & (hbar > 0.0) & (k > 0.0)
                 & _in_range(a_script_sq, product)
                 & _admissible(a_script_sq, product))
        if not valid.all():
            point = np.unravel_index(np.argmin(valid), valid.shape)
            w, kk, a, g = (float(axis.ravel()[i]) for axis, i in
                           zip((omega, k, alpha, gamma), point))
            try:
                derive_params(PhysicalParams(omega=w, k=kk, hbar=hbar),
                              AmbiguityParams(alpha=a, gamma=g))
            except ConstraintViolationError as exc:
                raise ConstraintViolationError(
                    f"omega = {w}, k = {kk}, alpha = {a}, gamma = {g}: "
                    f"{exc}") from None
        lam, shift = _lam_shift(a_script, a_script_sq, product, np.sqrt)
    return np.broadcast_to(a_script, valid.shape), lam, shift
