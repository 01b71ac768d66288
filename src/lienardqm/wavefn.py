"""Closed-form eigenfunctions, normalization, orthonormality, and the
no-deformation limit studies.

In the variable y = 2 a_script (1 - p / sqrt(a_script hbar omega)) the
normalized bound states read

    psi_n(p) = N_n y^lam e^{-y/2} L_n^{2 lam}(y),
    N_n = sqrt( sqrt(a_script / hbar omega) * 2 n! / Gamma(2 lam + n + 1) ),

evaluated strictly in log space: for small k the scale a_script = 9
omega^3/(hbar k^2) is huge and the individual factors y^lam, e^{-y/2} and
1/Gamma overflow long before their product leaves order one. As k -> 0 the
states converge pointwise to the harmonic-oscillator functions

    psi_n(p) = (2^n n! sqrt(pi hbar omega))^{-1/2}
               e^{-p^2 / 2 hbar omega} H_n(p / sqrt(hbar omega)),

which is also the exact branch served when k = 0. The limit studies
quantify that convergence along a decreasing k sequence, the Laguerre ->
Hermite polynomial limit, and the asymptotic gamma-ratio simplification
used to take the limit analytically.
"""

import math

import numpy as np

from .errors import DomainError, OverflowGuardError
from .params import (AmbiguityParams, PhysicalParams, derive_params,
                     momentum_domain)
from .specfun import (hermite, laguerre_assoc, quadrature_nodes,
                      weighted_laguerre_cutoff)

_EXP_GUARD = 700.0  # exp() overflows just above 709


def _guarded_exp(exponent):
    """exp() that refuses to overflow; the self-consistent log assembly keeps
    exponents near zero, so tripping this means broken inputs."""
    if np.any(np.asarray(exponent) > _EXP_GUARD):
        raise OverflowGuardError(
            f"log-space exponent exceeded {_EXP_GUARD}; inconsistent "
            "parameters or evaluation point")
    return np.exp(exponent)


def y_of_p(phys, derived, p):
    """Map momentum to the half-line variable y = 2 a_script (1 - q)."""
    return 2.0 * derived.a_script * (
        1.0 - np.asarray(p, dtype=float) / math.sqrt(derived.a_script * phys.hbar_omega))


def p_of_y(phys, derived, y):
    """Inverse map p = sqrt(a_script hbar omega) (1 - y / (2 a_script))."""
    return math.sqrt(derived.a_script * phys.hbar_omega) * (
        1.0 - np.asarray(y, dtype=float) / (2.0 * derived.a_script))


def jacobian_dp_dy(phys, derived):
    """|dp/dy| = sqrt(a_script hbar omega) / (2 a_script), a constant."""
    return math.sqrt(derived.a_script * phys.hbar_omega) / (2.0 * derived.a_script)


def norm_const_log(phys, derived, n):
    """log N_n of the deformed state psi_n (k > 0)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return 0.5 * (0.5 * math.log(derived.a_script / phys.hbar_omega)
                  + math.log(2.0) + math.lgamma(n + 1.0)
                  - math.lgamma(2.0 * derived.lam + n + 1.0))


@np.errstate(over="ignore", invalid="ignore")
def psi(phys, derived, n, p):
    """Normalized eigenfunction at momentum p (scalar or array).

    Assembled as exp(log N_n + lam log y - y/2) * L_n^{2 lam}(y); the k = 0
    branch returns the harmonic-oscillator function exactly. A result that
    is not finite (the polynomial recurrence overflows at high levels)
    raises OverflowGuardError instead of coming back as NaN.
    """
    if derived is None or not phys.is_deformed:
        out, where = lho_psi(phys, n, p), "k = 0"
    else:
        p_arr = np.asarray(p, dtype=float)
        if np.any(p_arr >= derived.p_max):
            raise DomainError(
                f"momentum at or beyond the domain bound {derived.p_max}")
        y = y_of_p(phys, derived, p_arr)
        exponent = norm_const_log(phys, derived, n) + derived.lam * np.log(y) - 0.5 * y
        out = _guarded_exp(exponent) * laguerre_assoc(n, 2.0 * derived.lam, y)
        where = f"lam = {derived.lam:.6g}"
    if not np.all(np.isfinite(out)):
        raise OverflowGuardError(f"psi_{n} is not finite at {where}: its "
                                 f"polynomial recurrence overflows")
    return out if np.ndim(out) else float(out)


def lho_psi(phys, n, p):
    """Harmonic-oscillator eigenfunction in momentum representation."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    hw = phys.hbar_omega
    p = np.asarray(p, dtype=float)
    log_norm = -0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0)
                       + 0.5 * math.log(math.pi * hw))
    out = np.exp(log_norm - p ** 2 / (2.0 * hw)) * hermite(n, p / math.sqrt(hw))
    return out if out.ndim else float(out)


def support_window(phys, derived, n):
    """Momentum window (p_lo, p_hi) enclosing the support of psi_n.

    The state peaks near y = 2 lam with width ~2 sqrt(lam); the window pads
    the peak by 40 n + 80 + 10 sqrt(lam) on the wide side and mirrors it on
    the narrow side (floored at y = 0.06 lam where the y^lam factor has
    crushed the state), leaving both ends below ~1e-10 of the peak. That is
    what the finite-difference operators require of their samples.
    DomainError if the window has no width at float resolution (k so
    small that the y -> p map cancels, e.g. k = 1e-30).
    """
    pad = 40.0 * n + 80.0 + 10.0 * math.sqrt(derived.lam)
    y_hi = 2.0 * derived.lam + pad
    y_lo = max(0.06 * derived.lam, 2.0 * derived.lam - pad)
    lo, hi = (float(p_of_y(phys, derived, y_hi)),
              float(p_of_y(phys, derived, y_lo)))
    if not lo < hi:
        # p = sqrt(a_script hbar omega) (1 - y / (2 a_script)) cancels to
        # one value when pad / (2 a_script) is below float resolution
        raise DomainError(f"the momentum window of psi_{n} has no width in "
                          f"float64 at k = {phys.k:g} (lam = "
                          f"{derived.lam:.6g}): y / (2 a_script) rounds to 1 "
                          f"across it")
    return lo, hi


def overlap_matrix(phys, derived, n_max):
    """Gram matrix <psi_m, psi_n> for m, n = 0..n_max by quadrature in y.

    The integral is taken in y with the constant Jacobian, where the
    weighted-Laguerre support is easy to enclose; the deviation of the
    result from the identity matrix is the orthonormality defect.
    """
    if not 0 <= n_max <= 6:
        raise ValueError(f"n_max must be in 0..6, got {n_max}")
    y_max = weighted_laguerre_cutoff(2.0 * derived.lam, n_max)
    panels = max(64, int(y_max / 2.5))
    nodes, weights = quadrature_nodes(y_max, panels, 10)
    p_nodes = p_of_y(phys, derived, nodes)
    states = np.array([psi(phys, derived, n, p_nodes) for n in range(n_max + 1)])
    return jacobian_dp_dy(phys, derived) * np.einsum(
        "in,n,jn->ij", states, weights, states)


def gamma_asymptotic_check(a_script_values):
    """Relative accuracy of the asymptotic log Gamma(2 a_script + n + 1).

    The asymptotic form peels off n + 1 recurrence factors of 2 a_script
    and applies the leading Stirling expansion to the remainder:

        log Gamma(2a + n + 1) ~ (n + 1) log 2a + (2a - 1/2) log 2a
                                 - 2a + log(2 pi)/2.

    Rows are (a_script, n, relative error of the log) for n = 0..3; the
    error decays as a_script grows.
    """
    rows = []
    for a in a_script_values:
        if a < 10.0:
            raise ValueError(f"asymptotic check needs a_script >= 10, got {a}")
        for n in range(4):
            approx = ((n + 1) * math.log(2.0 * a)
                      + (2.0 * a - 0.5) * math.log(2.0 * a)
                      - 2.0 * a + 0.5 * math.log(2.0 * math.pi))
            exact = math.lgamma(2.0 * a + n + 1.0)
            rows.append((a, n, abs(approx - exact) / abs(exact)))
    return rows


@np.errstate(over="ignore", invalid="ignore")
def laguerre_hermite_limit(n, x, a_script_values):
    """Convergence of (2 sqrt a)^-n L_n^{2a}(2a - 2 sqrt(a) x) to H_n(x)/(2^n n!).

    Returns rows (a_script, scaled value, limit value, |deviation|); the
    deviation decays like a_script^{-1/2}. OverflowGuardError if the scale
    factor or the scaled value is not finite.
    """
    if not 0 <= n <= 5:
        raise ValueError(f"n must be in 0..5, got {n}")
    target = hermite(n, x) / (2.0 ** n * math.factorial(n))
    rows = []
    for a in a_script_values:
        root = math.sqrt(a)
        try:
            factor = (2.0 * root) ** (-n)
        except OverflowError:  # a Python float power raises, errstate or not
            raise OverflowGuardError(
                f"the Laguerre-Hermite limit at n = {n} overflows at scale "
                f"{a:g}: (2 sqrt(scale))^-{n} exceeds the float range") from None
        scaled = factor * laguerre_assoc(n, 2.0 * a, 2.0 * a - 2.0 * root * x)
        if not math.isfinite(scaled):
            raise OverflowGuardError(f"the Laguerre-Hermite limit at n = {n} "
                                     f"is not finite at scale {a:g}: its "
                                     f"polynomial recurrence overflows")
        rows.append((a, scaled, target, abs(scaled - target)))
    return rows


def limit_deviation(n, k_values, phys_base):
    """Sup-norm distance of psi_n from the harmonic state along a k sequence.

    The deformed states take alpha*gamma = 0. The window of 801 samples,
    p in [-4 sqrt(hbar omega), 4 sqrt(hbar omega)], covers the harmonic
    states; deviations must decrease as k does. Rows are
    (k, sup |psi - psi_harmonic|).
    """
    if not 0 <= n <= 3:
        raise ValueError(f"n must be in 0..3, got {n}")
    ks = [float(k) for k in k_values]
    if any(k <= 0.0 for k in ks):
        raise ValueError("k sequence must be positive; k = 0 is the exact branch")
    if any(b >= a for a, b in zip(ks, ks[1:])):
        raise ValueError("k sequence must be strictly decreasing")
    hw = phys_base.hbar * phys_base.omega
    window = np.linspace(-4.0 * math.sqrt(hw), 4.0 * math.sqrt(hw), 801)
    reference = lho_psi(phys_base, n, window)
    rows = []
    for k in ks:
        phys = PhysicalParams(omega=phys_base.omega, k=k, hbar=phys_base.hbar)
        if momentum_domain(phys) <= window[-1]:
            raise DomainError(
                f"window end {window[-1]} outside the momentum domain at k = {k}")
        derived = derive_params(phys, AmbiguityParams(alpha=0.0, gamma=0.0))
        dev = float(np.max(np.abs(psi(phys, derived, n, window) - reference)))
        rows.append((k, dev))
    return rows
