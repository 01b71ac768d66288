"""Classical dynamics of the deformed oscillator.

The equation of motion

    x'' + k x x' + (k^2/9) x^3 + omega^2 x = 0

admits the closed-form periodic solution

    x(t) = A sin(omega t + delta) / (1 - (k A / 3 omega) cos(omega t + delta))

for amplitudes 0 <= A < 3 omega / k. A Lagrangian generating the equation
exists on the phase-space region

    S(x, x') = 1 + 2 k x' / (3 omega^2) + k^2 x^2 / (9 omega^2) > 0,

and the resulting conjugate momentum is bounded by p <= 3 omega^2 / k. The
functions below evaluate the Lagrangian, momentum and Hamiltonian on that
region, integrate the equation of motion with fixed-step RK4 as an
independent oracle for the closed form, and check the last-multiplier
condition that singles out the admissible Lagrangian exponents.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (AmplitudeRangeError, ConstraintViolationError,
                     DomainError, LienardError)
from .params import deformation_factor


@dataclass(frozen=True)
class OscillatorState:
    """Phase-space point (position, velocity), or equal-shape arrays of them."""

    x: float
    v: float


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered samples of an integrated trajectory."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        if not (len(self.times) == len(self.positions) == len(self.velocities)):
            raise ValueError("trajectory arrays must have equal length")
        for arr in (self.times, self.positions, self.velocities):
            arr.flags.writeable = False


def phase_constraint_value(phys, x, v):
    """S(x, v) = 1 + 2 k v / (3 omega^2) + k^2 x^2 / (9 omega^2).

    Positive S marks the admissible phase-space region; accepts arrays.
    """
    w2 = phys.omega ** 2
    return 1.0 + 2.0 * phys.k * v / (3.0 * w2) + (phys.k * x) ** 2 / (9.0 * w2)


def _require_constraint(phys, x, v):
    s = phase_constraint_value(phys, x, v)
    if np.any(s <= 0.0):
        xs, vs, ss = (np.ravel(a) for a in np.broadcast_arrays(x, v, s))
        i = int(np.argmax(ss <= 0.0))
        raise ConstraintViolationError(
            f"phase constraint violated at (x={xs[i]}, v={vs[i]}): "
            f"S = {ss[i]} <= 0")
    return s


def lienard_rhs(phys, state):
    """Acceleration -k x v - (k^2/9) x^3 - omega^2 x."""
    x, v = state.x, state.v
    return -phys.k * x * v - phys.k ** 2 / 9.0 * x ** 3 - phys.omega ** 2 * x


def _check_amplitude(phys, amplitude):
    if amplitude < 0.0:
        raise AmplitudeRangeError(f"amplitude must be >= 0, got {amplitude}")
    if phys.is_deformed and amplitude >= 3.0 * phys.omega / phys.k:
        raise AmplitudeRangeError(
            f"amplitude {amplitude} outside [0, {3.0 * phys.omega / phys.k})")


def analytic_solution(phys, amplitude, phase, t):
    """Closed-form position at time t (scalar or array)."""
    _check_amplitude(phys, amplitude)
    theta = phys.omega * np.asarray(t, dtype=float) + phase
    denom = 1.0 - phys.k * amplitude / (3.0 * phys.omega) * np.cos(theta)
    out = amplitude * np.sin(theta) / denom
    return out if out.ndim else float(out)


def analytic_velocity(phys, amplitude, phase, t):
    """Exact time derivative of the closed-form solution (quotient rule)."""
    _check_amplitude(phys, amplitude)
    theta = phys.omega * np.asarray(t, dtype=float) + phase
    s, c = np.sin(theta), np.cos(theta)
    denom = 1.0 - phys.k * amplitude / (3.0 * phys.omega) * c
    out = (amplitude * phys.omega * c / denom
           - phys.k * amplitude ** 2 / 3.0 * s * s / denom ** 2)
    return out if out.ndim else float(out)


def integrate_lienard(phys, initial, t_end, step):
    """Fixed-step RK4 trajectory from the initial state up to ~t_end.

    Global error is O(step^4). Every sample is checked against the phase
    constraint; a violation raises rather than silently leaving the region
    where the Lagrangian picture holds. A step so far beyond stability that
    the kernel overflows raises LienardError naming the step.
    """
    if step <= 0.0:
        raise ValueError(f"step must be > 0, got {step}")
    if t_end <= 0.0:
        raise ValueError(f"t_end must be > 0, got {t_end}")
    n_steps = max(1, round(t_end / step))
    try:
        xs, vs = kernels.rk4_lienard(phys.k, phys.omega, initial.x,
                                     initial.v, step, n_steps)
    except OverflowError as exc:
        raise LienardError(
            f"RK4 step {step} is unstable: the trajectory left the float "
            f"range before t_end = {t_end}; use a smaller step") from exc
    times = step * np.arange(n_steps + 1)
    s = phase_constraint_value(phys, xs, vs)
    if np.any(s <= 0.0):
        i = int(np.argmax(s <= 0.0))
        raise ConstraintViolationError(
            f"phase constraint violated at t = {times[i]}: S = {s[i]} <= 0")
    return Trajectory(times=times, positions=xs, velocities=vs)


def lagrangian(phys, state):
    """Lagrangian value at a state; reduces to (v^2 - omega^2 x^2)/2 at k = 0.

    Written as L = (v^2 - omega^2 x^2) / (c + sqrt(S)) with
    c = 1 + k v / (3 omega^2), which equals the textbook grouping
    (9 omega^4 / k^2)(c - sqrt(S)) identically but avoids the 1/k^2
    amplification of rounding error that destroys the small-k limit in
    double precision. At k = 0 the same expression is the harmonic
    Lagrangian exactly.
    """
    x, v = state.x, state.v
    w2 = phys.omega ** 2
    if not phys.is_deformed:
        return 0.5 * (v ** 2 - w2 * x ** 2)
    s = _require_constraint(phys, x, v)
    c = 1.0 + phys.k * v / (3.0 * w2)
    return (v ** 2 - w2 * x ** 2) / (c + math.sqrt(s))


def conjugate_momentum(phys, state):
    """p = (3 omega^2 / k) [1 - S^{-1/2}]; reduces to v when k = 0.

    The state may hold arrays; any sample outside the phase constraint
    raises ConstraintViolationError.
    """
    x, v = state.x, state.v
    if not phys.is_deformed:
        return v
    s = _require_constraint(phys, x, v)
    out = 3.0 * phys.omega ** 2 / phys.k * (1.0 - 1.0 / np.sqrt(s))
    return out if out.ndim else float(out)


def hamiltonian_classical(phys, x, p):
    """H = p^2 / (2 u) + u omega^2 x^2 / 2 with u = 1 - k p / (3 omega^2).

    Accepts arrays; u comes from params.deformation_factor, which raises
    DomainError for any p at or beyond the momentum domain bound.
    """
    if not phys.is_deformed:
        return 0.5 * (p ** 2 + phys.omega ** 2 * x ** 2)
    u = deformation_factor(phys, p)
    out = p ** 2 / (2.0 * u) + 0.5 * u * phys.omega ** 2 * x ** 2
    return out if out.ndim else float(out)


def jlm_sigma_roots(phys):
    """Admissible Lagrangian exponents: the roots of sigma(1 - sigma) = 2/9.

    For f = k x and g = (k^2/9) x^3 + omega^2 x the last-multiplier
    condition d/dx (g/f) = sigma (1 - sigma) f collapses to the constant
    relation sigma(1 - sigma) = 2/9, whose roots are 1/3 and 2/3. They come
    from the quadratic formula; jlm_condition_residual checks them.
    """
    if not phys.is_deformed:
        raise DomainError("sigma roots require k > 0 (g/f degenerates at k = 0)")
    # sigma^2 - sigma + 2/9 = 0
    disc = math.sqrt(1.0 - 8.0 / 9.0)
    return ((1.0 - disc) / 2.0, (1.0 + disc) / 2.0)


def jlm_condition_residual(phys, sigma, xs):
    """Max |d/dx(g/f) - sigma(1-sigma) f| over the grid xs (x != 0).

    The derivative is taken by central differences of the literal quotient
    g/f; since g/f is quadratic in x the difference quotient is exact up to
    rounding, making the residual a genuine two-sided check.
    """
    xs = np.asarray(xs, dtype=float)
    if np.any(xs == 0.0):
        raise DomainError("grid must avoid x = 0 where f vanishes")
    h = 1e-3
    f = lambda x: phys.k * x
    g = lambda x: phys.k ** 2 / 9.0 * x ** 3 + phys.omega ** 2 * x
    ratio = lambda x: g(x) / f(x)
    lhs = (ratio(xs + h) - ratio(xs - h)) / (2.0 * h)
    rhs = sigma * (1.0 - sigma) * f(xs)
    return float(np.max(np.abs(lhs - rhs)))
