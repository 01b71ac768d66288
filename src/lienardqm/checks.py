"""Verification suite behind the `verify` CLI subcommand.

Each check compares a measured quantity against its expected value at a
fixed tolerance and yields a ReportRecord; the suite passing as a whole is
the artifact's single user-facing health gate. Everything here is
deterministic: sample points and parameter tables are fixed, never drawn
from a seeded generator, so repeated runs emit identical bytes.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import classical, eigensolver, quantize, susy, wavefn
from .errors import ConstraintViolationError
from .params import (AmbiguityParams, PhysicalParams, derive_params,
                     momentum_domain)

# Phase-space states for the Legendre-transform identity; states that fall
# outside the phase constraint for the given parameters are skipped.
_STATES = ((0.0, 0.0), (0.3, -0.2), (1.1, 0.4), (-0.7, 0.9), (0.5, 1.7))

_RK4_STEP = 1e-3
# Chebyshev degree of the operator and eigensolver checks; the latter also
# solve at twice it
_COLLOCATION_N = 64
# Below it psi_n ~ x^(2 lam) is too rough at the domain bound x = 0 for the
# collocation: at lam = 2 the eigenrelation row reads 7.8e-8 against 1e-8
MIN_LAM = 2.5


def _product_table(a_script, user_product):
    """Admissible ambiguity products spanning the bound, scaled to a_script."""
    aa = a_script ** 2
    return (0.0, 0.04 * aa, 0.23 * aa, -0.5 * aa, 2.0 * aa, user_product)


@dataclass(frozen=True)
class ReportRecord:
    """One verification line: what was measured, what was expected, verdict."""

    name: str
    params: str
    measured: float
    expected: float
    tolerance: float
    passed: bool

    @classmethod
    def from_absolute(cls, name, params, measured, expected, tolerance):
        return cls(name=name, params=params, measured=float(measured),
                   expected=float(expected), tolerance=float(tolerance),
                   passed=bool(abs(measured - expected) <= tolerance))


def _echo(phys, amb):
    return (f"omega={phys.omega:g} k={phys.k:g} hbar={phys.hbar:g} "
            f"alpha={amb.alpha:g} gamma={amb.gamma:g}")


def _inputs(phys, amb):
    """The inputs that set lam, for a bound's error message."""
    return (f"omega = {phys.omega:g}, k = {phys.k:g}, hbar = {phys.hbar:g} "
            f"and alpha*gamma = {amb.product:g}")


def _check_rk4_step(phys):
    """RK4 is unstable on the harmonic part beyond omega * step = 2 sqrt 2."""
    if phys.omega * _RK4_STEP > 2.0 * math.sqrt(2.0):
        raise ConstraintViolationError(
            f"omega = {phys.omega} is too large for verify: its one-period "
            f"span {2.0 * math.pi / phys.omega:.3g} is under "
            f"{math.pi / math.sqrt(2.0):.3g} steps of the classical checks' "
            f"fixed RK4 step {_RK4_STEP}, where RK4 is unstable")


def _classical_checks(phys, amb):
    echo = _echo(phys, amb)
    rows = []
    amplitude = min(1.0, 0.5 * 3.0 * phys.omega / phys.k)
    period = 2.0 * math.pi / phys.omega
    initial = classical.OscillatorState(
        x=classical.analytic_solution(phys, amplitude, 0.0, 0.0),
        v=classical.analytic_velocity(phys, amplitude, 0.0, 0.0))
    traj = classical.integrate_lienard(phys, initial, period, _RK4_STEP)
    exact = classical.analytic_solution(phys, amplitude, 0.0, traj.times)
    rows.append(ReportRecord.from_absolute(
        "classical.rk4-vs-closed-form", echo,
        np.max(np.abs(traj.positions - exact)), 0.0, 1e-6))

    momenta = classical.conjugate_momentum(
        phys, classical.OscillatorState(traj.positions, traj.velocities))
    energy = classical.hamiltonian_classical(phys, traj.positions, momenta)
    rows.append(ReportRecord.from_absolute(
        "classical.energy-drift", echo,
        np.max(np.abs(energy - energy[0])) / abs(energy[0]), 0.0, 1e-8))

    worst = 0.0
    for x, v in _STATES:
        if classical.phase_constraint_value(phys, x, v) <= 0.05:
            continue
        state = classical.OscillatorState(x, v)
        lag = classical.lagrangian(phys, state)
        p = classical.conjugate_momentum(phys, state)
        ham = classical.hamiltonian_classical(phys, x, p)
        worst = max(worst, abs(ham - (p * v - lag)))
    rows.append(ReportRecord.from_absolute(
        "classical.legendre-identity", echo, worst, 0.0, 1e-12))

    xs = np.linspace(0.25, 2.0, 33)
    rows.append(ReportRecord.from_absolute(
        "classical.jlm-condition", echo,
        max(classical.jlm_condition_residual(phys, s, xs)
            for s in classical.jlm_sigma_roots(phys)), 0.0, 1e-10))
    return rows


def _momentum_window(phys):
    """1000 momenta from 8 omega^2/k below the domain bound to 0.96 of it."""
    p_max = momentum_domain(phys)
    return np.linspace(p_max - 8.0 * phys.omega ** 2 / phys.k, p_max * 0.96,
                       1000)


def _potential_checks(phys, amb):
    echo = _echo(phys, amb)
    p = _momentum_window(phys)
    profile = quantize.mass(phys, p)
    u_val = quantize.potential_U(phys, p)
    generic = quantize.von_roos_potential(profile, u_val, amb, phys.hbar)
    closed = quantize.effective_potential(phys, amb, p)
    scale = np.maximum(np.abs(closed), 1.0)
    return [ReportRecord.from_absolute(
        "quantize.closed-vs-generic-potential", echo,
        np.max(np.abs(generic - closed) / scale), 0.0, 1e-12)]


def _susy_checks(phys, amb):
    echo = _echo(phys, amb)
    rows = []
    grid = _momentum_window(phys)
    products = _product_table(derive_params(phys, amb).a_script, amb.product)

    worst = 0.0
    for product in products:
        worst = max(worst, susy.riccati_residual(
            phys, AmbiguityParams(alpha=product, gamma=1.0), grid))
    rows.append(ReportRecord.from_absolute(
        "susy.riccati-identity", echo, worst, 0.0, 1e-10))

    worst_std = 0.0
    worst_mean = 0.0
    for product in products:
        derived = derive_params(phys, AmbiguityParams(alpha=product, gamma=1.0))
        mean, std = susy.shape_invariance_remainder(phys, derived, grid)
        worst_std = max(worst_std, std)
        worst_mean = max(worst_mean, abs(mean - phys.hbar_omega))
    rows.append(ReportRecord.from_absolute(
        "susy.shape-invariance-stddev", echo, worst_std, 0.0, 1e-12))
    rows.append(ReportRecord.from_absolute(
        "susy.shape-invariance-mean", echo, worst_mean, 0.0, 1e-9))

    table = susy.spectrum(phys, amb, 5)
    rows.append(ReportRecord.from_absolute(
        "susy.spectrum-spacing", echo,
        np.max(np.abs(table.spacings - phys.hbar_omega)), 0.0, 1e-12))

    derived = derive_params(phys, amb)
    defs = susy.partner_potentials_from_definitions(phys, derived, grid)
    compact = susy.partner_potentials(phys, derived, grid)
    rows.append(ReportRecord.from_absolute(
        "susy.partner-compact-vs-definitions", echo,
        max(np.max(np.abs(defs[0] - compact[0])),
            np.max(np.abs(defs[1] - compact[1]))), 0.0, 1e-10))
    return rows


def _operator_checks(phys, amb):
    """H psi_n = E_n psi_n (n <= 2) and A psi_0 = 0 at every collocation
    node, ends included; psi_n ~ y^lam is 0 at a node on the domain bound.
    Relative to hbar omega (H) or sqrt(hbar omega) (A) times sup |samples|.
    """
    echo = _echo(phys, amb)
    derived = derive_params(phys, amb)
    x, p, kinetic, d_dp, shifted = eigensolver.collocation_operator(
        phys, amb, _COLLOCATION_N)
    inside = x > 0.0

    def samples(n):
        values = np.zeros_like(x)
        values[inside] = wavefn.psi(phys, derived, n, p[inside])
        return values

    worst = 0.0
    for n, energy in enumerate(susy.spectrum(phys, amb, 2).energies):
        u = np.sqrt(x) * samples(n)
        resid = kinetic @ u + (shifted - energy) * u[1:-1]
        worst = max(worst, np.max(np.abs(resid)) / np.max(np.abs(u)))
    psi0 = samples(0)
    lowered = susy.lowering(susy.Superpotential.from_derived(phys, derived),
                            p[1:-1], psi0[1:-1], d_dp @ psi0)
    return [ReportRecord.from_absolute(
                "quantize.eigenrelation-residual", echo,
                worst / phys.hbar_omega, 0.0, 1e-8),
            ReportRecord.from_absolute(
                "susy.ground-state-annihilation", echo,
                np.max(np.abs(lowered)) / (math.sqrt(phys.hbar_omega)
                                           * np.max(np.abs(psi0))),
                0.0, 1e-8)]


def _eigensolver_checks(phys, amb):
    """The collocation levels n <= 2 at N and 2N, in units of hbar omega."""
    echo = _echo(phys, amb)
    hbar_omega = phys.hbar_omega
    levels = eigensolver.collocation_levels(phys, amb, _COLLOCATION_N)
    finer = eigensolver.collocation_levels(phys, amb, 2 * _COLLOCATION_N)
    analytic = susy.spectrum(phys, amb, 2).energies
    deviations = (("eigensolver.levels-vs-algebraic", levels - analytic),
                  ("eigensolver.n-vs-2n-agreement", levels - finer),
                  ("eigensolver.level-spacing", np.diff(levels) - hbar_omega))
    return [ReportRecord.from_absolute(
        name, echo, np.max(np.abs(delta)) / hbar_omega, 0.0, 1e-9)
        for name, delta in deviations]


def _wavefn_checks(phys, amb):
    echo = _echo(phys, amb)
    rows = []
    derived = derive_params(phys, amb)
    gram = wavefn.overlap_matrix(phys, derived, 4)
    rows.append(ReportRecord.from_absolute(
        "wavefn.orthonormality-defect", echo,
        np.max(np.abs(gram - np.eye(5))), 0.0, 1e-8))

    mismatches = 0
    for n in range(5):
        lo, hi = wavefn.support_window(phys, derived, n)
        p = np.linspace(lo, hi, 4001)
        if eigensolver.sign_changes(wavefn.psi(phys, derived, n, p)) != n:
            mismatches += 1
    rows.append(ReportRecord.from_absolute(
        "wavefn.node-counts", echo, mismatches, 0, 0))

    base = PhysicalParams(omega=phys.omega, k=0.0, hbar=phys.hbar)
    # largest k whose momentum domain still contains the sampling window
    k_top = min(0.1, 0.5 * 3.0 * phys.omega ** 2
                / (4.0 * math.sqrt(phys.hbar_omega)))
    k_seq = (k_top, k_top / 10.0, k_top / 100.0)
    worst_ratio = 0.0
    for n in (0, 1):
        devs = [d for _, d in wavefn.limit_deviation(n, k_seq, base)]
        worst_ratio = max(worst_ratio,
                          max(b / a for a, b in zip(devs, devs[1:])))
    record = ReportRecord(
        name="wavefn.harmonic-limit-monotone", params=echo,
        measured=worst_ratio, expected=1.0, tolerance=0.0,
        passed=bool(worst_ratio < 1.0))
    rows.append(record)

    gamma_rows = wavefn.gamma_asymptotic_check([1e3])
    rows.append(ReportRecord.from_absolute(
        "wavefn.gamma-asymptotic-accuracy", echo,
        max(err for _, _, err in gamma_rows), 0.0, 1e-4))
    return rows


def run_suite(phys, amb):
    """Run every module's fast invariant checks; returns ReportRecords.

    The checks need the deformed oscillator (k > 0), an omega the RK4 step
    resolves and lam >= MIN_LAM; other inputs are rejected before any check
    runs. The operator and eigensolver checks collocate at a fixed degree
    on a window read off the operator, so they have no size to bound.
    """
    if not phys.is_deformed:
        raise ConstraintViolationError(
            "verify needs k > 0, got k = 0; the k = 0 harmonic oscillator "
            "is served by `spectrum`, `wavefn` and `limit`")
    _check_rk4_step(phys)
    lam = derive_params(phys, amb).lam
    if lam < MIN_LAM:
        raise ConstraintViolationError(
            f"lam = {lam:.6g}, set by {_inputs(phys, amb)}, is below "
            f"{MIN_LAM}, the least lam verify serves: psi_n ~ y^lam is too "
            f"rough at the domain bound for its collocation checks")
    records = []
    records.extend(_classical_checks(phys, amb))
    records.extend(_potential_checks(phys, amb))
    records.extend(_susy_checks(phys, amb))
    records.extend(_operator_checks(phys, amb))
    records.extend(_eigensolver_checks(phys, amb))
    records.extend(_wavefn_checks(phys, amb))
    return records
