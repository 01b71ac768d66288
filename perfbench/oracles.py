"""Independent correctness oracles for CLI outputs.

Each oracle recomputes what the output should hold from the request's own
arguments and the paper's definitions (a_script = 9 omega^3 / (hbar k^2),
lam = sqrt(a_script^2 + alpha gamma), e_n = (n + 1/2 + lam - a_script)
hbar omega, the Lienard equation of motion), or with scipy. None calls the
package formula it checks. They run after the request's timed span.
"""

import json
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal

COLUMNS = {
    "classical": ("t", "x_numeric", "x_analytic", "abs_err"),
    "spectrum": ("n", "energy", "hbar_omega_units"),
    "wavefn": ("p", "y", "psi"),
    "verify": ("check", "params", "measured", "expected", "tolerance", "pass"),
    "limit": ("study", "n", "scale", "value"),
    "sweep": ("omega", "k", "alpha", "gamma", "a_script", "lambda", "shift", "e0"),
}

VERIFY_CHECKS = 19
TRAJECTORY_SAMPLES = 5
# RK4 at step <= 2e-3 over <= 1.8 periods stays within ~1e-12 of the
# DOP853 reference; the bound leaves room without hiding a wrong step.
TRAJECTORY_TOL = 1e-9
NORM_TOL = 1e-6
# Bisection stops at 1e-10 absolute; LAPACK's bisection is accurate to a
# few eps * ||T|| (~1e-9 for these operators).
EIGEN_TOL = 1e-8


class OracleError(Exception):
    """An output that disagrees with its oracle."""


def _require(condition, message):
    if not condition:
        raise OracleError(message)


def _close(measured, expected, rel):
    return abs(measured - expected) <= rel * max(1.0, abs(expected))


def read_rows(path, fmt, columns):
    """Rows of a CSV (cells as strings) or JSON (values) output file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        return [[row[c] for c in columns] for row in json.loads(text)["rows"]]
    lines = text.splitlines()
    _require(lines and lines[0] == ",".join(columns),
             f"unexpected header {lines[:1]}")
    return [line.split(",") for line in lines[1:]]


def _floats(rows, index):
    return np.array([float(row[index]) for row in rows])


def _scales(opts):
    omega = float(opts.get("omega", 1.0))
    k = float(opts.get("k", 1.0))
    hbar = float(opts.get("hbar", 1.0))
    return omega, k, hbar


def _lam_minus_a(omega, k, hbar, product):
    a_script = 9.0 * omega ** 3 / (hbar * k ** 2)
    return math.sqrt(a_script ** 2 + product) - a_script


def _product(opts):
    return float(opts.get("alpha", 0.0)) * float(opts.get("gamma", 0.0))


def check_verify(opts, rows, stdout):
    _require(len(rows) == VERIFY_CHECKS, f"{len(rows)} verify rows")
    failing = [row[0] for row in rows if str(row[5]).lower() != "true"]
    _require(not failing, f"failing checks: {failing}")
    _require(f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed" in stdout,
             "summary line missing")


def _orbit_start(omega, k, amplitude, phase):
    """x(0), x'(0) of x = A sin(th) / (1 - (k A / 3 omega) cos(th))."""
    c = k * amplitude / (3.0 * omega)
    den = 1.0 - c * math.cos(phase)
    x0 = amplitude * math.sin(phase) / den
    v0 = (amplitude * omega * math.cos(phase) * den
          - amplitude * math.sin(phase) * c * omega * math.sin(phase)) / den ** 2
    return x0, v0


def check_classical(opts, rows, stdout):
    omega, k, _ = _scales(opts)
    step = float(opts["step"])
    steps = max(1, round(float(opts["t_end"]) / step))
    _require(len(rows) == steps + 1, f"{len(rows)} rows, expected {steps + 1}")
    picks = np.linspace(0, steps, TRAJECTORY_SAMPLES).round().astype(int)
    times = _floats([rows[i] for i in picks], 0)
    _require(np.allclose(times, picks * step, rtol=1e-12, atol=0.0),
             "time column is not i * step")
    x0, v0 = _orbit_start(omega, k, float(opts["amplitude"]), float(opts["phase"]))
    ref = solve_ivp(
        lambda t, s: (s[1], -k * s[0] * s[1] - k * k / 9.0 * s[0] ** 3
                      - omega ** 2 * s[0]),
        (0.0, times[-1]), (x0, v0), method="DOP853", t_eval=times,
        rtol=1e-13, atol=1e-13)
    _require(ref.success, f"reference integration failed: {ref.message}")
    err = np.max(np.abs(_floats([rows[i] for i in picks], 1) - ref.y[0]))
    _require(err <= TRAJECTORY_TOL, f"x_numeric off the reference by {err:.3e}")


def check_spectrum(opts, rows, stdout):
    omega, k, hbar = _scales(opts)
    n_max = int(opts["n_max"])
    _require(len(rows) == n_max + 1, f"{len(rows)} levels, expected {n_max + 1}")
    shift = _lam_minus_a(omega, k, hbar, _product(opts))
    for n, row in enumerate(rows):
        energy = (n + 0.5 + shift) * hbar * omega
        _require(int(row[0]) == n, f"level index {row[0]} at row {n}")
        _require(_close(float(row[1]), energy, 1e-12),
                 f"e_{n} = {row[1]}, expected {energy!r}")
        _require(_close(float(row[2]), energy / (hbar * omega), 1e-12),
                 f"e_{n} in hbar omega units = {row[2]}")


def check_wavefn(opts, rows, stdout):
    _require(len(rows) == int(opts["samples"]), f"{len(rows)} samples")
    p = _floats(rows, 0)
    psi = _floats(rows, 2)
    norm = float(np.sum(0.5 * (psi[1:] ** 2 + psi[:-1] ** 2) * np.diff(p)))
    _require(abs(norm - 1.0) <= NORM_TOL, f"trapezoid norm {norm!r}")


def _split(opts, key):
    return [tok for tok in opts[key].split(",") if tok.strip()]


def check_limit(opts, rows, stdout):
    n_max = int(opts["n_max"])
    scales = [float(a) for a in _split(opts, "a_values")]
    expected = ((min(n_max, 3) + 1) * len(_split(opts, "k_sequence"))
                + (min(n_max, 5) + 1) * len(scales)
                + 4 * sum(a >= 10.0 for a in scales))
    _require(len(rows) == expected, f"{len(rows)} rows, expected {expected}")
    values = _floats(rows, 3)
    _require(np.all(np.isfinite(values)) and np.all(values >= 0.0),
             "non-finite or negative deviation")


def check_sweep(opts, rows, stdout):
    omega, _, hbar = _scales(opts)
    counts = [len(_split(opts, key)) if key in opts else 1
              for key in ("omega_values", "k_values", "alpha_values", "gamma_values")]
    expected = math.prod(counts)
    _require(len(rows) == expected, f"{len(rows)} points, expected {expected}")
    table = np.array([[float(cell) for cell in row] for row in rows])
    w, k, alpha, gamma = table[:, :4].T
    a_script = 9.0 * w ** 3 / (hbar * k ** 2)
    lam = np.sqrt(a_script ** 2 + alpha * gamma)
    e0 = (0.5 + lam - a_script) * hbar * w
    for col, want in ((4, a_script), (5, lam), (6, lam - a_script), (7, e0)):
        bad = np.abs(table[:, col] - want) > 1e-12 * np.maximum(1.0, np.abs(want))
        _require(not bad.any(), f"column {COLUMNS['sweep'][col]} off at "
                                f"{int(bad.sum())} points")


ORACLES = {
    "verify": check_verify,
    "classical": check_classical,
    "spectrum": check_spectrum,
    "wavefn": check_wavefn,
    "limit": check_limit,
    "sweep": check_sweep,
}


def check_output(request, path, stdout):
    """Raise OracleError if the output at path is wrong for the request."""
    rows = read_rows(path, request.fmt, COLUMNS[request.kind])
    ORACLES[request.kind](request.options(), rows, stdout)


def eigen_error(diagonal, off_diagonal, eigenvalues):
    """Max deviation of bisected eigenvalues from LAPACK's on one operator."""
    reference = eigh_tridiagonal(
        diagonal, off_diagonal, eigvals_only=True, select="i",
        select_range=(0, len(eigenvalues) - 1))
    return float(np.max(np.abs(np.asarray(eigenvalues) - reference)))
