"""Command-line front end.

Subcommands: classical | spectrum | wavefn | verify | limit | sweep.
Each writes a CSV or JSON table with a full parameter echo and the package
version, using a fixed float format (17 significant digits) so identical
configurations produce byte-identical files. Exit codes: 0 all checks pass,
1 a verification check failed, 2 invalid input or constraint violation.

Flag precedence: command-line flags > --config JSON file > built-in
defaults. LIENARDQM_OUTDIR overrides the default output directory.
"""

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import get_args

import numpy as np

from . import __version__, checks, classical, susy, wavefn
from .errors import LienardError
from .params import AmbiguityParams, PhysicalParams, derive_params


@dataclass(frozen=True)
class RunConfig:
    """Merged options of one invocation: the --config keys, built-in defaults."""

    omega: float = 1.0
    k: float = 1.0
    hbar: float = 1.0
    alpha: float = 0.0
    gamma: float = 0.0
    n_max: int = 5
    grid_n: int = 6000
    y_max: float | None = None
    h_p: float = 1e-3
    k_sequence: str = "0.1,0.01,0.001"
    a_values: str = "1e2,1e3,1e4,1e6"
    amplitude: float = 0.5
    phase: float = 0.0
    t_end: float | None = None
    step: float = 1e-3
    level: int = 0
    samples: int = 1001
    omega_values: str | None = None
    k_values: str | None = None
    alpha_values: str | None = None
    gamma_values: str | None = None
    output: str | None = None
    format: str = "csv"

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise LienardError(f"option {field.name!r} must be finite, "
                                   f"got {value}")

    def phys(self):
        return PhysicalParams(omega=self.omega, k=self.k, hbar=self.hbar)

    def amb(self):
        return AmbiguityParams(alpha=self.alpha, gamma=self.gamma)

    def echo(self):
        keys = ("omega", "k", "hbar", "alpha", "gamma", "n_max",
                "grid_n", "y_max", "h_p")
        return {k: getattr(self, k) for k in keys}


_FLOAT_CELL = "%.17g"  # 17 significant digits: every float64 round-trips

# Rows a table may hold; checked before any row is computed.
MAX_ROWS = 10 ** 6


def _fmt(value):
    """One CSV cell: a float to 17 significant digits, round-trip safe."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return _FLOAT_CELL % value
    return str(value)


def _cells(column, fmt):
    """The serialized cells of one column. A float64 array column takes one
    C-level pass (no float's JSON text holds ", "); any other column is
    serialized cell by cell."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        values = column.tolist()
        if fmt == "csv":
            return list(map(_FLOAT_CELL.__mod__, values))
        return json.dumps(values)[1:-1].split(", ")
    return list(map(_fmt if fmt == "csv" else json.dumps, column))


def write_output(path, columns, rows, meta, fmt):
    """Write rows as CSV (fixed header) or JSON ({meta, rows}).

    rows is a 2-D float64 array or a sequence of row tuples. It is
    serialized a column at a time, to the same bytes as `_fmt` on every
    cell (CSV) or `json.dumps(payload, sort_keys=True, indent=1)` (JSON).
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    table = rows.T if isinstance(rows, np.ndarray) else zip(*rows)
    cells = [_cells(column, fmt) for column in table] if len(rows) else []
    if fmt == "csv":
        text = "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"
    else:
        text = json.dumps({"meta": {"params": meta, "version": __version__},
                           "rows": []}, sort_keys=True, indent=1)
        if cells:
            # one row's JSON text with a %s per cell; a repeated column
            # name keeps its last column, as dict(zip(columns, row)) does
            index = {name: i for i, name in enumerate(columns)}
            keys = sorted(index)
            row = "  {\n" + ",\n".join(
                f"   {json.dumps(key).replace('%', '%%')}: %s"
                for key in keys) + "\n  }"
            body = map(row.__mod__, zip(*(cells[index[key]] for key in keys)))
            text = text[:-len("[]\n}")] + "[\n" + ",\n".join(body) + "\n ]\n}"
        text += "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise LienardError(f"cannot write output file {path}: {exc}") from exc
    return path


def _check_rows(count, what):
    """Raise naming `what`, the options that set them, unless `count` rows
    fit MAX_ROWS."""
    if not count <= MAX_ROWS:
        raise LienardError(f"{what} would give more than {MAX_ROWS} output rows")


def _out_path(config, name):
    if config.output:
        return config.output
    outdir = os.environ.get("LIENARDQM_OUTDIR", ".")
    return os.path.join(outdir, f"{name}.{config.format}")


def _parse_floats(text, key):
    """The comma-separated numbers of option `key`: at least one, all finite."""
    values = tuple(float(tok) for tok in str(text).split(",") if tok.strip())
    if not values or not all(map(math.isfinite, values)):
        raise LienardError(f"option {key!r} must hold one or more finite "
                           f"numbers, got {text!r}")
    return values


def cmd_classical(config):
    phys = config.phys()
    t_end = config.t_end if config.t_end is not None else 2.0 * math.pi / phys.omega
    if config.step > 0.0 and t_end > 0.0:
        # integrate_lienard writes round(t_end / step) + 1 rows
        unset = "" if config.t_end is not None else (
            f" (unset: one period at 'omega' = {phys.omega})")
        _check_rows(round(min(t_end / config.step, MAX_ROWS)) + 1,
                    f"options 'step' = {config.step} and 't_end' = {t_end}"
                    f"{unset}")
    initial = classical.OscillatorState(
        x=classical.analytic_solution(phys, config.amplitude, config.phase, 0.0),
        v=classical.analytic_velocity(phys, config.amplitude, config.phase, 0.0))
    traj = classical.integrate_lienard(phys, initial, t_end, config.step)
    exact = classical.analytic_solution(phys, config.amplitude, config.phase,
                                        traj.times)
    rows = np.column_stack((traj.times, traj.positions, exact,
                            np.abs(traj.positions - exact)))
    path = write_output(_out_path(config, "classical"),
                        ("t", "x_numeric", "x_analytic", "abs_err"),
                        rows, config.echo(), config.format)
    # nanmax, like max() over the rows: the first row's error is finite
    print(f"classical: {len(rows)} samples, max |x_num - x_exact| = "
          f"{np.nanmax(rows[:, 3]):.3e} -> {path}")
    return 0


def cmd_spectrum(config):
    phys = config.phys()
    _check_rows(config.n_max + 1, f"option 'n_max' = {config.n_max}")
    table = susy.spectrum(phys, config.amb(), config.n_max)
    hw = phys.hbar_omega
    rows = [(n, e, e / hw) for n, e in table.levels()]
    path = write_output(_out_path(config, "spectrum"),
                        ("n", "energy", "hbar_omega_units"),
                        rows, config.echo(), config.format)
    print(f"spectrum: {len(rows)} levels, e_0 = {rows[0][1]:.17g} -> {path}")
    return 0


def cmd_wavefn(config):
    phys = config.phys()
    n = config.level
    if config.samples < 2:
        raise LienardError(f"option 'samples' must be >= 2, "
                           f"got {config.samples}")
    _check_rows(config.samples, f"option 'samples' = {config.samples}")
    if phys.is_deformed:
        derived = derive_params(phys, config.amb())
        lo, hi = wavefn.support_window(phys, derived, n)
        p = np.linspace(lo, hi, config.samples)
        y = wavefn.y_of_p(phys, derived, p)
    else:
        derived = None
        half = 6.0 * math.sqrt(phys.hbar_omega)
        p = np.linspace(-half, half, config.samples)
        y = np.full_like(p, math.nan)
    values = wavefn.psi(phys, derived, n, p)
    rows = np.column_stack((p, y, values))
    path = write_output(_out_path(config, "wavefn"), ("p", "y", "psi"),
                        rows, {**config.echo(), "level": n}, config.format)
    print(f"wavefn: level {n}, {len(rows)} samples -> {path}")
    return 0


def cmd_verify(config):
    records = checks.run_suite(config.phys(), config.amb(),
                               grid_n=config.grid_n, y_max=config.y_max,
                               h_p=config.h_p)
    rows = [(r.name, r.params, r.measured, r.expected, r.tolerance, r.passed)
            for r in records]
    path = write_output(_out_path(config, "verify"),
                        ("check", "params", "measured", "expected",
                         "tolerance", "pass"),
                        rows, config.echo(), config.format)
    width = max(len(r.name) for r in records)
    for r in records:
        verdict = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  measured={r.measured:<12.3e} "
              f"expected={r.expected:<12.3e} tol={r.tolerance:<9.0e} {verdict}")
    failed = sum(not r.passed for r in records)
    print(f"verify: {len(records) - failed}/{len(records)} checks passed -> {path}")
    return 1 if failed else 0


def cmd_limit(config):
    if config.n_max < 0:
        raise LienardError(f"option 'n_max' must be >= 0, got {config.n_max}")
    phys = config.phys()
    rows = []
    k_seq = _parse_floats(config.k_sequence, "k_sequence")
    a_values = _parse_floats(config.a_values, "a_values")
    if not all(a > 0.0 for a in a_values):
        raise LienardError(f"option 'a_values' must hold numbers > 0, "
                           f"got {config.a_values!r}")
    base = PhysicalParams(omega=phys.omega, k=0.0, hbar=phys.hbar)
    for n in range(min(config.n_max, 3) + 1):
        for k, dev in wavefn.limit_deviation(n, k_seq, base):
            rows.append(("wavefn-deviation", n, k, dev))
    for n in range(min(config.n_max, 5) + 1):
        for a, _, _, dev in wavefn.laguerre_hermite_limit(n, 1.0, a_values):
            rows.append(("laguerre-hermite", n, a, dev))
    for a, n, err in wavefn.gamma_asymptotic_check([a for a in a_values if a >= 10.0]):
        rows.append(("gamma-asymptotic", n, a, err))
    path = write_output(_out_path(config, "limit"),
                        ("study", "n", "scale", "value"),
                        rows, config.echo(), config.format)
    print(f"limit: {len(rows)} rows -> {path}")
    return 0


def _sweep_point(args):
    omega, k, alpha, gamma, hbar = args
    phys = PhysicalParams(omega=omega, k=k, hbar=hbar)
    amb = AmbiguityParams(alpha=alpha, gamma=gamma)
    derived = derive_params(phys, amb)
    e0 = susy.ground_state_energy(phys, derived)
    return (omega, k, alpha, gamma, derived.a_script, derived.lam,
            derived.shift, e0)


def cmd_sweep(config):
    axes, given = [], []
    for name in ("omega", "k", "alpha", "gamma"):
        values = getattr(config, f"{name}_values")
        if values:
            given.append(f"'{name}_values'")
        axes.append(_parse_floats(values, f"{name}_values") if values
                    else (getattr(config, name),))
    count = math.prod(map(len, axes))
    _check_rows(count, f"options {', '.join(given)} with {count} parameter "
                       f"points")
    points = itertools.product(*axes, (config.hbar,))
    rows = np.array(sorted(map(_sweep_point, points),
                           key=lambda r: r[:4]))  # axes may come unsorted
    path = write_output(_out_path(config, "sweep"),
                        ("omega", "k", "alpha", "gamma", "a_script",
                         "lambda", "shift", "e0"),
                        rows, config.echo(), config.format)
    print(f"sweep: {len(rows)} parameter points -> {path}")
    return 0


_COMMANDS = {
    "classical": cmd_classical,
    "spectrum": cmd_spectrum,
    "wavefn": cmd_wavefn,
    "verify": cmd_verify,
    "limit": cmd_limit,
    "sweep": cmd_sweep,
}


_PARAMETER_FLAGS = {
    "omega": (float, "angular frequency (> 0)"),
    "k": (float, "deformation strength (>= 0)"),
    "hbar": (float, "action scale (> 0)"),
    "alpha": (float, "ordering exponent alpha"),
    "gamma": (float, "ordering exponent gamma"),
    "n_max": (int, "highest level index"),
}


def _add_command(sub, name, text, *flags):
    """A subcommand taking --config, --output, --format and the named
    _PARAMETER_FLAGS; no option may be abbreviated."""
    parser = sub.add_parser(name, help=text, allow_abbrev=False)
    parser.add_argument("--config", help="JSON file with default option values")
    for flag in flags:
        kind, flag_help = _PARAMETER_FLAGS[flag]
        parser.add_argument("--" + flag.replace("_", "-"), type=kind,
                            help=flag_help)
    parser.add_argument("--output", help="output file path")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="output format (default csv)")
    return parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lienardqm", allow_abbrev=False,
        description="Deformed-oscillator toolkit: classical dynamics, "
                    "spectrum, eigenfunctions, and verification suites.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    physical = ("omega", "k", "hbar", "alpha", "gamma")

    p = _add_command(sub, "classical", "RK4 trajectory vs closed form",
                     "omega", "k")
    p.add_argument("--amplitude", type=float, help="closed-form amplitude")
    p.add_argument("--phase", type=float, help="closed-form phase")
    p.add_argument("--t-end", type=float,
                   help="integration time (default: one period)")
    p.add_argument("--step", type=float, help="RK4 step")

    _add_command(sub, "spectrum", "bound-state energies", *physical, "n_max")

    p = _add_command(sub, "wavefn", "sampled eigenfunction", *physical)
    p.add_argument("--level", type=int, help="level index n")
    p.add_argument("--samples", type=int, help="number of momentum samples")

    p = _add_command(sub, "verify", "run the verification suite", *physical)
    p.add_argument("--grid-n", type=int, help="eigensolver grid points")
    p.add_argument("--y-max", type=float, help="eigensolver domain cutoff")
    p.add_argument("--h-p", type=float,
                   help="momentum grid spacing for operator checks")

    p = _add_command(sub, "limit", "no-deformation limit studies",
                     "omega", "hbar", "n_max")
    p.add_argument("--k-sequence", help="comma-separated decreasing k values")
    p.add_argument("--a-values", help="comma-separated scale values for the "
                                      "polynomial and gamma studies")

    p = _add_command(sub, "sweep", "parameter sweep of derived quantities",
                     *physical)
    for name in ("omega", "k", "alpha", "gamma"):
        p.add_argument(f"--{name}-values", help=f"comma-separated {name} list")
    return parser


def _checked(field, value):
    """value if its JSON type fits the RunConfig field: an int fits a float
    field, a bool no numeric one, and null only one whose default is None."""
    nullable = field.default is None
    kind = get_args(field.type)[0] if nullable else field.type
    if (value is None and nullable or type(value) is kind
            or kind is float and type(value) is int):
        return value
    raise LienardError(f"config key {field.name!r} must be {kind.__name__}"
                       f"{' or null' if nullable else ''}, got {value!r}")


def load_config(args):
    """Merge flags over config-file values over defaults into a RunConfig."""
    known = {field.name: field for field in fields(RunConfig)}
    merged = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                from_file = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise LienardError(f"cannot read config file {config_path}: {exc}")
        if not isinstance(from_file, dict):
            raise LienardError(f"config file {config_path} must hold a JSON object")
        if unknown := set(from_file) - set(known):
            raise LienardError(
                f"unknown config keys: {', '.join(sorted(unknown))}")
        merged = {key: _checked(known[key], value)
                  for key, value in from_file.items()}
    merged.update((name, getattr(args, name)) for name in known
                  if getattr(args, name, None) is not None)
    return RunConfig(**merged)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        return _COMMANDS[args.command](config)
    except (LienardError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
