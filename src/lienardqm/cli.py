"""Command-line front end.

Subcommands: classical | spectrum | wavefn | verify | limit | sweep.
Each accepts one --flag per RunConfig field it reads (its row of
_OPTIONS), plus --config, --output and --format. It writes a CSV or JSON
table; the JSON meta echoes exactly the options of that row and the
package version. Floats use a fixed format (17 significant digits), so
identical configurations produce byte-identical files. Exit codes: 0 all
checks pass, 1 a verification check failed, 2 invalid input or constraint
violation.

Flag precedence: command-line flags > --config JSON file > built-in
defaults. A --config file may hold the key of any option, checked for
type and finiteness; a subcommand merges only the keys it reads.
LIENARDQM_OUTDIR overrides the default output directory.
"""

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import get_args

import numpy as np

from . import __version__, checks, classical, susy, wavefn
from .errors import LienardError, OverflowGuardError
from .params import (AmbiguityParams, PhysicalParams, derive_grid,
                     derive_params)


def _option(default, text):
    """A RunConfig field: its default and its --help text."""
    return dataclasses.field(default=default, metadata={"help": text})


@dataclass(frozen=True)
class RunConfig:
    """Merged options of one invocation: flags, --config keys, defaults.

    Each field is one option; its annotation is the option's type, and the
    fields are declared in the order --help lists them.
    """

    omega: float = _option(1.0, "angular frequency (> 0)")
    k: float = _option(1.0, "deformation strength (>= 0)")
    hbar: float = _option(1.0, "action scale (> 0)")
    alpha: float = _option(0.0, "ordering exponent alpha")
    gamma: float = _option(0.0, "ordering exponent gamma")
    n_max: int = _option(5, "highest level index")
    output: str | None = _option(None, "output file path")
    format: str = _option("csv", "output format (default csv)")
    k_sequence: str = _option("0.1,0.01,0.001",
                              "comma-separated decreasing k values")
    a_values: str = _option("1e2,1e3,1e4,1e6", "comma-separated scale values "
                            "for the polynomial and gamma studies")
    amplitude: float = _option(0.5, "closed-form amplitude")
    phase: float = _option(0.0, "closed-form phase")
    t_end: float | None = _option(None, "integration time (default: one "
                                  "period)")
    step: float = _option(1e-3, "RK4 step")
    level: int = _option(0, "level index n")
    samples: int = _option(1001, "number of momentum samples (default 1001, "
                           "which does not resolve high levels: the written "
                           "psi_n's trapezoid norm is 1 + 9e-7 at n = 20, "
                           "0.982 at n = 40 and 1.070 at n = 50)")
    omega_values: str | None = _option(None, "comma-separated omega list")
    k_values: str | None = _option(None, "comma-separated k list")
    alpha_values: str | None = _option(None, "comma-separated alpha list")
    gamma_values: str | None = _option(None, "comma-separated gamma list")

    def phys(self):
        _require(self.omega > 0.0, "omega", "> 0", self.omega)
        _require(self.k >= 0.0, "k", ">= 0", self.k)
        _require(self.hbar > 0.0, "hbar", "> 0", self.hbar)
        return PhysicalParams(omega=self.omega, k=self.k, hbar=self.hbar)

    def amb(self):
        return AmbiguityParams(alpha=self.alpha, gamma=self.gamma)


_PHYSICAL = ("omega", "k", "hbar", "alpha", "gamma")

# subcommand -> (help, the RunConfig fields it reads). Each field is one
# --flag of the subcommand, besides --config, --output and --format, and
# one key of its JSON meta.params.
_OPTIONS = {
    "classical": ("RK4 trajectory vs closed form",
                  ("omega", "k", "amplitude", "phase", "t_end", "step")),
    "spectrum": ("bound-state energies", (*_PHYSICAL, "n_max")),
    "wavefn": ("sampled eigenfunction", (*_PHYSICAL, "level", "samples")),
    "verify": ("run the verification suite", _PHYSICAL),
    "limit": ("no-deformation limit studies",
              ("omega", "hbar", "n_max", "k_sequence", "a_values")),
    "sweep": ("parameter sweep of derived quantities",
              (*_PHYSICAL, "omega_values", "k_values", "alpha_values",
               "gamma_values")),
}


_FLOAT_CELL = "%.17g"  # 17 significant digits: every float64 round-trips

# Rows a table may hold; checked before any row is computed.
MAX_ROWS = 10 ** 6
_AMPLITUDE_MAX = math.sqrt(sys.float_info.max)


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
    """The serialized cells of one column of row tuples: `_fmt` on each
    cell (CSV) or `json.dumps` (JSON). float64 arrays never come here:
    `_table_text` formats them."""
    return list(map(_fmt if fmt == "csv" else json.dumps, column))


# The array formatter handles |v| in [1e-280, 1e280] (decimal exponents
# x = -281..280); 2^27 + 1 splits a double into two 26-bit halves (Dekker).
_X_MIN, _X_MAX = -281, 280
_SPLIT = 134217729.0
# Margin, in units of the 17th digit, within which a scaled value counts as
# a tie or as on a round-trip bound. The double-double scaled value and the
# half-gap are off by under 1e-14 of such a unit.
_TIE = 1e-9
_TEXT = 24  # bytes of a cell's text: sign and at most 23 more
_CHUNK_CELLS = 2 ** 13  # cells formatted per pass; bounds the temporaries


@functools.cache
def _decimal_tables():
    """(hi, hi_head, hi_tail, lo, quads), built with integer arithmetic.

    hi[i] + lo[i] is 10^(16 - x) to ~2^-106 relative, for x = _X_MIN + i;
    hi_head + hi_tail is hi split in two. quads holds the four ASCII digits
    of 0..9999 as one little-endian uint32, then the same with trailing
    '0's turned into NUL bytes at 10000 + i.
    """
    pairs = []
    for x in range(_X_MIN, _X_MAX + 1):
        num, den = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        hi = num / den  # int / int rounds correctly
        hi_num, hi_den = hi.as_integer_ratio()
        pairs.append((hi, (num * hi_den - hi_num * den) / (den * hi_den)))
    hi, lo = np.array(pairs).T
    scaled = hi * _SPLIT
    head = scaled - (scaled - hi)
    i = np.arange(10000, dtype=np.int16)
    quads = np.empty((2, 10000, 4), np.uint8)
    quads[:] = np.stack((i // 1000, i // 100 % 10, i // 10 % 10, i % 10), axis=1) + 48
    for j in range(3, -1, -1):
        quads[1, :, j] *= quads[1, :, j:].max(axis=1) > 48
    return hi, head, hi - head, lo, quads.view("<u4").ravel()


def _scaled_digits(values):
    """(x, whole, frac, ok) for a 1-D float64 array: each cell's decimal
    exponent x (int16) and its scaled value S = |v| 10^(16 - x), split into
    floor(S) (int64) and S - floor(S) (float64), and whether S is usable.

    x is floor(log10 |v|). S is formed as a double-double, Dekker's exact
    product with the (hi, lo) power of ten. It is not usable for 0, inf,
    nan and |v| outside [1e-280, 1e280] (all worked as 1), nor where S
    falls below 1e16 because log10 picked too high an exponent (e.g.
    1e-277, whose double lies just below 10^-277). Where log10 picks too
    low one, S reaches 1e17, which the digit rules reject.
    """
    hi_t, head_t, tail_t, lo_t, _ = _decimal_tables()
    mag = np.abs(values)
    ok = (mag >= 1e-280) & (mag <= 1e280)
    np.copyto(mag, 1.0, where=~ok)
    x = np.floor(np.log10(mag)).astype(np.int16)
    i = x - _X_MIN
    hi, head = hi_t.take(i), head_t.take(i)
    # mag * hi = p + err exactly; S = p + err + mag * lo
    p = mag * hi
    split = mag * _SPLIT
    mag_head = split - (split - mag)
    mag_tail = mag - mag_head
    tail = tail_t.take(i)
    err = mag_head * head
    err -= p
    err += mag_head * tail
    err += mag_tail * head
    err += mag_tail * tail
    err += mag * lo_t.take(i)
    whole = np.floor(err)
    frac = err - whole
    whole = p.astype(np.int64) + whole.astype(np.int64)
    ok &= whole >= 10 ** 16
    return x, whole, frac, ok


def _digits_17g(values, x, whole, frac, ok):
    """`'%.17g'`'s digits: S rounded to a 17-digit integer D, and whether D
    is sure. An exact tie is not: Python rounds it half-even."""
    digits = whole + (frac > 0.5)
    return digits, ok & (np.abs(frac - 0.5) > _TIE) & (digits < 10 ** 17)


def _digits_repr(values, x, whole, frac, ok):
    """`float.__repr__`'s digits as a 17-digit integer D: the multiple of
    the highest power of ten within half a gap of S, the nearest such if
    several, so that it reads back as v; and whether D is sure.

    With |v| = f 2^e, half the gap to either neighbour is H = 2^(e - 54) in
    units of |v| and 10^(x - 16) in S's, in [0.55, 11.1]. Of the multiples
    of 10^(j + 1), for j = 1 if 2H > 10 else 0, at most one lies within H;
    the nearest multiple of 10^j always does, by at least 0.005. Both are
    found from S mod 100. D is not sure when the distance to the former is
    within _TIE of H (the bound rounds half-even), at a tie between two
    multiples of 10^j, when f = 1/2 (the gap below is half the one above)
    or when D reaches 10^17.
    """
    f, e = np.frexp(np.where(ok, values, 1.0))
    half_gap = np.ldexp(_decimal_tables()[0].take(x - _X_MIN), e - 54)
    base = whole // 100 * 100
    rest = (whole - base) + frac
    step = np.where(half_gap > 5.0, 100.0, 10.0)
    coarse = np.rint(rest / step) * step
    dist = np.abs(rest - coarse)
    step /= 10.0
    nearest = np.rint(rest / step) * step
    within = dist < half_gap
    ok &= ((np.abs(dist - half_gap) > _TIE) & (np.abs(f) != 0.5)
           & (within | (np.abs(np.abs(rest - nearest) - step / 2) > _TIE)))
    digits = base + np.where(within, coarse, nearest).astype(np.int64)
    return digits, ok & (digits < 10 ** 17)


def _digit_chars(digits):
    """The 17 ASCII digits of each D in `digits`, an (n, 17) uint8 matrix
    in which the trailing '0's are NUL bytes."""
    quads = _decimal_tables()[-1]
    high = digits // 10 ** 8  # D = lead, then four groups of four digits
    low = (digits - high * 10 ** 8).astype(np.int32)
    lead = high // 10 ** 8
    high = (high - lead * 10 ** 8).astype(np.int32)
    g1, g3 = high // 10 ** 4, low // 10 ** 4
    g2, g4 = high - g1 * 10 ** 4, low - g3 * 10 ** 4
    quad = np.empty((len(digits), 5), "<u4")
    quad[:, 0] = (lead + 48) << 24
    # a group followed only by zero groups takes its stripped form
    quad[:, 4] = quads.take(g4 + 10000)
    quad[:, 3] = quads.take(g3 + 10000 * (g4 == 0))
    low_zero = low == 0
    quad[:, 2] = quads.take(g2 + 10000 * low_zero)
    quad[:, 1] = quads.take(g1 + 10000 * (low_zero & (g2 == 0)))
    return quad.view(np.uint8)[:, 3:]


@dataclass(frozen=True)
class _TextFormat:
    """How the array formatter writes a float64 cell in one output format:
    the digit rule, the exponents laid out in fixed notation (-4 <= x <
    fixed_below), whether an integral fixed value ends in '.0', the text of
    0 and inf after the sign and of nan over it (nan has no sign), and the
    formatter of a cell whose digits are not sure."""

    digits: object
    fixed_below: int
    point_zero: bool
    zero: bytes
    inf: bytes
    nan: bytes
    fallback: object


_FORMATS = {
    "csv": _TextFormat(_digits_17g, 17, False, b"0", b"inf", b"\0nan",
                       _FLOAT_CELL.__mod__),
    "json": _TextFormat(_digits_repr, 16, True, b"0.0", b"Infinity",
                        b"\0NaN", float.__repr__),
}


def _table_text(block, fmt, prefixes, separator):
    """The text of a 2-D float64 block, each cell in the layout of `fmt`
    ('%.17g' for CSV, `float.__repr__` as `json.dumps` writes it for JSON),
    preceded by its column's byte prefix; rows are joined by `separator`.

    The digit rule gives each cell's exponent x and its digits D, and
    `_digit_chars` their text with trailing zeros stripped. The cells are
    sorted by x, and each exponent group lays its digits into fixed slots
    by slice assignments, in the layout of that x (fixed notation, else
    d.ddde±XX). NUL bytes pad the slots and are dropped at the end. 0, inf
    and nan (which has no sign) are laid out as 1 and patched; the other
    cells whose digits are not sure go through the format's own fallback,
    all together.
    """
    form = _FORMATS[fmt]
    values = block.ravel()
    n = len(values)
    x, whole, frac, ok = _scaled_digits(values)
    digits, ok = form.digits(values, x, whole, frac, ok)
    order = np.argsort(x, kind="stable")
    chars = _digit_chars(digits.take(order))
    # a row: each cell's slot holds its prefix, then its text; the first
    # slot opens with the separator from the row before
    prefixes = [separator + prefixes[0], *prefixes[1:]]
    width = max(map(len, prefixes))
    row = b"".join(prefix.ljust(width + _TEXT, b"\0") for prefix in prefixes)
    slots = np.zeros((n, width + _TEXT), np.uint8)
    text = slots[:, width:]
    start = 0
    for count, xv in zip(np.bincount(x - _X_MIN), range(_X_MIN, _X_MAX + 1)):
        if not count:
            continue
        t, d = text[start:start + count], chars[start:start + count]
        start += count
        if 0 <= xv < form.fixed_below:
            # integer digits keep their zeros: NUL | '0' = '0'
            np.bitwise_or(d[:, :xv + 1], 48, out=t[:, 1:xv + 2])
            if form.point_zero:  # '.', then at least one digit
                t[:, xv + 2] = 46
                np.bitwise_or(d[:, xv + 1], 48, out=t[:, xv + 3])
                t[:, xv + 4:19] = d[:, xv + 2:]
            elif xv < 16:  # a point only before a kept digit: min(NUL, '.')
                np.minimum(d[:, xv + 1], 46, out=t[:, xv + 2])
                t[:, xv + 3:19] = d[:, xv + 1:]
        elif -4 <= xv < 0:
            lead_in = np.frombuffer(b"0." + b"0" * (-xv - 1), np.uint8)
            t[:, 1:1 + len(lead_in)] = lead_in
            t[:, 1 + len(lead_in):18 + len(lead_in)] = d
        else:
            t[:, 1] = d[:, 0]
            np.minimum(d[:, 1], 46, out=t[:, 2])
            t[:, 3:19] = d[:, 1:]
            suffix = np.frombuffer(b"e%+03d" % xv, np.uint8)
            t[:, 19:19 + len(suffix)] = suffix
    inverse = np.empty_like(order)
    inverse[order] = np.arange(n)
    out = slots.take(inverse, axis=0)
    # the prefixes fill bytes that the text leaves NUL
    out.reshape(len(block), -1)[:] |= np.frombuffer(row, np.uint8)
    out[0, :len(separator)] = 0
    cells = out[:, width:]
    cells[:, 0] = np.signbit(values) * 45
    cells[values == 0, 1:1 + len(form.zero)] = np.frombuffer(form.zero, np.uint8)
    cells[np.isinf(values), 1:1 + len(form.inf)] = np.frombuffer(form.inf, np.uint8)
    cells[np.isnan(values), :len(form.nan)] = np.frombuffer(form.nan, np.uint8)
    rest = np.flatnonzero(~ok & np.isfinite(values) & (values != 0))
    if len(rest):
        cells[rest] = np.array(
            list(map(form.fallback, values[rest].tolist())),
            dtype=f"S{_TEXT}").view(np.uint8).reshape(-1, _TEXT)
    out = out.ravel()
    return out[out != 0].tobytes()


def write_output(path, columns, rows, meta, fmt):
    """Write rows as CSV (fixed header) or JSON ({meta, rows}).

    rows is a 2-D float64 array or a sequence of row tuples; its bytes are
    those of `_fmt` on every cell (CSV) or of `json.dumps(payload,
    sort_keys=True, indent=1)` (JSON). Either way a row is each cell behind
    its column's prefix (',' or '   "key": '), with a separator between
    rows. A float64 array is formatted by `_table_text` in numpy, in blocks
    of about `_CHUNK_CELLS` cells, and written block by block. Row tuples
    are serialized a column at a time by `_cells` and laid into a per-row
    template.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    if fmt == "csv":
        take = list(range(len(columns)))
        prefixes, separator = ["", *[","] * (len(columns) - 1)], "\n"
        head, tail = ",".join(columns) + "\n", "\n"
        empty = head
    else:
        # keys sorted; a repeated column name keeps its last column, as
        # dict(zip(columns, row)) does
        index = {name: i for i, name in enumerate(columns)}
        take = [index[key] for key in sorted(index)]
        prefixes = [f"{',' if j else '  {'}\n   {json.dumps(columns[i])}: "
                    for j, i in enumerate(take)]
        separator = "\n  },\n"
        empty = json.dumps({"meta": {"params": meta, "version": __version__},
                            "rows": []}, sort_keys=True, indent=1) + "\n"
        head, tail = empty[:-len("[]\n}\n")] + "[\n", "\n  }\n ]\n}\n"
    if not (len(rows) and take):
        return _write_parts(path, [empty.encode()])
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
        parts = _table_parts(rows, take, fmt, [p.encode() for p in prefixes],
                             separator.encode())
        return _write_parts(path, itertools.chain(
            [head.encode()], parts, [tail.encode()]))
    table = rows.T if isinstance(rows, np.ndarray) else list(zip(*rows))
    cells = [_cells(table[i], fmt) for i in take]
    # one row's text with a %s per cell
    row = "%s".join(p.replace("%", "%%") for p in [*prefixes, ""])
    body = separator.join(map(row.__mod__, zip(*cells)))
    return _write_parts(path, [(head + body + tail).encode()])


def _table_parts(rows, take, fmt, prefixes, separator):
    """The text of the columns `take` of a float64 array in `fmt`, one
    part per block of about `_CHUNK_CELLS` cells, the parts joined by
    `separator`."""
    step = max(1, _CHUNK_CELLS // len(take))
    for start in range(0, len(rows), step):
        if start:
            yield separator
        yield _table_text(rows[start:start + step, take], fmt, prefixes,
                          separator)


def _write_parts(path, parts):
    """Write the byte strings `parts` to path, one after another."""
    try:
        with open(path, "wb") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise LienardError(f"cannot write output file {path}: {exc}") from exc
    return path


def _require(ok, name, bound, value):
    """Raise naming option `name` unless `ok`: it must be `bound`."""
    if not ok:
        raise LienardError(f"option {name!r} must be {bound}, got {value}")


def _check_rows(count, what):
    """Raise naming `what`, the options that set them, unless `count` rows
    fit MAX_ROWS."""
    if not count <= MAX_ROWS:
        raise LienardError(f"{what} would give more than {MAX_ROWS} output rows")


def _write(config, command, columns, rows):
    """Write a subcommand's table to --output, or to <command>.<format> in
    LIENARDQM_OUTDIR, echoing the options the subcommand reads."""
    path = config.output or os.path.join(
        os.environ.get("LIENARDQM_OUTDIR", "."), f"{command}.{config.format}")
    params = {name: getattr(config, name) for name in _OPTIONS[command][1]}
    return write_output(path, columns, rows, params, config.format)


def _parse_floats(text, key):
    """The comma-separated numbers of option `key`: at least one, all finite."""
    values = tuple(float(tok) for tok in str(text).split(",") if tok.strip())
    if not values or not all(map(math.isfinite, values)):
        raise LienardError(f"option {key!r} must hold one or more finite "
                           f"numbers, got {text!r}")
    return values


def cmd_classical(config):
    phys = config.phys()
    _require(config.amplitude >= 0.0, "amplitude", ">= 0", config.amplitude)
    # the closed-form velocity squares the amplitude, even at k = 0
    _require(config.amplitude <= _AMPLITUDE_MAX, "amplitude",
             f"<= {_AMPLITUDE_MAX:g}, where its square overflows",
             config.amplitude)
    top = 3.0 * phys.omega / phys.k if phys.is_deformed else math.inf
    _require(config.amplitude < top, "amplitude", f"< 3 omega / k = {top:g} "
             f"at omega = {phys.omega:g} and k = {phys.k:g}", config.amplitude)
    _require(config.step > 0.0, "step", "> 0", config.step)
    _require(config.t_end is None or config.t_end > 0.0, "t_end", "> 0",
             config.t_end)
    t_end = config.t_end if config.t_end is not None else 2.0 * math.pi / phys.omega
    # integrate_lienard writes round(t_end / step) + 1 rows
    unset = "" if config.t_end is not None else (
        f" (unset: one period at 'omega' = {phys.omega})")
    _check_rows(round(min(t_end / config.step, MAX_ROWS)) + 1,
                f"options 'step' = {config.step} and 't_end' = {t_end}{unset}")
    initial = classical.OscillatorState(
        x=classical.analytic_solution(phys, config.amplitude, config.phase, 0.0),
        v=classical.analytic_velocity(phys, config.amplitude, config.phase, 0.0))
    traj = classical.integrate_lienard(phys, initial, t_end, config.step)
    exact = classical.analytic_solution(phys, config.amplitude, config.phase,
                                        traj.times)
    rows = np.column_stack((traj.times, traj.positions, exact,
                            np.abs(traj.positions - exact)))
    path = _write(config, "classical",
                  ("t", "x_numeric", "x_analytic", "abs_err"), rows)
    # nanmax, like max() over the rows: the first row's error is finite
    print(f"classical: {len(rows)} samples, max |x_num - x_exact| = "
          f"{np.nanmax(rows[:, 3]):.3e} -> {path}")
    return 0


def cmd_spectrum(config):
    phys = config.phys()
    _require(config.n_max >= 0, "n_max", ">= 0", config.n_max)
    _check_rows(config.n_max + 1, f"option 'n_max' = {config.n_max}")
    table = susy.spectrum(phys, config.amb(), config.n_max)
    hw = phys.hbar_omega
    rows = [(n, e, e / hw) for n, e in table.levels()]
    path = _write(config, "spectrum", ("n", "energy", "hbar_omega_units"),
                  rows)
    print(f"spectrum: {len(rows)} levels, e_0 = {rows[0][1]:.17g} -> {path}")
    return 0


def cmd_wavefn(config):
    phys = config.phys()
    n = config.level
    _require(n >= 0, "level", ">= 0", n)
    _require(config.samples >= 2, "samples", ">= 2", config.samples)
    _check_rows(config.samples, f"option 'samples' = {config.samples}")
    if phys.is_deformed:
        derived = derive_params(phys, config.amb())
        lo, hi = wavefn.support_window(phys, derived, n)
        p = np.linspace(lo, hi, config.samples)
        y = wavefn.y_of_p(phys, derived, p)
    else:
        derived = None
        # 3 sqrt(hbar omega) past the level's turning point sqrt(2n + 1),
        # and never under the 6 sqrt(hbar omega) levels 0..4 have always had
        half = max(6.0, math.sqrt(2 * n + 1) + 3.0) * math.sqrt(phys.hbar_omega)
        p = np.linspace(-half, half, config.samples)
        y = np.full_like(p, math.nan)
    try:
        values = wavefn.psi(phys, derived, n, p)
    except OverflowGuardError as exc:
        lam = "" if derived is None else f", lam = {derived.lam:.6g}"
        raise OverflowGuardError(
            f"wavefn at k = {phys.k:g}, hbar = {phys.hbar:g}, omega = "
            f"{phys.omega:g}{lam} and level {n}: {exc}") from None
    rows = np.column_stack((p, y, values))
    path = _write(config, "wavefn", ("p", "y", "psi"), rows)
    print(f"wavefn: level {n}, {len(rows)} samples -> {path}")
    return 0


def cmd_verify(config):
    records = checks.run_suite(config.phys(), config.amb())
    rows = [(r.name, r.params, r.measured, r.expected, r.tolerance, r.passed)
            for r in records]
    path = _write(config, "verify", ("check", "params", "measured",
                                     "expected", "tolerance", "pass"), rows)
    width = max(len(r.name) for r in records)
    for r in records:
        verdict = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  measured={r.measured:<12.3e} "
              f"expected={r.expected:<12.3e} tol={r.tolerance:<9.0e} {verdict}")
    failed = sum(not r.passed for r in records)
    print(f"verify: {len(records) - failed}/{len(records)} checks passed -> {path}")
    return 1 if failed else 0


def cmd_limit(config):
    _require(config.n_max >= 0, "n_max", ">= 0", config.n_max)
    if config.n_max > 5:
        raise LienardError(f"option 'n_max' must be in 0..5, the levels of "
                           f"the Laguerre-Hermite study, got {config.n_max}")
    phys = config.phys()
    rows = []
    k_seq = _parse_floats(config.k_sequence, "k_sequence")
    if not all(k > 0.0 for k in k_seq):
        raise LienardError(f"option 'k_sequence' must hold numbers > 0 (k = 0 "
                           f"is the exact branch), got {config.k_sequence!r}")
    if any(b >= a for a, b in zip(k_seq, k_seq[1:])):
        raise LienardError(f"option 'k_sequence' must be strictly decreasing, "
                           f"got {config.k_sequence!r}")
    a_values = _parse_floats(config.a_values, "a_values")
    if not all(a > 0.0 for a in a_values):
        raise LienardError(f"option 'a_values' must hold numbers > 0, "
                           f"got {config.a_values!r}")
    base = PhysicalParams(omega=phys.omega, k=0.0, hbar=phys.hbar)
    for n in range(min(config.n_max, 3) + 1):
        for k, dev in wavefn.limit_deviation(n, k_seq, base):
            rows.append(("wavefn-deviation", n, k, dev))
    for n in range(config.n_max + 1):
        for a, _, _, dev in wavefn.laguerre_hermite_limit(n, 1.0, a_values):
            rows.append(("laguerre-hermite", n, a, dev))
    for a, n, err in wavefn.gamma_asymptotic_check([a for a in a_values if a >= 10.0]):
        rows.append(("gamma-asymptotic", n, a, err))
    path = _write(config, "limit", ("study", "n", "scale", "value"), rows)
    print(f"limit: {len(rows)} rows -> {path}")
    return 0


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
    omega, k, alpha, gamma = axes
    a_script, lam, shift = derive_grid(omega, k, config.hbar, alpha, gamma)
    grid = np.meshgrid(*axes, indexing="ij")
    e0 = susy.level_energy(0, shift, config.hbar * grid[0])
    table = np.stack((*grid, a_script, lam, shift, e0), axis=-1).reshape(-1, 8)
    # axes may come unsorted; the sort is stable, as sorted() is, so points
    # that compare equal (0 and -0) keep their product order
    rows = table[np.lexsort(table[:, 3::-1].T)]
    path = _write(config, "sweep", ("omega", "k", "alpha", "gamma",
                                    "a_script", "lambda", "shift", "e0"), rows)
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


def _kind(field):
    """The type of a RunConfig field, without the None of an unset one."""
    return get_args(field.type)[0] if field.default is None else field.type


def _fields(command):
    """The RunConfig fields a subcommand reads, in declaration order."""
    names = {*_OPTIONS[command][1], "output", "format"}
    return [field for field in fields(RunConfig) if field.name in names]


@functools.cache  # built once per process; parse_args does not change it
def build_parser():
    parser = argparse.ArgumentParser(
        prog="lienardqm", allow_abbrev=False,
        description="Deformed-oscillator toolkit: classical dynamics, "
                    "spectrum, eigenfunctions, and verification suites.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, _) in _OPTIONS.items():
        # no option may be abbreviated
        p = sub.add_parser(command, help=text, allow_abbrev=False)
        p.add_argument("--config", help="JSON file with default option values")
        for field in _fields(command):
            p.add_argument("--" + field.name.replace("_", "-"),
                           type=_kind(field), help=field.metadata["help"],
                           choices=("csv", "json") if field.name == "format"
                           else None)
    return parser


def _checked(field, value):
    """value if its JSON type fits the RunConfig field: an int fits a float
    field, a bool no numeric one, and null only one whose default is None."""
    nullable = field.default is None
    kind = _kind(field)
    if (value is None and nullable or type(value) is kind
            or kind is float and type(value) is int):
        return value
    raise LienardError(f"config key {field.name!r} must be {kind.__name__}"
                       f"{' or null' if nullable else ''}, got {value!r}")


def load_config(args):
    """Merge flags over config-file values over defaults into a RunConfig.

    Every config key must name an option, have its type and be finite, but
    only the keys the subcommand reads are merged: a shared file may hold
    keys of other subcommands, whose values are then not range-checked.
    """
    known = {field.name: field for field in fields(RunConfig)}
    given = {}
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
        given = {key: _checked(known[key], value)
                 for key, value in from_file.items()}
    given.update((name, value) for name, value in vars(args).items()
                 if name in known and value is not None)
    for name, value in given.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise LienardError(f"option {name!r} must be finite, got {value}")
    read = {field.name for field in _fields(args.command)}
    return RunConfig(**{name: value for name, value in given.items()
                        if name in read})


def _joined(argv):
    """argv with each value that starts like a negative number joined to the
    subcommand's option flag before it ('--gamma=-4.8e-05'). argparse reads
    only '-N' and '-N.N' as numbers and takes any other such token for an
    option."""
    command = argv[0] if argv and argv[0] in _OPTIONS else None
    flags = {"--config"} | {"--" + field.name.replace("_", "-")
                            for field in _fields(command)} if command else ()
    out = []
    for token in argv:
        negative = token[:1] == "-" and token[1:2] in tuple("0123456789.")
        if negative and out and out[-1] in flags:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    args = build_parser().parse_args(
        _joined(sys.argv[1:] if argv is None else argv))
    try:
        config = load_config(args)
        return _COMMANDS[args.command](config)
    except (LienardError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
