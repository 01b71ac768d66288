"""Seeded request streams for the three workloads.

A request is the argv list `lienardqm.cli.main` receives (without
`--output`, which the runner appends). The same seed gives the same
requests. A stream is a sequence of blocks. Every block of a workload holds
one request per cell of a fixed grid over the parameters that set a
request's cost (size strata, output format, level), in a seeded order; the
seed draws the sizes within each stratum and every other parameter. Runs
end on a block boundary, so runs at any seed do the same mix of work, and
the median and tail fall on the same cells whichever seed and however many
blocks a run gets to. Sizes vary continuously within a stratum because the
host's speed switches between two levels: with a few discrete sizes, the
latencies bunch into spikes and a percentile jumps between them.
"""

import math
import random
from dataclasses import dataclass

# Traced runs replay a fixed number of blocks from the start of the
# stream, so their work counters repeat exactly at one seed.
TRACE_BLOCKS = {"verify": 2, "trajectory": 2, "tables": 4}

# Verify box around the paper point omega = k = 1, alpha*gamma in {0, 19}.
# Its lowest lam is 9 * 0.99**3 / 1.01**2 = 8.56, above the lam ~ 8.3 corner
# where `verify` exits 2 (see `verify_probe`); its solver grid spans
# N = 8200..8800 against the default 6000.
VERIFY_OMEGA = (0.99, 1.03)
VERIFY_K = (0.97, 1.01)
VERIFY_PRODUCTS = (0.0, 19.0)

TRAJ_OMEGA = (0.9, 1.1)
# Steps from 2e-4 to 2e-3 (log-spaced) in seven strata, by t_end from 0.6
# to 1.6 periods of the omega = 1 oscillator in three. Five of the 21 cells
# write JSON, which costs ~1.7x CSV; they are chosen so that the five
# costliest cells cost within ~25% of each other. The tail percentile moves
# with the number of requests a run completes, and this keeps it among
# them instead of jumping between lone cells.
TRAJ_STEP = (2e-4, 2e-3)
TRAJ_PERIODS = (0.6, 1.6)
TRAJ_JSON = {(0, 0), (1, 1), (1, 2), (4, 1), (6, 2)}
TRAJ_CELLS = tuple(((i, 7), (j, 3), "json" if (i, j) in TRAJ_JSON else "csv")
                   for i in range(7) for j in range(3))

SWEEP_POINTS = (1000, 5000)
WAVEFN_SAMPLES = (1001, 20001)

# Five request kinds in three size strata each; a third of the cells
# write JSON.
TABLE_KINDS = ("spectrum", "wavefn", "limit", "wavefn_k0", "sweep")
TABLE_CELLS = tuple((kind, (j, 3), "json" if (i + j) % 3 == 2 else "csv")
                    for i, kind in enumerate(TABLE_KINDS) for j in range(3))


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple
    fmt: str

    def options(self):
        """Flag values keyed by option name, as strings."""
        return {flag[2:].replace("-", "_"): value
                for flag, value in zip(self.argv[1::2], self.argv[2::2])}


def _num(value):
    return f"{value:.6g}"


def _lerp(bounds, u):
    return bounds[0] + (bounds[1] - bounds[0]) * u


def _stratum(rng, cell):
    """A seeded point of stratum `index` of `count` equal strata of [0, 1)."""
    index, count = cell
    return (index + rng.random()) / count


def _blocks(rng, cells, make):
    """Endless stream of blocks: one request per cell, in a seeded order."""
    while True:
        order = list(cells)
        rng.shuffle(order)
        yield [make(rng, *cell) for cell in order]


def _factor(rng, product):
    """Split alpha*gamma = product into two seeded factors."""
    if product == 0.0:
        other = _num(rng.uniform(0.5, 20.0))
        return ("0", other) if rng.random() < 0.5 else (other, "0")
    alpha = rng.choice((1.0, 2.0, 0.5, product))
    return _num(alpha), _num(product / alpha)


def _verify(rng, u, product):
    alpha, gamma = _factor(rng, product)
    return Request("verify", (
        "verify", "--omega", _num(_lerp(VERIFY_OMEGA, u[0])),
        "--k", _num(_lerp(VERIFY_K, u[1])),
        "--alpha", alpha, "--gamma", gamma), "csv")


def verify_stream(seed):
    rng = random.Random(f"{seed}:verify")
    return _blocks(rng, [(p,) for p in VERIFY_PRODUCTS],
                   lambda rng, product: _verify(rng, (rng.random(), rng.random()),
                                                product))


def verify_warmup(seed):
    rng = random.Random(f"{seed}:verify-warmup")
    return [_verify(rng, (1.0, 0.0), VERIFY_PRODUCTS[-1])]


def verify_probe(seed):
    """A `verify` request in the lam < 8.3 corner, outside the timed stream.

    `lienardqm verify` exits 2 there with "samples do not vanish at the grid
    ends": `wavefn.support_window` is too narrow for `checks._operator_checks`
    below lam ~ 8.3. The probe keeps that defect visible in every verify run.
    """
    rng = random.Random(f"{seed}:verify-probe")
    omega = rng.uniform(0.97, 1.03)
    a_script = rng.uniform(4.0, 8.0)
    k = math.sqrt(9.0 * omega ** 3 / a_script)
    return Request("verify", ("verify", "--omega", _num(omega), "--k", _num(k),
                              "--alpha", "0", "--gamma", "0"), "csv")


def _trajectory(rng, u_step, u_periods, fmt):
    omega = rng.uniform(*TRAJ_OMEGA)
    step = TRAJ_STEP[0] * (TRAJ_STEP[1] / TRAJ_STEP[0]) ** u_step
    t_end = _lerp(TRAJ_PERIODS, u_periods) * 2.0 * math.pi
    return Request("classical", (
        "classical", "--omega", _num(omega), "--k", _num(rng.uniform(0.8, 1.2)),
        "--amplitude", _num(rng.uniform(0.2, 1.2)),
        "--phase", _num(rng.uniform(0.0, 2.0 * math.pi)),
        "--step", _num(step), "--t-end", _num(t_end), "--format", fmt), fmt)


def trajectory_stream(seed):
    return _blocks(random.Random(f"{seed}:trajectory"), TRAJ_CELLS,
                   lambda rng, step, periods, fmt: _trajectory(
                       rng, _stratum(rng, step), _stratum(rng, periods), fmt))


def trajectory_warmup(seed):
    rng = random.Random(f"{seed}:trajectory-warmup")
    return [_trajectory(rng, 0.0, 1.0, "json")]


def _spectrum(rng, u, fmt):
    omega = rng.uniform(0.5, 2.0)
    k = rng.uniform(0.3, 2.0)
    hbar = rng.uniform(0.5, 2.0)
    a_script = 9.0 * omega ** 3 / (hbar * k ** 2)
    # below -a_script every level can sit far under zero (see tables_probe)
    product = rng.uniform(-min(a_script, 0.5 * a_script ** 2), 2.0 * a_script ** 2)
    alpha = rng.uniform(0.5, 4.0)
    return Request("spectrum", (
        "spectrum", "--omega", _num(omega), "--k", _num(k), "--hbar", _num(hbar),
        "--alpha", _num(alpha), "--gamma", _num(product / alpha),
        "--n-max", str(3 + int(57 * u)), "--format", fmt), fmt)


def tables_probe(seed):
    """A `spectrum` request that exits 2 on valid input, outside the timed stream.

    `susy.spectrum` checks its affine levels against the ladder sum with the
    tolerance 1e-14 * max(1, e_nmax). When alpha*gamma is near -a_script^2
    every level lies far below zero, e_nmax is small, and a rounding-level
    mismatch of 1.4e-14 raises ConstraintViolationError. A fixed input that
    shows it; the seed is not used.
    """
    return Request("spectrum", (
        "spectrum", "--omega", "1.7357", "--k", "0.428444", "--hbar", "1.64418",
        "--alpha", "0.531662", "--gamma", "-21332.1", "--n-max", "41",
        "--format", "csv"), "csv")


def _wavefn(rng, u, level, fmt):
    alpha, gamma = _factor(rng, rng.uniform(0.0, 30.0))
    return Request("wavefn", (
        "wavefn", "--omega", _num(rng.uniform(0.8, 1.25)),
        "--k", _num(rng.uniform(0.8, 1.25)), "--alpha", alpha, "--gamma", gamma,
        "--level", str(level),
        "--samples", str(int(_lerp(WAVEFN_SAMPLES, u))), "--format", fmt), fmt)


def _wavefn_k0(rng, u, level, fmt):
    return Request("wavefn", (
        "wavefn", "--omega", _num(rng.uniform(0.5, 2.0)), "--k", "0",
        "--hbar", _num(rng.uniform(0.5, 2.0)), "--level", str(level),
        "--samples", str(int(_lerp(WAVEFN_SAMPLES, u))), "--format", fmt), fmt)


def _limit(rng, u, fmt):
    n_max = 3 + round(2 * u)
    k_seq = [rng.uniform(0.02, 0.1)]
    for _ in range(2 + int(3 * u)):
        k_seq.append(k_seq[-1] / 10.0 ** rng.uniform(0.5, 1.0))
    scales = sorted(10.0 ** rng.uniform(1.0, 6.0) for _ in range(3 + int(3 * u)))
    return Request("limit", (
        "limit", "--omega", _num(rng.uniform(0.8, 1.25)),
        "--n-max", str(n_max),
        "--k-sequence", ",".join(_num(k) for k in k_seq),
        "--a-values", ",".join(_num(a) for a in scales), "--format", fmt), fmt)


def _sweep(rng, u, fmt):
    points = _lerp(SWEEP_POINTS, u)
    alphas = ("0", "19") if u < 0.5 else (_num(rng.uniform(0.0, 30.0)),)
    n_omega = 20
    n_k = max(1, round(points / (n_omega * len(alphas))))
    omegas = [0.5 + 1.5 * j / n_omega for j in range(n_omega)]
    ks = [0.2 + 2.8 * j / n_k for j in range(n_k)]
    return Request("sweep", (
        "sweep", "--omega-values", ",".join(_num(w) for w in omegas),
        "--k-values", ",".join(_num(k) for k in ks),
        "--alpha-values", ",".join(alphas), "--gamma", _num(rng.uniform(0.5, 2.0)),
        "--format", fmt), fmt)


def _table(rng, kind, cell, fmt):
    level = 2 * cell[0] + 1  # 1, 3 and 5 over the three strata
    u = _stratum(rng, cell)
    if kind == "spectrum":
        return _spectrum(rng, u, fmt)
    if kind == "wavefn":
        return _wavefn(rng, u, level, fmt)
    if kind == "wavefn_k0":
        return _wavefn_k0(rng, u, level - 1, fmt)
    if kind == "limit":
        return _limit(rng, u, fmt)
    return _sweep(rng, u, fmt)


def tables_stream(seed):
    return _blocks(random.Random(f"{seed}:tables"), TABLE_CELLS, _table)


def tables_warmup(seed):
    rng = random.Random(f"{seed}:tables-warmup")
    return [_table(rng, kind, (2, 3), "json") for kind in TABLE_KINDS]


WORKLOADS = {
    "verify": (verify_stream, verify_warmup, verify_probe),
    "trajectory": (trajectory_stream, trajectory_warmup, None),
    "tables": (tables_stream, tables_warmup, tables_probe),
}
