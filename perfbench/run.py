#!/usr/bin/env python3
"""lienardqm benchmark: drives `lienardqm.cli.main(argv)` in-process.

Closed loop, one client, one process: each request starts only after the
previous one finished, and each output is checked by an independent oracle
after its timed span. With `--trace 0` it reports the end-to-end metrics;
with `--trace 1` it replays a fixed prefix of the same request stream once
plain and once under the outside-in tracer, and reports per-layer metrics
and the tracing overhead.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Its timings are scaled to a reference host speed measured by the
fixed work in reference.py; the lines before it print them as measured
too. Run it from the repository root; it imports the package from
`src/` and writes only under `.perfbench_work/`.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
import reference
import tracer
from workloads import TRACE_BLOCKS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

# The tail percentile is the highest one with >= 10 successes beyond it, so
# a run issues at least 11 requests even if --seconds has run out.
TAIL_BEYOND = 10
MIN_REQUESTS = TAIL_BEYOND + 1
SETUP_SPAWNS = 9
# A host-speed reference sample is taken after each this many seconds of
# request time (and before the first request and after the last).
REFERENCE_EVERY_S = 0.5

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics: span name -> fields. Counts and busy/self seconds sum
# over the traced requests; see tracer.LAYERS for where each span comes from.
LAYER_FIELDS = {
    "kernels.sturm_count": ("calls", "rows", "busy_s", "ns_per_row"),
    "kernels.rk4_lienard": ("calls", "steps", "busy_s", "ns_per_step"),
    "eigensolver.lowest_eigenvalues": ("calls", "levels", "self_s"),
    "eigensolver.build_operator": ("busy_s",),
    "eigensolver.verify_spectrum": ("busy_s",),
    "checks.run_suite": ("busy_s",),
    "checks.classical": ("busy_s",),
    "checks.potential": ("busy_s",),
    "checks.susy": ("busy_s",),
    "checks.operator": ("busy_s",),
    "checks.eigensolver": ("busy_s",),
    "checks.wavefn": ("busy_s",),
    "classical.integrate_lienard": ("busy_s", "self_s"),
    "classical.analytic_solution": ("busy_s",),
    "classical.conjugate_momentum": ("calls",),
    "classical.hamiltonian_classical": ("calls",),
    "quantize.apply_hamiltonian_fd": ("busy_s",),
    "susy.spectrum": ("busy_s",),
    "susy.riccati_residual": ("busy_s",),
    "susy.ground_state_energy": ("calls",),
    "wavefn.psi": ("calls", "busy_s"),
    "wavefn.overlap_matrix": ("busy_s",),
    "wavefn.limit_deviation": ("busy_s",),
    "specfun.laguerre_assoc": ("calls", "busy_s"),
    "specfun.log_gamma": ("calls",),
    "params.derive_params": ("calls", "busy_s"),
    "cli.write_output": ("busy_s", "rows", "bytes"),
    "cli.cmd_classical": ("busy_s",),
    "cli.cmd_spectrum": ("busy_s",),
    "cli.cmd_wavefn": ("busy_s",),
    "cli.cmd_verify": ("busy_s",),
    "cli.cmd_limit": ("busy_s",),
    "cli.cmd_sweep": ("busy_s", "self_s"),
}
MODULES = ("kernels", "eigensolver", "checks", "classical", "quantize", "susy",
           "wavefn", "specfun", "params", "cli")
UNITS = {"busy_s": "s", "self_s": "s", "ns_per_row": "ns/row",
         "ns_per_step": "ns/step", "bytes": "bytes"}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, fields in LAYER_FIELDS.items():
        for field in fields:
            units[f"{span}.{field}"] = UNITS.get(field, "count")
    units["eigensolver.sturm_calls_per_level"] = "calls/level"
    for module in MODULES:
        units[f"{module}.errors"] = "count"
    units["trace.request_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


@dataclass
class Outcome:
    code: object
    seconds: float
    stdout: str
    error: str


def call_cli(cli, request, path):
    """Run one request in-process; time it and capture stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    argv = [*request.argv, "--output", str(path)]
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a raising request is a failed request
        code = None
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return Outcome(code, seconds, out.getvalue(), error or err.getvalue().strip())


def judge(request, outcome, path):
    """'ok', 'failed' (raised or exited non-zero) or 'wrong' (exit 0, bad output)."""
    if outcome.code != 0:
        return "failed", f"exit {outcome.code}: {outcome.error}"
    try:
        oracles.check_output(request, path, outcome.stdout)
    except Exception as exc:  # any unreadable or wrong output fails the oracle
        return "wrong", f"{type(exc).__name__}: {exc}"
    return "ok", ""


class Tally:
    """Attempts, failures and the first few failure messages of a run."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.messages = []

    def add(self, request, verdict, message):
        self.attempted += 1
        if verdict != "ok":
            self.failed += 1
            self.wrong += verdict == "wrong"
            if len(self.messages) < 5:
                self.messages.append(f"{verdict}: {' '.join(request.argv)}: {message}")


def warm_up(cli, workload, seed, workdir, tally):
    """Run the warm-up requests untimed; a bad output still counts as wrong."""
    for request in WORKLOADS[workload][1](seed):
        path = workdir / f"warmup.{request.fmt}"
        verdict, message = judge(request, call_cli(cli, request, path), path)
        if verdict != "ok":
            tally.wrong += 1
            tally.messages.append(f"warm-up {verdict}: {message}")
        path.unlink(missing_ok=True)


def tail_latency(latencies):
    """(value, percentile): highest percentile with TAIL_BEYOND samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure_setup(workdir, spawns=SETUP_SPAWNS):
    """Fresh interpreters importing lienardqm.cli, each after a reference sample.

    Returns (median seconds, all seconds, reference samples).
    """
    command = [sys.executable, "-c", "import lienardqm.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = lambda: subprocess.run(command, env=env, cwd=ROOT, check=True,
                                 stdout=subprocess.DEVNULL)
    run()  # compiles bytecode on a fresh checkout
    times, refs = [], []
    for _ in range(spawns):
        refs.append(reference.sample(workdir))
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times), times, refs


def run_probe(cli, workload, seed, workdir):
    probe = WORKLOADS[workload][2]
    if probe is None:
        return None
    request = probe(seed)
    path = workdir / f"probe.{request.fmt}"
    verdict, message = judge(request, call_cli(cli, request, path), path)
    path.unlink(missing_ok=True)
    return request, verdict, message


def measure(cli, workload, seed, seconds, workdir):
    """Closed loop over whole blocks of the stream for `seconds` of request time.

    Timings are reported scaled to the reference host speed (see
    reference.py); the printed lines give them as measured too.
    """
    tally = Tally()
    warm_up(cli, workload, seed, workdir, tally)
    latencies = []
    busy = 0.0
    refs = [reference.sample(workdir)]
    since_ref = 0.0
    for block in WORKLOADS[workload][0](seed):
        if busy >= seconds and tally.attempted >= MIN_REQUESTS:
            break
        for request in block:
            path = workdir / f"out.{request.fmt}"
            outcome = call_cli(cli, request, path)
            busy += outcome.seconds
            since_ref += outcome.seconds
            verdict, message = judge(request, outcome, path)
            tally.add(request, verdict, message)
            if verdict == "ok":
                latencies.append(outcome.seconds)
            path.unlink(missing_ok=True)
            if since_ref >= REFERENCE_EVERY_S:
                refs.append(reference.sample(workdir))
                since_ref = 0.0
    refs.append(reference.sample(workdir))
    probe = run_probe(cli, workload, seed, workdir)
    setup, setup_times, setup_refs = measure_setup(workdir)
    tail, tail_pct = tail_latency(latencies) if latencies else (0.0, 0.0)
    measured = {
        "throughput_rps": len(latencies) / busy,
        "latency_p50_s": statistics.median(latencies) if latencies else 0.0,
        "latency_tail_s": tail,
        "setup_s": setup,
    }
    speed = host_speed(refs)
    setup_speed = host_speed(setup_refs)
    metrics = {
        "throughput_rps": measured["throughput_rps"] * speed,
        "latency_p50_s": measured["latency_p50_s"] / speed,
        "latency_tail_s": measured["latency_tail_s"] / speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup / setup_speed,
    }
    n = len(latencies)
    notes = {
        "throughput_rps": f"{n} successes in {busy:.3f} s of request time",
        "latency_p50_s": f"n={n}",
        "latency_tail_s": f"p{tail_pct:.1f}, n={n}",
        "peak_rss_mb": "whole benchmark process, this workload only",
        "setup_s": f"median of {len(setup_times)} spawns, "
                   f"range {min(setup_times):.4f}-{max(setup_times):.4f} s",
    }
    lines = [f"{'metric':<16} {'reported':>12} {'measured':>12} unit"]
    lines += [f"{name:<16} {value:>12.6g} {measured.get(name, value):>12.6g} "
              f"{END_TO_END[name]:<4} {notes[name]}"
              for name, value in metrics.items()]
    ratio = tally.failed / tally.attempted
    lines.append(f"{'failed_ratio':<16} {ratio:>12.6g} {ratio:>12.6g} {'1':<4} "
                 f"{tally.failed}/{tally.attempted} attempted")
    lines.append(f"host speed factor {speed:.4f} over the run ({len(refs)} reference "
                 f"samples: {_parts_text(refs)}), {setup_speed:.4f} over the setup "
                 f"spawns ({_parts_text(setup_refs)}); reported times are measured "
                 f"times divided by the factor, throughput multiplied by it")
    lines.extend(_probe_lines(probe))
    return tally, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, lines


def trimmed_mean(values, cut=0.1):
    """Mean of the values left after dropping `cut` of them at each end."""
    ordered = sorted(values)
    drop = int(cut * len(ordered))
    return statistics.fmean(ordered[drop:len(ordered) - drop])


def host_speed(samples):
    """Host slowdown against the reference host (1 = as fast, 2 = half as fast).

    The mean over the reference parts of each part's trimmed-mean time
    over its nominal time. The host switches between fast and slow spells
    of ~0.1-1 s, so a part's time is bimodal; its trimmed mean follows the
    share of slow spells smoothly where its median would jump between the
    two speeds.
    """
    return statistics.fmean(trimmed_mean([s[part] for s in samples]) / nominal
                            for part, nominal in reference.NOMINAL_S.items())


def _parts_text(samples):
    return ", ".join(f"{part} {trimmed_mean([s[part] for s in samples]):.4f} s"
                     for part in reference.NOMINAL_S)


def _probe_lines(probe):
    if probe is None:
        return []
    request, verdict, message = probe
    state = ("still failing: " + message) if verdict != "ok" else "passes now"
    return [f"known-defect probe (untimed, not counted): "
            f"{' '.join(request.argv)} -> {state}"]


def trace(cli, package, workload, seed, workdir):
    """Replay the stream's first requests plain, then traced, in pairs."""
    tally = Tally()
    warm_up(cli, workload, seed, workdir, tally)
    solved = []
    recorder = tracer.Tracer(package, on_return={
        "eigensolver.lowest_eigenvalues":
            lambda args, result: solved.append(
                (args[0].diagonal, args[0].off_diagonal, np.array(result)))})
    plain_s = traced_s = 0.0
    eigen_err = 0.0
    blocks = itertools.islice(WORKLOADS[workload][0](seed), TRACE_BLOCKS[workload])
    requests = itertools.chain.from_iterable(blocks)
    for i, request in enumerate(requests):
        plain_path = workdir / f"plain.{request.fmt}"
        traced_path = workdir / f"traced.{request.fmt}"
        plain = call_cli(cli, request, plain_path)
        recorder.install()
        recorder.begin_request(i)
        try:
            traced = call_cli(cli, request, traced_path)
        finally:
            recorder.uninstall()
        plain_s += plain.seconds
        traced_s += traced.seconds
        verdict, message = judge(request, plain, plain_path)
        if verdict == "ok":
            verdict, message = judge(request, traced, traced_path)
        if verdict == "ok" and plain_path.read_bytes() != traced_path.read_bytes():
            verdict, message = "wrong", "traced output differs from the plain one"
        for diagonal, off_diagonal, values in solved:
            eigen_err = max(eigen_err, oracles.eigen_error(diagonal, off_diagonal, values))
        solved.clear()
        tally.add(request, verdict, message)
        plain_path.unlink(missing_ok=True)
        traced_path.unlink(missing_ok=True)
    if eigen_err > oracles.EIGEN_TOL:
        tally.wrong += 1
        tally.messages.append(f"lowest_eigenvalues off LAPACK by {eigen_err:.3e}")
    probe = run_probe(cli, workload, seed, workdir)
    totals = tracer.aggregate(recorder.spans)
    metrics = layer_metrics(recorder.spans, totals, traced_s, traced_s / plain_s - 1.0)
    units = per_layer_units()
    lines = [f"{name:<42} {value:>14.6g} {units[name]}" for name, value in metrics.items()]
    lines.append(f"traced requests: {tally.attempted}, each run once plain and once traced")
    lines.extend(_trace_summary(recorder, totals, metrics, eigen_err))
    lines.extend(_probe_lines(probe))
    return tally, {k: (v, units[k]) for k, v in metrics.items()}, lines


def layer_metrics(spans, totals, request_s, overhead):
    metrics = {}
    for name in per_layer_units():
        span, _, field = name.rpartition(".")
        entry = totals.get(span, {})
        if field == "ns_per_row":
            value = 1e9 * entry.get("busy_s", 0.0) / max(entry.get("rows", 0), 1)
        elif field == "ns_per_step":
            value = 1e9 * entry.get("busy_s", 0.0) / max(entry.get("steps", 0), 1)
        elif field == "errors" and span in MODULES:
            value = sum(t["errors"] for key, t in totals.items()
                        if key.startswith(span + "."))
        else:
            value = entry.get(field, 0)
        metrics[name] = value
    levels = totals.get("eigensolver.lowest_eigenvalues", {}).get("levels", 0)
    metrics["eigensolver.sturm_calls_per_level"] = (
        tracer.sturm_calls_under(spans, "eigensolver.lowest_eigenvalues")
        / max(levels, 1))
    metrics["trace.request_s"] = request_s
    metrics["trace.overhead_ratio"] = overhead
    return metrics


def _trace_summary(recorder, totals, metrics, eigen_err):
    top = sorted(totals.items(), key=lambda item: -item[1]["self_s"])[:5]
    lines = ["largest self times: " + ", ".join(
        f"{name} {entry['self_s']:.4f} s" for name, entry in top)]
    lines.append(f"kernels.sturm_count.busy_s is "
                 f"{100.0 * metrics['kernels.sturm_count.busy_s'] / metrics['trace.request_s']:.1f}% "
                 f"of traced request time")
    if metrics["eigensolver.lowest_eigenvalues.calls"]:
        lines.append(f"lowest_eigenvalues vs scipy eigh_tridiagonal: max |diff| "
                     f"{eigen_err:.3e} (bound {oracles.EIGEN_TOL:g})")
    if recorder.missing_sites:
        lines.append("lookup sites not found: " + ", ".join(recorder.missing_sites))
    return lines


def run_one(args):
    import lienardqm
    import lienardqm.cli as cli
    if Path(lienardqm.__file__).resolve().parent != SRC / "lienardqm":
        sys.exit(f"imported lienardqm from {lienardqm.__file__}, not {SRC}")
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tally, metrics, lines = trace(cli, lienardqm, args.workload, args.seed,
                                          workdir)
        else:
            tally, metrics, lines = measure(cli, args.workload, args.seed,
                                            args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()  # only if no other run is using it
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  backend {lienardqm.kernel_backend}")
    print("\n".join(lines + tally.messages))
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Each workload in its own process (so peak RSS is per workload)."""
    results = {}
    status = 0
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(child.stdout, end="", flush=True)
        if child.returncode != 0:
            status = child.returncode
            continue
        results[workload] = json.loads(child.stdout.splitlines()[-1])
    print(f"\n{'metric':<42}" + "".join(f"{w:>14}" for w in results))
    for name in per_layer_units() if args.trace else END_TO_END:
        print(f"{name:<42}" + "".join(
            f"{r['metrics'][name]['value']:>14.6g}" for r in results.values()))
    print(f"{'failed/attempted':<42}" + "".join(
        f"{str(r['failed']) + '/' + str(r['attempted']):>14}" for r in results.values()))
    print(json.dumps(results))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "lienardqm" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a lienardqm checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
