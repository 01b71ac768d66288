#!/usr/bin/env python3
"""Benchmark the compiled kernels against their pure-Python twins.

Times the two sequential hot loops on workloads matching real use:
  - Sturm sign counts on the spectral operator's tridiagonal matrix
    (the inner loop of every eigenvalue bisection step), each backend
    reading the rows of its own sturm_rows, formed once per matrix as
    TridiagonalOperator does, and
  - fixed-step RK4 integration of the oscillator over one period.
The C column appears when the extension was built
(python setup.py build_ext --inplace).

Run:  PYTHONPATH=src python benchmarks/bench_kernels.py
"""

import time

import numpy as np

from lienardqm.eigensolver import YGrid, build_operator, lowest_eigenvalues
from lienardqm.kernels import BACKEND, pykernels
from lienardqm.params import AmbiguityParams, PhysicalParams

PHYS = PhysicalParams(omega=1.0, k=1.0)
AMB = AmbiguityParams(alpha=19.0, gamma=1.0)


def _time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_sturm(backend, n_points, repeats=20):
    op = build_operator(PHYS, AMB, YGrid(y_max=150.0, n_points=n_points))
    a, b2 = backend.sturm_rows(op.diagonal, op.off_diagonal)
    return _time(lambda: backend.sturm_count(a, b2, 3.75), repeats)


def bench_rk4(backend, steps, repeats=5):
    return _time(lambda: backend.rk4_lienard(1.0, 1.0, 0.0, 1.5,
                                             2 * np.pi / steps, steps),
                 repeats)


def bench_pipeline(n_points, repeats=3):
    # full 4-eigenvalue bisection with whichever backend is active
    op = build_operator(PHYS, AMB, YGrid(y_max=150.0, n_points=n_points))
    return _time(lambda: lowest_eigenvalues(op, 4), repeats)


def main():
    backends = {"python": pykernels}
    try:
        from lienardqm.kernels import _ckernels
        backends["c"] = _ckernels
    except ImportError:
        pass
    print(f"backends available: {', '.join(backends)}")
    print()
    print(f"{'kernel':<28} {'size':>8}" + "".join(
        f" {name + ' [ms]':>14}" for name in backends) + "  speedup")
    rows = [
        ("sturm_count", 6000, bench_sturm),
        ("sturm_count", 12001, bench_sturm),
        ("rk4_lienard", 6283, bench_rk4),
        ("rk4_lienard", 62832, bench_rk4),
    ]
    for label, size, fn in rows:
        times = {name: fn(backend, size) for name, backend in backends.items()}
        speed = (f"{times['python'] / times['c']:.1f}x"
                 if len(times) == 2 else "-")
        print(f"{label:<28} {size:>8}" + "".join(
            f" {1e3 * times[name]:>14.3f}" for name in backends) + f"  {speed}")
    print()
    active = bench_pipeline(6000)
    print(f"lowest_eigenvalues(count=4, N=6000) with the {BACKEND} backend: "
          f"{1e3 * active:.1f} ms")


if __name__ == "__main__":
    main()
