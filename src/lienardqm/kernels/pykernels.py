"""Pure-Python kernels.

Reference implementations of the two sequential hot loops. The compiled
twin in _ckernels.c performs the same arithmetic in the same order, so
both backends produce identical floating-point results and raise the same
OverflowError when x ** 3 overflows.

The Sturm sweep reads rows that each backend forms once per matrix with
its own sturm_rows: Python float lists here, which the loop iterates
fastest, and float64 buffers in the C twin. Pass a backend's sturm_count
the rows of the same backend's sturm_rows.
"""

import numpy as np

BACKEND_NAME = "python"

# Pivot floor for the Sturm recurrence; keeps the LDL^T sweep finite when a
# shift hits an eigenvalue of a leading submatrix exactly.
_PIVOT_FLOOR = 1e-300


def sturm_rows(diag, off):
    """The rows sturm_count reads, formed once per matrix: a_i as Python
    floats, and b_{i-1}^2 with 0 for row 0 (b * b elementwise in numpy, the
    same IEEE product the C twin's sturm_rows forms)."""
    e = np.asarray(off, dtype=np.float64)
    return (np.asarray(diag, dtype=np.float64).tolist(),
            [0.0] + (e * e).tolist())


def sturm_count(a, b2, shift):
    """Number of eigenvalues of a symmetric tridiagonal matrix below shift.

    Runs the classic LDL^T sign sweep over the rows of sturm_rows:
    d_i = (a_i - shift) - b_{i-1}^2/d_{i-1}, with b2[0] = 0 and d_{-1} = 1
    so that row 0 gives a_0 - shift. The count of negative pivots equals
    the count of eigenvalues < shift. A pivot that lands exactly on zero is
    nudged negative, so exact ties count as below (the usual pivmin
    convention; bisection is unaffected).

    The loop does two subtractions and one division per row over plain
    Python floats. shift is coerced to float first: a numpy scalar would
    make every row a numpy-scalar operation.
    """
    if len(b2) < len(a):
        raise IndexError("squared off-diagonal rows shorter than diagonal")
    shift = float(shift)
    floor = -_PIVOT_FLOOR
    q = 1.0
    count = 0
    for a_i, b_prev in zip(a, b2):
        q = (a_i - shift) - b_prev / q
        if q < 0.0:
            count += 1
        elif q == 0.0:
            q = floor
            count += 1
    return count


def rk4_lienard(k, omega, x0, v0, step, n_steps):
    """Fixed-step RK4 integration of x'' + k x x' + (k^2/9) x^3 + omega^2 x = 0.

    Returns (xs, vs) arrays of length n_steps + 1 including the initial state.
    """
    kk9 = k * k / 9.0
    w2 = omega * omega
    xs = np.empty(n_steps + 1)
    vs = np.empty(n_steps + 1)
    x = float(x0)
    v = float(v0)
    xs[0] = x
    vs[0] = v
    h = float(step)
    # loop invariants, each the same IEEE operation the C twin takes in
    # every step: Python evaluates -k * x * v as (-k * x) * v, and likewise
    # 0.5 * h * v and h / 6.0 * (...)
    mk = -k
    half_h = 0.5 * h
    sixth_h = h / 6.0
    for i in range(1, n_steps + 1):
        a1 = mk * x * v - kk9 * x ** 3 - w2 * x
        x2 = x + half_h * v
        v2 = v + half_h * a1
        a2 = mk * x2 * v2 - kk9 * x2 ** 3 - w2 * x2
        x3 = x + half_h * v2
        v3 = v + half_h * a2
        a3 = mk * x3 * v3 - kk9 * x3 ** 3 - w2 * x3
        x4 = x + h * v3
        v4 = v + h * a3
        a4 = mk * x4 * v4 - kk9 * x4 ** 3 - w2 * x4
        x += sixth_h * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v += sixth_h * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        xs[i] = x
        vs[i] = v
    return xs, vs
