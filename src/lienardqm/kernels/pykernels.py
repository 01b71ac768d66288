"""Pure-Python kernels.

Reference implementations of the two sequential hot loops. The compiled
twin in _ckernels.c performs the same arithmetic in the same order, so
both backends produce identical floating-point results and raise the same
OverflowError when x ** 3 overflows.
"""

import numpy as np

BACKEND_NAME = "python"

# Pivot floor for the Sturm recurrence; keeps the LDL^T sweep finite when a
# shift hits an eigenvalue of a leading submatrix exactly.
_PIVOT_FLOOR = 1e-300


def sturm_count(diag, off, shift):
    """Number of eigenvalues of a symmetric tridiagonal matrix below shift.

    Runs the classic LDL^T sign sweep: d_i = (a_i - shift) - b_{i-1}^2/d_{i-1};
    the count of negative pivots equals the count of eigenvalues < shift.
    A pivot that lands exactly on zero is nudged negative, so exact ties
    count as below (the usual pivmin convention; bisection is unaffected).

    a_i - shift and b_i * b_i are formed once, elementwise in numpy (the
    same IEEE operations as in the loop), so the loop does one subtraction
    and one division per row over plain Python floats.
    """
    a = (np.asarray(diag, dtype=np.float64) - float(shift)).tolist()
    e = np.asarray(off, dtype=np.float64)
    # row 0 has no b_{-1}: with b = 0 and q = 1 its pivot is a_0 - 0/1 = a_0
    b = [0.0] + (e * e).tolist()
    if len(b) < len(a):
        raise IndexError("off-diagonal shorter than diagonal - 1")
    floor = -_PIVOT_FLOOR
    q = 1.0
    count = 0
    for a_i, b_prev in zip(a, b):
        q = a_i - b_prev / q
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
    for i in range(1, n_steps + 1):
        a1 = -k * x * v - kk9 * x ** 3 - w2 * x
        x2 = x + 0.5 * h * v
        v2 = v + 0.5 * h * a1
        a2 = -k * x2 * v2 - kk9 * x2 ** 3 - w2 * x2
        x3 = x + 0.5 * h * v2
        v3 = v + 0.5 * h * a2
        a3 = -k * x3 * v3 - kk9 * x3 ** 3 - w2 * x3
        x4 = x + h * v3
        v4 = v + h * a3
        a4 = -k * x4 * v4 - kk9 * x4 ** 3 - w2 * x4
        x += h / 6.0 * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v += h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        xs[i] = x
        vs[i] = v
    return xs, vs
