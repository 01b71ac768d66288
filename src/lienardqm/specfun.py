"""Special functions that Python and numpy lack: associated Laguerre and
Hermite polynomials, and a composite Gauss-Legendre rule on numpy's
`leggauss`. Log-gamma is `math.lgamma`. The package uses these for
eigenfunction evaluation and integral oracles.
"""

import numpy as np

from .errors import DomainError


def laguerre_assoc(n, alpha, y):
    """Associated Laguerre polynomial L_n^alpha(y) by the three-term recurrence.

    Stable upward recurrence in the degree,
        (m+1) L_{m+1} = (2m + 1 + alpha - y) L_m - (m + alpha) L_{m-1},
    seeded with L_0 = 1 and L_1 = 1 + alpha - y. Accepts scalar or array y.
    """
    if n < 0:
        raise DomainError(f"laguerre_assoc requires n >= 0, got {n}")
    y = np.asarray(y, dtype=float)
    prev = np.ones_like(y)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + alpha - y
    for m in range(1, n):
        prev, cur = cur, ((2 * m + 1 + alpha - y) * cur - (m + alpha) * prev) / (m + 1)
    return cur if cur.ndim else float(cur)


def hermite(n, x):
    """Physicists' Hermite polynomial H_n(x): H_{m+1} = 2x H_m - 2m H_{m-1}."""
    if n < 0:
        raise DomainError(f"hermite requires n >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = 2.0 * x
    for m in range(1, n):
        prev, cur = cur, 2.0 * x * cur - 2.0 * m * prev
    return cur if cur.ndim else float(cur)


def quadrature_nodes(y_max, panels, order):
    """Composite Gauss-Legendre rule on [0, y_max].

    panels >= 1 equal subintervals, each carrying a Gauss-Legendre rule of
    the given order (4..16). Weights are positive and sum to y_max.
    """
    if not y_max > 0.0:
        raise ValueError(f"y_max must be > 0, got {y_max}")
    if panels < 1:
        raise ValueError(f"panels must be >= 1, got {panels}")
    if not 4 <= order <= 16:
        raise ValueError(f"order must be in 4..16, got {order}")
    # imported here so that loading the CLI does not load numpy.polynomial
    from numpy.polynomial.legendre import leggauss
    base_x, base_w = leggauss(order)
    width = y_max / panels
    starts = width * np.arange(panels)
    nodes = (starts[:, None] + 0.5 * width * (base_x[None, :] + 1.0)).ravel()
    weights = np.broadcast_to(0.5 * width * base_w, (panels, order)).ravel().copy()
    return nodes, weights


def weighted_laguerre_cutoff(alpha, n):
    """Truncation point for integrals against y**alpha * exp(-y) * L_n**2.

    max(200, 2*alpha + 40*n + 100) leaves a tail below ~1e-13 of the
    integral at the scales used here.
    """
    return max(200.0, 2.0 * alpha + 40.0 * n + 100.0)
