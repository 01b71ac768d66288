"""Self-contained special functions: log-gamma, associated Laguerre and
Hermite polynomials, and composite Gauss-Legendre quadrature.

Everything here is dependency-free on purpose (numpy is used only as array
plumbing): the rest of the package leans on these primitives for
normalization constants, eigenfunction evaluation and integral oracles.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

# Lanczos series, g = 4.7421875 (the 14-coefficient set, ~1e-15 relative
# accuracy on Gamma over the positive axis).
_LANCZOS_C0 = 0.999999999999997092
_LANCZOS = (
    57.1562356658629235, -59.5979603554754912,
    14.1360979747417471, -0.491913816097620199,
    0.339946499848118887e-4, 0.465236289270485756e-4,
    -0.983744753048795646e-4, 0.158088703224912494e-3,
    -0.210264441724104883e-3, 0.217439618115212643e-3,
    -0.164318106536763890e-3, 0.844182239838527433e-4,
    -0.261908384015814087e-4, 0.368991826595316234e-5,
)
_SQRT_2PI = 2.5066282746310005


def log_gamma(x):
    """Natural log of Gamma(x) for x > 0."""
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    tmp = x + 5.24218750000000000
    tmp = (x + 0.5) * math.log(tmp) - tmp
    ser = _LANCZOS_C0
    y = x
    for c in _LANCZOS:
        y += 1.0
        ser += c / y
    return tmp + math.log(_SQRT_2PI * ser / x)


def log_factorial(n):
    """log(n!) for integer n >= 0."""
    if n < 0:
        raise DomainError(f"log_factorial requires n >= 0, got {n}")
    return log_gamma(n + 1.0)


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


@lru_cache(maxsize=None)
def gauss_legendre(order):
    """Gauss-Legendre nodes and weights on [-1, 1].

    Newton iteration on the Legendre recurrence; symmetric to machine
    precision. Returns immutable (nodes, weights) float tuples.
    """
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order}")
    nodes = np.empty(order)
    weights = np.empty(order)
    m = (order + 1) // 2
    for i in range(m):
        # Tricomi initial guess for the i-th root of P_order.
        z = math.cos(math.pi * (i + 0.75) / (order + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, z
            for j in range(2, order + 1):
                p0, p1 = p1, ((2 * j - 1) * z * p1 - (j - 1) * p0) / j
            dp = order * (z * p1 - p0) / (z * z - 1.0)
            dz = p1 / dp
            z -= dz
            if abs(dz) < 1e-15:
                break
        nodes[i] = -z
        nodes[order - 1 - i] = z
        w = 2.0 / ((1.0 - z * z) * dp * dp)
        weights[i] = w
        weights[order - 1 - i] = w
    return tuple(nodes), tuple(weights)


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
    base_x, base_w = (np.asarray(v) for v in gauss_legendre(order))
    width = y_max / panels
    starts = width * np.arange(panels)
    nodes = (starts[:, None] + 0.5 * width * (base_x[None, :] + 1.0)).ravel()
    weights = np.broadcast_to(0.5 * width * base_w, (panels, order)).ravel().copy()
    return nodes, weights


def integrate_sampled(f, y_max, panels, order):
    """Integral of f over [0, y_max] with the composite rule (test oracle)."""
    nodes, weights = quadrature_nodes(y_max, panels, order)
    return float(np.dot(weights, f(nodes)))


def weighted_laguerre_cutoff(alpha, n):
    """Truncation point for integrals against y**alpha * exp(-y) * L_n**2.

    max(200, 2*alpha + 40*n + 100) leaves a tail below ~1e-13 of the
    integral at the scales used here.
    """
    return max(200.0, 2.0 * alpha + 40.0 * n + 100.0)
