"""Small shared numerical helpers.

Composite fixed-order Gauss cells (used by the radial solver and the discrete
energy weights, where the integrand is smooth and the cells are geometrically
thin) and a least-squares slope fit in log-log coordinates.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = ["cell_integrals", "interval_integrals", "log_log_fit"]

# 12-point Gauss-Legendre rule on [-1, 1]; exactness through degree 23 makes a
# single panel per geometric cell effectively exact for analytic integrands.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_BLOCK = 4096  # intervals per evaluation of the integrand


def cell_integrals(f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray) -> np.ndarray:
    """Integral of ``f`` over each cell of the increasing edge array ``edges``."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise DomainError("cell_integrals needs at least two edges")
    return interval_integrals(f, edges[:-1], edges[1:])


def interval_integrals(f, a, b) -> np.ndarray:
    """Integral of ``f`` over each interval [a_i, b_i] (broadcast over arrays).

    ``f`` is called on the Gauss points of at most _BLOCK intervals at a time,
    so the temporaries of a call are bounded by the block, not by the batch.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    a, b = np.broadcast_arrays(a, np.asarray(b, dtype=float))
    out = np.empty(a.shape)
    for start in range(0, a.size, _BLOCK):
        lo, hi = a[start : start + _BLOCK], b[start : start + _BLOCK]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        vals = np.asarray(f(pts.reshape(-1)), dtype=float).reshape(pts.shape)
        # einsum sums each row in the same order whatever the number of rows (a
        # BLAS gemv does not), so an interval's integral does not depend on its
        # batch or its block
        out[start : start + _BLOCK] = half * np.einsum("ij,j->i", vals, _GL_WEIGHTS)
    return out


def log_log_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares (slope, intercept) of log y against log x.

    Requires strictly positive data and at least two distinct abscissae.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise DomainError("log_log_fit needs at least two samples")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise DomainError("log_log_fit needs strictly positive data")
    lx = np.log(x)
    ly = np.log(y)
    if np.ptp(lx) <= 0.0:
        raise DomainError("log_log_fit abscissae are degenerate (zero spread)")
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept)
