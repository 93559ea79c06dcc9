"""Small shared numerical helpers.

Geometric grids built in one array, composite Gauss-Legendre cells (used by
the radial solver and the discrete energy weights, where the integrand is
smooth and the cells are geometrically thin), the a-priori choice of their
order for power-law integrands, and a least-squares slope fit in log-log
coordinates.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError

__all__ = ["geometric_grid", "gauss_order", "cell_integrals", "interval_integrals", "log_log_fit"]

# Orders 2..12 of the Gauss-Legendre rule; 12 points are exact through degree
# 23, which makes a single panel per geometric cell effectively exact for
# analytic integrands, and is the rule of every integrand without a bound.
MIN_ORDER = 2
MAX_ORDER = 12
_BLOCK_POINTS = 4096 * MAX_ORDER  # integrand points per evaluation
_TARGET = float(np.finfo(float).eps) / 4.0  # relative truncation error gauss_order aims for
_rule = functools.cache(leggauss)  # (nodes, weights) of the order-point rule, shared read-only


def geometric_grid(start: float, stop: float, num: int) -> np.ndarray:
    """``np.geomspace(start, stop, num)`` bit for bit, for 0 < start and
    0 < stop, built in the one array it returns.

    The steps are numpy's: y_k = log10(start) + k (log10(stop) -
    log10(start)) / (num - 1), then 10**y, then both ends pinned to ``start``
    and ``stop``; np.geomspace takes three arrays of ``num`` floats for them.
    """
    log_start, log_stop = np.log10(float(start)), np.log10(float(stop))
    y = np.arange(num, dtype=float)
    if num > 1:
        y *= (log_stop - log_start) / (num - 1)
    y += log_start
    np.power(10.0, y, out=y)
    y[-1] = stop
    y[0] = start
    return y


def gauss_order(gamma: float, ratio: float) -> int:
    """Smallest Gauss-Legendre order in 2..12 that integrates r^gamma to eps/4.

    The bound is for one cell [a, ratio a]: the n-point error is
    C_n (b-a)^(2n+1) f^(2n)(xi) with C_n = (n!)^4 / ((2n+1) ((2n)!)^3), and
    f^(2n) = gamma (gamma-1) ... (gamma-2n+1) r^(gamma-2n), while the integral
    is at least (b-a) a^gamma min(1, ratio^gamma).  The relative error is thus
    at most

        C_n |gamma (gamma-1) ... (gamma-2n+1)| (ratio-1)^(2n)
            max(1, ratio^(gamma-2n)) / min(1, ratio^gamma),

    whatever a is, and it only shrinks on a sub-cell.  Order 12 is returned
    when no order meets the target.
    """
    gamma, ratio = float(gamma), float(ratio)
    if not (math.isfinite(gamma) and math.isfinite(ratio) and ratio > 1.0):
        raise DomainError(
            f"gauss_order needs a finite gamma and a cell ratio > 1, got {gamma}, {ratio}"
        )
    log_ratio = math.log(ratio)
    log_width = math.log(ratio - 1.0)
    log_target = math.log(_TARGET)
    log_falling = 0.0
    for n in range(1, MAX_ORDER + 1):
        for k in (2 * n - 2, 2 * n - 1):
            if gamma == k:  # r^gamma is a polynomial of degree < 2n: exact
                return max(n, MIN_ORDER)
            log_falling += math.log(abs(gamma - k))
        if n < MIN_ORDER:
            continue
        log_c = 4 * math.lgamma(n + 1) - math.log(2 * n + 1) - 3 * math.lgamma(2 * n + 1)
        log_bound = (
            log_c
            + log_falling
            + 2 * n * log_width
            + max(0.0, (gamma - 2 * n) * log_ratio)
            - min(0.0, gamma * log_ratio)
        )
        if log_bound <= log_target:
            return n
    return MAX_ORDER


def cell_integrals(
    f: Callable[[np.ndarray], np.ndarray],
    edges: np.ndarray,
    order: int = MAX_ORDER,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Integral of ``f`` over each cell of the increasing edge array ``edges``,
    written into ``out`` when it is given (see :func:`interval_integrals`)."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise DomainError("cell_integrals needs at least two edges")
    return interval_integrals(f, edges[:-1], edges[1:], order, out=out)


def interval_integrals(
    f, a, b, order: int = MAX_ORDER, out: np.ndarray | None = None
) -> np.ndarray:
    """Integral of ``f`` over each interval [a_i, b_i] (broadcast over arrays),
    by the ``order``-point Gauss-Legendre rule.

    The integrals go into ``out`` when it is given, a float array of the
    broadcast shape (a view such as ``suffix[:-1]`` will do), which is
    returned; else into a new array.  The bits are the same either way.

    ``f`` is called once per block of at most _BLOCK_POINTS points, so the
    temporaries of a call are bounded by the block, not by the batch or the
    order, and a low order takes more intervals per call of ``f``.  One call
    per block, not one per Gauss node, matters: an integrand such as the
    coarea slab check's inverts levels on every call.  A block is laid out
    node-major, one row of intervals per Gauss node, so every numpy loop runs
    along a row; the points are built in one scratch array reused by every
    block.  The rows of ``f``'s result (which must be a new array) are scaled
    by the weights in place and added up one after another, so each interval
    is summed in the same order whatever its batch or block.
    """
    nodes, weights = _rule(order)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    a, b = np.broadcast_arrays(a, np.asarray(b, dtype=float))
    if out is None:
        out = np.empty(a.shape)
    elif out.shape != a.shape or out.dtype != float:
        raise DomainError(
            f"interval_integrals writes {a.shape} floats, got out of {out.shape} {out.dtype}"
        )
    block = max(1, min(_BLOCK_POINTS // order, a.size))
    mid_buf, half_buf, pts_buf = np.empty(block), np.empty(block), np.empty(order * block)
    for start in range(0, a.size, block):
        lo, hi = a[start : start + block], b[start : start + block]
        mid, half = mid_buf[: lo.size], half_buf[: lo.size]
        pts = pts_buf[: order * lo.size].reshape(order, lo.size)
        np.add(lo, hi, out=mid)
        mid *= 0.5
        np.subtract(hi, lo, out=half)
        half *= 0.5
        np.multiply(half, nodes[:, None], out=pts)
        pts += mid
        vals = np.asarray(f(pts.reshape(-1)), dtype=float).reshape(pts.shape)
        np.multiply(half, _weighted_rows(vals, weights), out=out[start : start + block])
        # free this block's values before f makes the next block's
        del vals
    return out


def _weighted_rows(vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights[k] vals[k], scaling the rows in place and adding them one
    after another into the first."""
    vals *= weights[:, None]
    total = vals[0]
    for row in vals[1:]:
        total += row
    return total


def log_log_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares (slope, intercept) of log y against log x.

    Closed form about the means: slope = sum(dx dy) / sum(dx^2) with dx, dy
    the centered logs.  Requires strictly positive data and at least two
    distinct abscissae.
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
    mx, my = lx.mean(), ly.mean()
    dx = lx - mx
    # numpy's pairwise sums, not a BLAS dot: no thread start-up, and the same
    # rounding whatever the thread count
    slope = np.sum(dx * (ly - my)) / np.sum(dx * dx)
    return float(slope), float(my - slope * mx)
