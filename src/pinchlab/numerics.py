"""Small shared numerical helpers.

Geometric grids built in one array, composite Gauss-Legendre cells by the one
12-point rule (every quadrature of the package uses it: the integrands are
smooth and the cells geometrically thin; the callers integrate power laws in
closed form instead), and a least-squares slope fit in log-log coordinates.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = ["geometric_grid", "cell_integrals", "interval_integrals", "log_log_fit"]

# The 12-point Gauss-Legendre rule, exact through degree 23, which makes a
# single panel per geometric cell effectively exact for analytic integrands.
# Its positive nodes (ascending) and their weights are those of
# numpy.polynomial.legendre.leggauss(12), bit for bit: its nodes are exactly
# antisymmetric and its weights exactly symmetric.  Importing numpy.polynomial
# for leggauss alone would cost every process a few milliseconds.
_HALF_NODES = np.array([
    0.1252334085114689, 0.3678314989981802, 0.5873179542866175, 0.7699026741943047,
    0.9041172563704748, 0.9815606342467192,
])
_HALF_WEIGHTS = np.array([
    0.2491470458134027, 0.2334925365383546, 0.20316742672306573, 0.16007832854334642,
    0.10693932599531907, 0.04717533638651141,
])
_NODES = np.concatenate([-_HALF_NODES[::-1], _HALF_NODES])
_WEIGHTS = np.concatenate([_HALF_WEIGHTS[::-1], _HALF_WEIGHTS])
_NODES.flags.writeable = _WEIGHTS.flags.writeable = False
_BLOCK = 4096  # intervals per evaluation of the integrand


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


def cell_integrals(
    f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Integral of ``f`` over each cell of the increasing edge array ``edges``,
    written into ``out`` when it is given (see :func:`interval_integrals`)."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise DomainError("cell_integrals needs at least two edges")
    return interval_integrals(f, edges[:-1], edges[1:], out=out)


def interval_integrals(f, a, b, out: np.ndarray | None = None) -> np.ndarray:
    """Integral of ``f`` over each interval [a_i, b_i] (broadcast over arrays),
    by the 12-point Gauss-Legendre rule.

    The integrals go into ``out`` when it is given, a float array of the
    broadcast shape (a view such as ``suffix[:-1]`` will do), which is
    returned; else into a new array.  The bits are the same either way.

    ``f`` is called once per block of at most _BLOCK intervals (12 _BLOCK
    points), so the temporaries of a call are bounded by the block, not by the
    batch.  One call per block, not one per Gauss node, matters: an integrand
    such as the coarea slab check's inverts levels on every call.  A block is
    laid out node-major, one row of intervals per Gauss node, so every numpy
    loop runs along a row; the points are built in one scratch array reused
    by every block.  The rows of ``f``'s result (which must be a new array)
    are scaled by the weights in place and added up one after another, so
    each interval is summed in the same order whatever its batch or block.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    a, b = np.broadcast_arrays(a, np.asarray(b, dtype=float))
    if out is None:
        out = np.empty(a.shape)
    elif out.shape != a.shape or out.dtype != float:
        raise DomainError(
            f"interval_integrals writes {a.shape} floats, got out of {out.shape} {out.dtype}"
        )
    block = max(1, min(_BLOCK, a.size))
    mid_buf, half_buf, pts_buf = np.empty(block), np.empty(block), np.empty(_NODES.size * block)
    for start in range(0, a.size, block):
        lo, hi = a[start : start + block], b[start : start + block]
        mid, half = mid_buf[: lo.size], half_buf[: lo.size]
        pts = pts_buf[: _NODES.size * lo.size].reshape(_NODES.size, lo.size)
        np.add(lo, hi, out=mid)
        mid *= 0.5
        np.subtract(hi, lo, out=half)
        half *= 0.5
        np.multiply(half, _NODES[:, None], out=pts)
        pts += mid
        vals = np.asarray(f(pts.reshape(-1)), dtype=float).reshape(pts.shape)
        np.multiply(half, _weighted_rows(vals), out=out[start : start + block])
        # free this block's values before f makes the next block's
        del vals
    return out


def _weighted_rows(vals: np.ndarray) -> np.ndarray:
    """sum_k w_k vals[k] over the Gauss weights w_k, scaling the rows in place
    and adding them one after another into the first."""
    vals *= _WEIGHTS[:, None]
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
