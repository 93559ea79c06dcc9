"""Small shared numerical helpers.

A geometric grid built in one array, composite Gauss-Legendre cells by the
one 12-point rule (every quadrature of the package uses it: the integrands
are smooth and the cells geometrically thin; the callers integrate power laws
in closed form instead), and one least-squares line fit, which the
log-log fit also uses.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "geometric_grid", "cell_integrals", "interval_integrals", "gauss_table", "line_fit", "log_log_fit",
]

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
    f: Callable[[np.ndarray], np.ndarray],
    edges: np.ndarray,
    out: np.ndarray | None = None,
    *,
    table: np.ndarray | None = None,
) -> np.ndarray:
    """Integral of ``f`` over each cell of the increasing edge array ``edges``,
    written into ``out`` when it is given, and read from ``table`` when it is
    given (see :func:`interval_integrals`)."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise DomainError("cell_integrals needs at least two edges")
    return interval_integrals(f, edges[:-1], edges[1:], out=out, table=table)


def interval_integrals(
    f, a, b, out: np.ndarray | None = None, *, table: np.ndarray | None = None
) -> np.ndarray:
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
    by every block.  Given a ``table`` of some g at the Gauss points of these
    intervals (see :func:`gauss_table`), ``f`` is called with each block's
    values of g in place of its points, which are then not built.  The rows
    of ``f``'s result (which must be a new array) are scaled by the weights in
    place and added up one after another, so each interval is summed in the
    same order whatever its batch or block.
    """
    a, b = _intervals(a, b)
    if out is None:
        out = np.empty(a.shape)
    elif out.shape != a.shape or out.dtype != float:
        raise DomainError(
            f"interval_integrals writes {a.shape} floats, got out of {out.shape} {out.dtype}"
        )
    n = _NODES.size
    if table is not None and table.shape != (n * a.size,):
        raise DomainError(f"interval_integrals reads {n * a.size} tabled values, got {table.shape}")
    for cells, half, pts in _gauss_blocks(a, b, points=table is None):
        at = pts.reshape(-1) if table is None else table[n * cells.start : n * cells.stop]
        vals = np.asarray(f(at), dtype=float).reshape(n, -1)
        np.multiply(half, _weighted_rows(vals), out=out[cells])
        # free this block's values before f makes the next block's
        del vals
    return out


def gauss_table(g, a, b) -> np.ndarray:
    """g at the 12-point Gauss points of each interval [a_i, b_i], in the
    layout :func:`interval_integrals` reads as its ``table``: block after
    block of at most _BLOCK intervals, each node-major.  ``g`` is called once
    per block, on the points interval_integrals would pass an integrand."""
    a, b = _intervals(a, b)
    n = _NODES.size
    table = np.empty(n * a.size)
    for cells, _, pts in _gauss_blocks(a, b):
        table[n * cells.start : n * cells.stop] = g(pts.reshape(-1))
    return table


def _intervals(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The float arrays a (at least 1-D) and b, broadcast together when their shapes differ."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    return a, b


def _gauss_blocks(a: np.ndarray, b: np.ndarray, points: bool = True):
    """For each block of at most _BLOCK of the intervals [a_i, b_i]: its slice,
    its half-widths and, when ``points``, its Gauss points node-major, one row
    of the block's intervals per node (else None).  Every block is built in
    the same scratch arrays."""
    block = max(1, min(_BLOCK, a.size))
    half_buf = np.empty(block)
    if points:
        mid_buf, pts_buf = np.empty(block), np.empty(_NODES.size * block)
    for start in range(0, a.size, block):
        lo, hi = a[start : start + block], b[start : start + block]
        half = half_buf[: lo.size]
        np.subtract(hi, lo, out=half)
        half *= 0.5
        pts = None
        if points:
            mid = mid_buf[: lo.size]
            np.add(lo, hi, out=mid)
            mid *= 0.5
            pts = pts_buf[: _NODES.size * lo.size].reshape(_NODES.size, lo.size)
            np.multiply(half, _NODES[:, None], out=pts)
            pts += mid
        yield slice(start, start + lo.size), half, pts


def _weighted_rows(vals: np.ndarray) -> np.ndarray:
    """sum_k w_k vals[k] over the Gauss weights w_k, scaling the rows in place
    and adding them one after another into the first."""
    vals *= _WEIGHTS[:, None]
    total = vals[0]
    for row in vals[1:]:
        total += row
    return total


def line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares (slope, intercept) of y against x.

    Closed form about the means: slope = sum(dx dy) / sum(dx^2) with dx, dy
    the centered data.  Requires at least two distinct abscissae.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size < 2:
        raise DomainError("line fit needs at least two samples")
    # np.ptp(x) and x.mean(), y.mean(), bit for bit, without their Python wrappers
    if x.max() - x.min() <= 0.0:
        raise DomainError("line fit abscissae are degenerate (zero spread)")
    mx, my = x.sum() / x.size, y.sum() / y.size
    dx = x - mx
    # numpy's pairwise sums, not a BLAS dot: no thread start-up, and the same
    # rounding whatever the thread count
    slope = (dx * (y - my)).sum() / (dx * dx).sum()
    return float(slope), float(my - slope * mx)


def log_log_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares (slope, intercept) of log y against log x, by :func:`line_fit`.

    Requires strictly positive data and at least two distinct abscissae.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if (x <= 0.0).any() or (y <= 0.0).any():
        raise DomainError("log_log_fit needs strictly positive data")
    return line_fit(np.log(x), np.log(y))
