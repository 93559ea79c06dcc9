"""Radial p-harmonic exterior potentials in closed quadrature form.

On a rotationally symmetric manifold the p-harmonic equation for a radial
function reduces to a conserved flux: h(r)^2 |u'(r)|^(p-1) is constant.  The
capacitary potential with u = 1 on the sphere {r = r0} and u -> 0 at infinity
is therefore

    u(r) = I(r) / I(r0),      I(r) = integral_r^inf h(s)^(-2/(p-1)) ds,

For a warp that declares a power law h = c r^beta, I has the closed form

    I(r) = c^(-q) r^(1 - q beta) / (q beta - 1),      q = 2/(p-1),

which this module evaluates at every radius it needs, grid nodes and off-grid
radii alike (:class:`_PowerLawPotential`).  Any other warp is integrated by
composite Gauss quadrature on a geometric grid, plus the same closed form for
a power law fitted to the outer decade as the tail beyond the truncation
radius (:class:`_CellFluxPotential`); h at the Gauss points and the fit do not depend
on p, so the model keeps them (:class:`_WarpGrid`) and a new p pays only for
h^(-q).  :func:`solve_radial` chooses between the two kinds once.  The level
parameter of the potential is

    w = -(p-1) log u,   t = w(r),   w' = (p-1) |u'| / u > 0,

so w = 0 on the inner sphere and w increases monotonically outward.  For a
power law w = (p-1)(q beta - 1) log(r/r0), so a level's radius is closed form
too; any other warp's levels are found by Newton's method, started from the
cubic Hermite inverse r(w) on the grid cell that brackets the level, with
the node slopes dr/dw = I / ((p-1) h^(-q)).  On a fine grid that start has
usually converged already, and a level then costs one 12-point panel of
h^(-q), whose I and h^(-q) come back with the radius.  The
normalized capacity of the level set {w = t} is

    cap(t) = h(r)^2 (w'(r)/(3-p))^(p-1)   at r = radius_of_level(t),

normalized so the unit sphere in flat space has capacity 1, and satisfies the
exact exponential law cap(t) = e^t cap(0).

Exponents are restricted to 1 < p < 2: the monotonicity machinery built on
these potentials degenerates at p = 2, so the harmonic endpoint is excluded
by construction.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import ConvergenceError, DomainError
from .numerics import cell_integrals, gauss_table, geometric_grid, interval_integrals, log_log_fit

__all__ = [
    "PExponent",
    "as_p",
    "RadialPotential",
    "solve_radial",
    "radius_of_level",
    "capacity",
]


@dataclass(frozen=True)
class PExponent:
    """Validated exponent of the p-Laplacian, strictly between 1 and 2."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not (1.0 < v < 2.0) or not math.isfinite(v):
            raise DomainError(
                f"p-Laplacian exponent must lie strictly inside the open interval (1, 2); got {self.value}"
            )
        object.__setattr__(self, "value", v)


def as_p(p) -> PExponent:
    return p if isinstance(p, PExponent) else PExponent(float(p))


@dataclass(frozen=True, eq=False)
class RadialPotential:
    """Solved radial capacitary potential on [r0, r_trunc].

    :func:`solve_radial` builds one of its two kinds, chosen once: a
    :class:`_PowerLawPotential` when the warp declares a power law, else a
    :class:`_CellFluxPotential`.  Either answers I at radii
    (:meth:`flux_integral_at`), its density h^(-q) (``density``), the node
    arrays and, at levels, their radii with I and h^(-q) there
    (:meth:`levels`).  The nodes are the geometric grid of ``n_grid`` radii
    from r0 to ``r_trunc``; ``normalizer`` is I(r0), ``tail`` is
    I(r_trunc), ``t_max`` and ``w0`` are w at the last and the first node.
    ``grid``, ``suffix`` (I at every node, tail included) and ``w`` are the
    node arrays: a cell flux keeps the first two from its solve, a power law
    builds them on first read, and ``w`` is built from ``suffix`` on first
    read.  Off-grid radii read I from :meth:`flux_integral_at` rather than by
    interpolation.  u = I / ``normalizer`` and w' = (p-1) h^(-q) / I follow
    from I wherever it is read; a level query returns I and h^(-q) with its
    radii, so w' at a level needs no second read.
    """

    model: geometry.ManifoldModel
    p: PExponent
    r0: float
    r_trunc: float
    n_grid: int
    normalizer: float
    tail: float
    tail_beta: float
    w0: float
    t_max: float

    @property
    def p_value(self) -> float:
        return self.p.value

    @functools.cached_property
    def w(self) -> np.ndarray:
        return _levels_of(self.suffix, self.normalizer, self.p.value)

    def flux_integral_at(self, r) -> np.ndarray:
        """I(r) evaluated exactly: the closed form of a power law, else suffix
        sums plus one partial Gauss panel.

        The partial panel [r, next node] lies inside a grid cell, so the
        12-point rule bounds its error at least as well as the cell's.  A
        radius outside the solved range, NaN included, is refused.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        inside = (r >= self.r0) & (r <= self.r_trunc)
        if not inside.all():
            raise DomainError(
                f"flux integral requested at r = {float(r[~inside][0])!r}, outside the solved "
                f"range [{self.r0}, {self.r_trunc}]"
            )
        return self._flux(r)

    def levels(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(r, I, h^(-q)) at the levels t, flattened: the one level query.

        The levels must be finite and lie in [0, t_max], with 1e-12 of slack
        that is clamped away (see :func:`radius_of_level` for the inversion).
        """
        t = np.asarray(t, dtype=float).reshape(-1)
        if not np.isfinite(t).all():
            raise DomainError(f"level t = {t[~np.isfinite(t)][0]} is not a finite number")
        outside = (t < -1e-12) | (t > self.t_max + 1e-12)
        if outside.any():
            raise DomainError(
                f"level t = {t[outside][0]} beyond truncation: representable levels are "
                f"[0, {self.t_max:.6f}]"
            )
        # np.clip's values on finite levels, without its Python wrapper
        clamped = np.maximum(t, 0.0)
        return self._invert(np.minimum(clamped, self.t_max, out=clamped))

    def decreases(self) -> bool:
        """Whether I decreases strictly over the nodes."""
        return not (self.suffix[1:] >= self.suffix[:-1]).any()


def _power_law_flux(r: np.ndarray, scale: float, q_beta: float) -> np.ndarray:
    """I(r) = c^(-q) r^(1 - q beta) / (q beta - 1) of the power law whose
    c^(-q) is ``scale``: one power, scaled in place."""
    values = np.power(r, 1.0 - q_beta)
    values *= scale
    values /= q_beta - 1.0
    return values


@dataclass(frozen=True, eq=False)
class _PowerLawPotential(RadialPotential):
    """The potential of a power law h = c r^beta, I in closed form on the
    nodes of geometric_grid(r0, r_trunc, n_grid) and at every other radius:
    ``scale`` is c^(-q) and ``q_beta`` is q beta, q = 2/(p-1), which exceeds
    1 for I to converge.

    Each radius takes one power, scaled in place, and h is not rounded for q
    to amplify.  The node arrays are built on first read.
    """

    scale: float
    q_beta: float

    @functools.cached_property
    def grid(self) -> np.ndarray:
        return geometric_grid(self.r0, self.r_trunc, self.n_grid)

    @functools.cached_property
    def suffix(self) -> np.ndarray:
        return self._flux(self.grid)

    def density(self, s: np.ndarray) -> np.ndarray:
        """The integrand h(s)^(-q) = c^(-q) s^(-q beta) of I."""
        values = np.power(s, -self.q_beta)
        values *= self.scale
        return values

    def _flux(self, r: np.ndarray) -> np.ndarray:
        return _power_law_flux(r, self.scale, self.q_beta)

    def decreases(self) -> bool:
        """Whether I decreases strictly over the nodes: certified from the
        closed form when it can be (see :meth:`_certainly_decreasing`), else
        checked on the node arrays, which this builds."""
        return self._certainly_decreasing() or super().decreases()

    def _certainly_decreasing(self) -> bool:
        """Whether I is certain to decrease strictly over the nodes, from the
        closed form alone.

        Exact nodes lower I by the relative gap 1 - exp(-(q beta - 1) log(r_trunc
        / r0) / (n_grid - 1)) from one to the next.  Rounding in log10, the steps
        and 10**y moves a node's log radius by a few ulps of |log r0| +
        |log r_trunc|, which I amplifies by q beta - 1, and pow, the scale and the
        division add a few ulps of I: the gap must exceed twice 64 times their
        sum.  The power, the scaled power and I must also be normal floats at both
        ends (so at every node between), where rounding is relative.
        """
        radii = np.array([self.r0, self.r_trunc])
        power = np.power(radii, 1.0 - self.q_beta)
        for values in (power, power * self.scale, self._flux(radii)):
            if not (values.min() >= _TINY and values.max() < math.inf):
                return False
        r0, r_max, slope = self.r0, self.r_trunc, self.q_beta - 1.0
        gap = -math.expm1(-slope * math.log(r_max / r0) / (self.n_grid - 1))
        noise = 64.0 * _EPS * (1.0 + slope * (1.0 + abs(math.log(r0)) + abs(math.log(r_max))))
        return gap > 2.0 * noise

    def _invert(self, t: np.ndarray):
        """(r, I, h^(-q)) at levels t in [0, t_max]: w = (p-1)(q beta - 1)
        log(r/r0) inverted, r0 exp(t / ((p-1)(q beta - 1))), clipped to [r0,
        r_trunc], with t_max at r_trunc, and I and h^(-q) there in closed form.
        The rate is taken as 2 beta - (p-1) with beta = ``tail_beta``, rounded
        once (p - 1 is exact for 1 < p < 2)."""
        radii = np.exp(t / (2.0 * self.tail_beta - (self.p_value - 1.0)))
        radii *= self.r0
        np.maximum(radii, self.r0, out=radii)
        np.minimum(radii, self.r_trunc, out=radii)
        radii[t == self.t_max] = self.r_trunc
        return radii, self._flux(radii), self.density(radii)


LEVEL_NEWTON_MAX_ITER = 40  # iteration cap of the batched level inversion
LEVEL_NEWTON_RTOL = 1e-13  # a level has converged once its Newton step is below this, relative...
LEVEL_RESIDUAL_ULPS = 16  # ...or once w(r) - t is within this many rounding units of its terms
LEVEL_STEP_ULPS = 4  # a converged level stays at its iterate if the step is within this, relative
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the smallest normal float


WARP_GRID_MAX_NODES = 2**13  # most nodes of a grid whose warp a model keeps: 112 B a node, 0.92 MB at the cap


@dataclass(frozen=True, eq=False)
class _WarpGrid:
    """What a cell-flux solve on the nodes ``grid`` needs of the warp, none of
    which depends on p: h at the 12 Gauss points of every cell (``gauss``, in
    the layout of :func:`numerics.gauss_table`), h at the nodes (``nodes``,
    built on the first inversion of a level between them) and the tail fit
    (beta, log c) of :func:`_tail_fit` (``fit``, built once the first solve's
    cells have passed their check).  A model keeps the one of its last solve
    grid (see :func:`_kept_warp_grid`); the grid and the arrays are
    read-only, and every solve on the grid shares them, whatever its p."""

    warp: geometry.WarpFunction
    grid: np.ndarray
    gauss: np.ndarray

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        nodes = self.warp.h(self.grid)
        nodes.flags.writeable = False
        return nodes

    @functools.cached_property
    def fit(self) -> tuple[float, float]:
        return _tail_fit(self.warp, self.grid)


def _kept_warp_grid(model: geometry.ManifoldModel, r0: float, r_max: float, n_grid: int):
    """The model's kept :class:`_WarpGrid` of the geometric grid of ``n_grid``
    nodes from r0 to r_max, built, in place of the one kept before, when the
    grid is new; None above WARP_GRID_MAX_NODES nodes, where nothing is kept.
    At 4096 nodes the grid, h at its 49 140 Gauss points and at its nodes
    hold 0.46 MB."""
    if n_grid > WARP_GRID_MAX_NODES:
        return None
    key = (r0, r_max, n_grid)
    kept = model._warp_grids
    warp_grid = kept.get(key)
    if warp_grid is None:
        kept.clear()
        grid = geometric_grid(r0, r_max, n_grid)
        gauss = gauss_table(model.warp.h, grid[:-1], grid[1:])
        grid.flags.writeable = gauss.flags.writeable = False
        warp_grid = kept[key] = _WarpGrid(model.warp, grid, gauss)
    return warp_grid


def _tail_fit(warp: geometry.WarpFunction, grid: np.ndarray) -> tuple[float, float]:
    """The least-squares (beta, log c) of h = c r^beta over the outer decade of ``grid``."""
    mask = grid >= grid[-1] / 10.0
    return log_log_fit(grid[mask], warp.h(grid[mask]))


def _power(h: np.ndarray, exponent: float) -> np.ndarray:
    """h^(-q) from the values h of the warp, ``exponent`` = -q: the integrand
    of a cell flux, which its solve needs before the potential exists."""
    return h**exponent


@dataclass(frozen=True, eq=False)
class _CellFluxPotential(RadialPotential):
    """The potential of any other warp on the nodes ``grid``: ``suffix``
    holds I at every node, the 12-point Gauss cells of h^(-q) (``exponent``
    is -q) summed from the outer end plus the tail I(grid[-1]) of the power
    law fitted there.  ``kept`` is the model's kept warp on the grid, whose h
    at the Gauss points and at the nodes the cells and the node density raise
    to -q; it is None above WARP_GRID_MAX_NODES, where they call the warp."""

    grid: np.ndarray
    suffix: np.ndarray
    exponent: float
    kept: _WarpGrid | None

    def density(self, s: np.ndarray) -> np.ndarray:
        """The integrand h(s)^(-q) of I."""
        return _power(self.model.warp.h(s), self.exponent)

    def _flux(self, r: np.ndarray, j: np.ndarray | None = None) -> np.ndarray:
        """I at radii r in [grid[0], grid[-1]]: the partial panel [r, grid[j+1]]
        plus suffix[j+1], or suffix[j] where r is grid[j], with j the grid cell
        of r (searched when None)."""
        if j is None:
            j = self.grid.searchsorted(r, side="right")
            j -= 1
            np.maximum(j, 0, out=j)
            np.minimum(j, self.grid.size - 2, out=j)
        out = interval_integrals(self.density, r, self.grid[j + 1])
        out += self.suffix[j + 1]
        exact = r == self.grid[j]
        out[exact] = self.suffix[j[exact]]
        return out

    @functools.cached_property
    def node_density(self) -> np.ndarray:
        """h^(-q) at the nodes, built on the first inversion of a level
        between them, from the kept h at the nodes when there is one."""
        if self.kept is None:
            return self.density(self.grid)
        return _power(self.kept.nodes, self.exponent)

    def _invert(self, t: np.ndarray):
        """(r, I, h^(-q)) at levels t in [0, t_max] by Newton in their bracket
        cells (see :func:`radius_of_level`).  I and h^(-q) have the bits of
        ``flux_integral_at(r)`` and ``density(r)``: a level on a node reads
        them at the node; a level at its residual floor whose Newton step is
        within LEVEL_STEP_ULPS of its iterate keeps the iterate and the panel
        read there; any other converged level takes its last step, as every
        level did before, and pays one more panel at the stepped iterate."""
        w = self.w
        j = w.searchsorted(t, side="left")
        radii, flux, density = self.grid[j], self.suffix[j], self.node_density[j]
        todo = ((j > 0) & (w[j] != t)).nonzero()[0]
        if todo.size == 0:
            return radii, flux, density
        j, t = j[todo], t[todo]
        # every iterate stays in its bracket cell, so I is read there as
        # flux_integral_at reads it, without its range check and search
        cell = j - 1
        a, b = self.grid[cell], radii[todo]
        k = self.p_value - 1.0
        slope_a, slope_b = self._node_slopes(k, cell), self._node_slopes(k, j)
        x = _hermite_start(a, b, w[cell], w[j], t, slope_a, slope_b)
        log_i0 = math.log(self.normalizer)
        flux_at, density_at = np.empty(todo.size), np.empty(todo.size)
        stepped = []
        active = np.arange(todo.size)
        for _ in range(LEVEL_NEWTON_MAX_ITER):
            xa = x[active]
            i_x = self._flux(xa, cell[active])
            hq_x = self.density(xa)
            log_flux = np.log(i_x)
            resid = k * (log_i0 - log_flux) - t[active]
            a[active[resid < 0.0]] = xa[resid < 0.0]
            b[active[resid > 0.0]] = xa[resid > 0.0]
            lo, hi = a[active], b[active]
            step = resid * i_x / (k * hq_x)
            new = xa - step
            outside = ~((new >= lo) & (new <= hi))
            new[outside] = 0.5 * (lo[outside] + hi[outside])
            floor = LEVEL_RESIDUAL_ULPS * _EPS * (t[active] + k * (abs(log_i0) + np.abs(log_flux)))
            at_floor = np.abs(resid) <= floor
            settled = at_floor & (np.abs(step) <= LEVEL_STEP_ULPS * _EPS * xa)
            new[settled] = xa[settled]
            flux_at[active[settled]] = i_x[settled]
            density_at[active[settled]] = hq_x[settled]
            x[active] = new
            done = ~settled & (at_floor | (np.abs(new - xa) <= LEVEL_NEWTON_RTOL * xa))
            stepped.append(active[done])
            active = active[~(settled | done)]
            if active.size == 0:
                stepped = np.concatenate(stepped)
                if stepped.size:
                    flux_at[stepped] = self._flux(x[stepped], cell[stepped])
                    density_at[stepped] = self.density(x[stepped])
                radii[todo], flux[todo], density[todo] = x, flux_at, density_at
                return radii, flux, density
        raise ConvergenceError(
            f"level inversion: {active.size} of {todo.size} levels not converged after "
            f"{LEVEL_NEWTON_MAX_ITER} Newton steps (first t = {t[active[0]]!r})"
        )

    def _node_slopes(self, k: float, nodes: np.ndarray) -> np.ndarray:
        """dr/dw = I / ((p-1) h^(-q)) at the given nodes."""
        return self.suffix[nodes] / (k * self.node_density[nodes])


def _hermite_start(a, b, w_a, w_b, t, slope_a, slope_b) -> np.ndarray:
    """The cubic Hermite inverse r(w) at the levels t on the cells [a, b],
    where w runs from w_a to w_b with node slopes dr/dw; linear interpolation
    where the cubic leaves its cell."""
    span, width = w_b - w_a, b - a
    tau = (t - w_a) / span
    rest = 1.0 - tau
    x = a + tau * tau * (3.0 - 2.0 * tau) * width
    x += tau * rest * span * (rest * slope_a - tau * slope_b)
    outside = ~((x >= a) & (x <= b))
    x[outside] = a[outside] + tau[outside] * width[outside]
    return x


def _power_law_constants(
    q: float, beta: float, p_value: float, *, c: float | None = None, log_c: float | None = None
) -> tuple[float, float]:
    """(c^(-q), q beta) of the power law h = c r^beta: ``c**-q`` for a
    declared c, ``exp(-q log_c)`` for a fitted one.

    The scale can overflow, or underflow to 0.0, while h^(-q) stays in range
    on the grid (c = 1e-4 at q = 80 with r >= 1e4; c = 30 at q = 320 with r <=
    0.1); then the solve is refused.  The power law is not renormalized at r0
    instead: the quotient r/r0 would be rounded, and q would amplify that
    rounding.  Next, q beta must exceed 1 for the tail integral to converge.
    """
    try:
        scale = c**-q if log_c is None else math.exp(-q * log_c)
    except OverflowError:
        scale = math.inf
    if scale == 0.0 or scale == math.inf:
        known = f"c = h(1) = {c!r}" if log_c is None else f"fitted log c = {log_c!r}"
        raise ConvergenceError(
            f"power-law scale c^(-q) {'overflows' if scale else 'underflows to 0.0'}: {known}, "
            f"q = 2/(p-1) = {q!r}; the tail, and the integrand and I of a power-law warp, "
            "carry this factor"
        )
    if q * beta <= 1.0 + 1e-9:
        raise ConvergenceError(
            f"tail integral of h^(-2/(p-1)) diverges: {'' if log_c is None else 'fitted '}warp "
            f"exponent beta = {beta:.4f} means volume growth alpha = {2 * beta:.4f} <= p - 1 = "
            f"{p_value - 1:.4f}; the exterior problem needs alpha > p - 1"
        )
    return scale, q * beta


def solve_radial(
    model: geometry.ManifoldModel,
    p,
    r0: float,
    *,
    n_grid: int = 4096,
    r_max: float | None = None,
) -> RadialPotential:
    """Solve the exterior capacitary problem for the radial p-Laplacian.

    The truncation radius defaults to min(1e4 * r0, model.r_max), and the
    nodes are the geometric grid of ``n_grid`` radii (an integer, at least
    16) from r0 to it.  When the warp declares a power law h = c r^beta (its
    ``exact_power``), I is its closed form c^(-q) r^(1 - q beta) / (q beta -
    1) at every radius (:class:`_PowerLawPotential`), and the solve evaluates
    it at r0 and the truncation radius alone: no quadrature runs and no node
    array is built until one is read.  Any other warp is integrated cell by
    cell with the 12-point Gauss rule (:class:`_CellFluxPotential`), and the
    tail of I beyond truncation is the same closed form for the power
    law fitted by least squares to h over the outermost decade of the grid.
    If the growth is too slow for the tail integral to converge the solver
    refuses loudly.  This is the one place that chooses between the two.

    Without a power law, the warp at the grid's Gauss points and nodes and
    the tail fit do not depend on p, so the model keeps them for its last
    grid of at most WARP_GRID_MAX_NODES nodes (:class:`_WarpGrid`, read-only,
    0.46 MB at 4096 nodes).  A solve on that grid at any later p calls no
    warp and builds no point: it raises the kept h to -q one block at a time
    and allocates only ``suffix`` plus that block, sharing the kept grid.  A
    grid above the cap is kept by no one: its solve allocates ``grid`` and
    ``suffix`` plus one block of quadrature scratch and calls the warp at the
    points.  Either way the cells summed from the outer end and completed by
    the tail are written into ``suffix``, and every value rounds as the same
    formulas with fresh arrays would: h^(-q) is taken elementwise from the
    same h.
    ConvergenceError refuses, in this order: a scale c^(-q) of an exact power
    law that overflows or underflows to 0.0, a non-positive or non-finite
    cell, a fitted scale that overflows or underflows, a divergent tail, a
    tail that underflows to 0.0, an overflowing I(r0), and an I that fails to
    decrease strictly at the nodes.  A power law's closed form certifies the
    strict decrease when it can (see ``_certainly_decreasing``); else its
    node arrays are built and checked.
    """
    p = as_p(p)
    r0 = float(r0)
    if not 0.0 < r0 < math.inf:
        raise DomainError(f"inner radius r0 must be a positive finite number, got {r0}")
    if r0 < model.r_min:
        raise DomainError(f"r0 = {r0} lies inside the excluded core (r_min = {model.r_min})")
    if r_max is None:
        r_max = min(1e4 * r0, model.r_max)
    r_max = float(r_max)
    if not math.isfinite(r_max):
        raise DomainError(f"truncation radius r_max must be a finite number, got {r_max}")
    if r_max > model.r_max:
        raise DomainError(f"truncation radius {r_max} exceeds the model domain ({model.r_max})")
    if not r0 < r_max:
        raise DomainError(f"need r0 < r_max, got {r0} >= {r_max}")
    try:
        n_grid = operator.index(n_grid)
    except TypeError:
        raise DomainError(f"n_grid must be an integer, got {n_grid!r}") from None
    if n_grid < 16:
        raise DomainError("n_grid must be at least 16")

    q = 2.0 / (p.value - 1.0)
    declared = model.warp.exact_power
    fitted = declared is None
    if fitted:
        kept = _kept_warp_grid(model, r0, r_max, n_grid)
        grid = geometric_grid(r0, r_max, n_grid) if kept is None else kept.grid
        suffix = np.empty_like(grid)
        # the cells go into suffix[:-1] and are summed from the outer end; the
        # tail is added to every sum below
        if kept is None:
            cells = cell_integrals(lambda s: _power(model.warp.h(s), -q), grid, out=suffix[:-1])
        else:
            cells = cell_integrals(lambda h: _power(h, -q), grid, out=suffix[:-1], table=kept.gauss)
        # two reductions and no temporaries; a NaN cell makes min() NaN, which fails too
        if not (cells.min() > 0.0 and cells.max() < math.inf):
            raise ConvergenceError("flux quadrature produced non-positive or non-finite cells")
        cells[::-1].cumsum(out=cells[::-1])
        beta, log_c = _tail_fit(model.warp, grid) if kept is None else kept.fit
        scale, q_beta = _power_law_constants(q, beta, p.value, log_c=log_c)
        # libm's scalar power keeps the fitted tail's bits: numpy's SIMD power rounds
        # some arguments differently
        tail = scale * r_max ** (1.0 - q_beta) / (q_beta - 1.0)
        cells += tail
        suffix[-1] = tail
        ends = suffix[[0, -1]]
        kind, fields = _CellFluxPotential, dict(grid=grid, suffix=suffix, exponent=-q, kept=kept)
    else:
        c, beta = declared
        scale, q_beta = _power_law_constants(q, beta, p.value, c=c)
        # I at the end nodes alone, as the node arrays would hold it
        ends = _power_law_flux(np.array([r0, r_max]), scale, q_beta)
        tail = float(ends[-1])
        kind, fields = _PowerLawPotential, dict(scale=scale, q_beta=q_beta)
    if tail == 0.0:
        raise ConvergenceError(
            f"tail integral of h^(-2/(p-1)) underflows to 0.0: c^(-q) = {scale!r} times "
            f"r_max^(1 - q beta) with r_max = {r_max!r}, {'fitted ' if fitted else ''}beta = "
            f"{beta!r}, q = 2/(p-1) = {q!r}; I(r_max) and t_max need a positive tail"
        )
    normalizer = float(ends[0])
    if not math.isfinite(normalizer):
        raise ConvergenceError(
            f"flux integral I(r0) overflows: I(r0) = {normalizer!r} with the tail "
            f"I(r_max) = {tail!r}"
        )

    w0, t_max = _levels_of(ends, normalizer, p.value)  # w at the end nodes alone
    pot = kind(
        model=model,
        p=p,
        r0=r0,
        r_trunc=r_max,
        n_grid=n_grid,
        normalizer=normalizer,
        tail=tail,
        tail_beta=float(beta),
        w0=float(w0),
        t_max=float(t_max),
        **fields,
    )
    if not pot.decreases():
        raise ConvergenceError("flux integral failed to be strictly decreasing")
    return pot


def _levels_of(flux: np.ndarray, normalizer: float, p_value: float) -> np.ndarray:
    """w = (p-1)(log I(r0) - log I) from I at nodes, built in the array of log I."""
    w = np.log(flux)
    np.subtract(math.log(normalizer), w, out=w)
    w *= p_value - 1.0
    return w


def radius_of_level(pot: RadialPotential, t):
    """Radius of the level set {w = t}; inverse of the level parameter.

    ``t`` is a scalar (the radius is a float) or an array of levels (an array
    of the same shape).  A power law's level is r0 exp(t / ((p-1)(q beta -
    1))) in closed form, clipped to [r0, r_trunc], and t_max is r_trunc.  For
    any other warp, levels on a grid node, t = 0 and t = t_max are answered by
    their node; every other level is bracketed by its two grid nodes and found
    by one safeguarded Newton iteration over all levels at once, started from
    the cubic Hermite inverse r(w) on the bracket cell, whose node slopes are
    dr/dw = I / ((p-1) h^(-q)), or from linear interpolation where the cubic
    leaves the cell.  The update uses dw/dr = (p-1) h^(-q) / I; a step leaving
    the bracket is replaced by bisection.  A level has converged once its step
    is below LEVEL_NEWTON_RTOL or, where w is nearly flat in r and rounding in
    w(r) - t bounds how close r can get, its residual is at that rounding
    floor; it then takes its last step, unless the step is within
    LEVEL_STEP_ULPS of the iterate, which is kept.  On a fine grid the Hermite
    start is usually kept, and a level then costs one 12-point panel of
    h^(-q).  The level rows read the same query (:meth:`RadialPotential.levels`),
    which returns I and h^(-q) at the radii too.
    """
    t = np.asarray(t, dtype=float)
    radii = pot.levels(t)[0]
    return float(radii[0]) if t.ndim == 0 else radii.reshape(t.shape)


def _level_at(pot: RadialPotential, r: np.ndarray) -> np.ndarray:
    """The level w = (p-1) log(I(r0) / I(r)) at radii r (one flux_integral_at call)."""
    return _levels_of(pot.flux_integral_at(r), pot.normalizer, pot.p_value)


def _capacity_at(pot: RadialPotential, h, w_prime):
    """Normalized capacity of the spheres where the warp is h and w' = w_prime."""
    return h**2 * (w_prime / (3.0 - pot.p_value)) ** (pot.p_value - 1.0)


def capacity(pot: RadialPotential, t: float) -> float:
    """Normalized capacity of the level set {w = t}."""
    r, flux, density = pot.levels([float(t)])
    h = pot.model.warp.h(r)
    return float(_capacity_at(pot, h, (pot.p_value - 1.0) * density / flux)[0])
