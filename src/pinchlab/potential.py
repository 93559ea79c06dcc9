"""Radial p-harmonic exterior potentials in closed quadrature form.

On a rotationally symmetric manifold the p-harmonic equation for a radial
function reduces to a conserved flux: h(r)^2 |u'(r)|^(p-1) is constant.  The
capacitary potential with u = 1 on the sphere {r = r0} and u -> 0 at infinity
is therefore

    u(r) = I(r) / I(r0),      I(r) = integral_r^inf h(s)^(-2/(p-1)) ds,

For a warp that is a power law h = c r^beta, I has the closed form

    I(r) = c^(-q) r^(1 - q beta) / (q beta - 1),      q = 2/(p-1),

which this module evaluates at every radius it needs, grid nodes and off-grid
radii alike.  Any other warp is integrated by composite Gauss quadrature on a
geometric grid, plus the same closed form for a power law fitted to the outer
decade as the tail beyond the truncation radius.  The level
parameter of the potential is

    w = -(p-1) log u,   t = w(r),   w' = (p-1) |u'| / u > 0,

so w = 0 on the inner sphere and w increases monotonically outward.  The
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
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import ConvergenceError, DomainError
from .numerics import (
    cell_integrals,
    geometric_grid,
    geometric_nodes,
    interval_integrals,
    log_log_fit,
)

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

    The nodes are the geometric grid of ``n_grid`` radii from r0 to
    ``r_trunc``; ``normalizer`` is I(r0), ``tail`` is I(r_trunc), ``t_max``
    and ``w0`` are w at the last and the first node.  ``grid``, ``suffix``
    (I at every node, tail included) and ``w`` are the node arrays.  A
    fitted warp's solve builds them; a power law's builds them on first
    read, from the same formulas, so they have the same bits either way, and
    its levels are bracketed from node values computed at the bracket alone.
    Off-grid radii read I from :meth:`flux_integral_at` rather than by
    interpolation: from the closed form when the warp is a power law, else by
    one extra panel of quadrature.  u = I / ``normalizer`` and w' = (p-1)
    h^(-q) / I follow from I wherever it is read.  Without a power law, the
    grid cells and every later panel take the 12-point Gauss rule.
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
    def _power_law(self) -> _PowerLawFlux | None:
        return _exact_power_law(self.model.warp, self.p.value)

    @functools.cached_property
    def _integrand(self):
        return _flux_density(self.model.warp, self.p.value)

    # a fitted warp's solve seeds grid, suffix and w; these build a power law's
    @functools.cached_property
    def grid(self) -> np.ndarray:
        return geometric_grid(self.r0, self.r_trunc, self.n_grid)

    @functools.cached_property
    def suffix(self) -> np.ndarray:
        return self._power_law.flux(self.grid)

    @functools.cached_property
    def w(self) -> np.ndarray:
        return _levels_of(self.suffix, self.normalizer, self.p.value)

    def _nodes(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A power law's (grid[k], w[k]) at integer indices 0 <= k < n_grid,
        from the arrays' formulas at k alone: the arrays' bits, unbuilt."""
        radii = geometric_nodes(self.r0, self.r_trunc, self.n_grid, k)
        return radii, _levels_of(self._power_law.flux(radii), self.normalizer, self.p.value)

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
        return self._flux_at(r)

    def _flux_at(self, r: np.ndarray, j: np.ndarray | None = None) -> np.ndarray:
        """I at radii r in the solved range: the closed form of a power law,
        else the partial panel [r, grid[j+1]] plus suffix[j+1], or suffix[j]
        where r is grid[j], with j the grid cell of r (searched when None)."""
        law = self._power_law
        if law is not None:
            return law.flux(r)
        if j is None:
            j = np.searchsorted(self.grid, r, side="right")
            j -= 1
            np.clip(j, 0, self.n_grid - 2, out=j)
        out = interval_integrals(self._integrand, r, self.grid[j + 1])
        out += self.suffix[j + 1]
        exact = r == self.grid[j]
        out[exact] = self.suffix[j[exact]]
        return out


class _PowerLawFlux(NamedTuple):
    """The flux of a power law h = c r^beta at q = 2/(p-1): ``scale`` is
    c^(-q) and ``q_beta`` is q beta, which must exceed 1 for I to converge.

    Each radius takes one power, scaled in place, and h is not rounded for q
    to amplify.
    """

    scale: float
    q_beta: float

    def density(self, s: np.ndarray) -> np.ndarray:
        """The integrand h(s)^(-q) = c^(-q) s^(-q beta) of I."""
        values = np.power(s, -self.q_beta)
        values *= self.scale
        return values

    def flux(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """I(r) = c^(-q) r^(1 - q beta) / (q beta - 1), into ``out`` when given."""
        values = np.power(r, 1.0 - self.q_beta, out=out)
        values *= self.scale
        values /= self.q_beta - 1.0
        return values


def _exact_power_law(warp: geometry.WarpFunction, p_value: float) -> _PowerLawFlux | None:
    """The flux of ``warp`` when it is a power law (beta = ``warp.power_law``,
    c = h(1)), else None; refuses a scale c^(-q) out of the float range."""
    beta = warp.power_law
    if beta is None:
        return None
    q = 2.0 / (p_value - 1.0)
    return _PowerLawFlux(_power_law_scale(q, c=float(warp.h(1.0))), q * beta)


def _flux_density(warp: geometry.WarpFunction, p_value: float):
    """The integrand s -> h(s)^(-2/(p-1)) of I (see :class:`_PowerLawFlux`
    for a power law)."""
    law = _exact_power_law(warp, p_value)
    if law is not None:
        return law.density
    exponent = -2.0 / (p_value - 1.0)
    return lambda s: warp.h(s) ** exponent


def _power_law_scale(q: float, c: float | None = None, log_c: float | None = None) -> float:
    """c^(-q) for the power law h = c r^beta: ``c**-q`` for an exact c = h(1),
    ``exp(-q log_c)`` for a fitted one.

    It can overflow, or underflow to 0.0, while h^(-q) stays in range on the
    grid (c = 1e-4 at q = 80 with r >= 1e4; c = 30 at q = 320 with r <= 0.1);
    then the solve is refused.  The power law is not renormalized at r0
    instead: the quotient r/r0 would be rounded, and q would amplify that
    rounding.
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
    return scale


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
    16) from r0 to it.  When the warp is a power law h = c r^beta (beta =
    ``warp.power_law``, c = h(1)), I is its closed form c^(-q) r^(1 - q beta)
    / (q beta - 1) at every radius, and the solve evaluates it at r0 and the
    truncation radius alone: no quadrature runs and no node array is built
    until one is read (see :class:`RadialPotential`).  Any other warp is
    integrated cell by cell with the 12-point Gauss rule, and the tail of I
    beyond truncation is the same closed form for the power law fitted by
    least squares to h over the outermost decade of the grid.  If the growth
    is too slow for the tail integral to converge the solver refuses loudly.

    Without a power law, a solve allocates only the arrays it keeps,
    ``grid``, ``suffix`` and ``w``, plus one block of quadrature scratch: the
    cells summed from the outer end and completed by the tail are written
    into ``suffix``, and ``w`` is built in the array of log I.  Every value
    rounds as the same formulas with fresh arrays would.  ConvergenceError
    refuses, in this order: a scale c^(-q) of an exact power law that
    overflows or underflows to 0.0, a non-positive or non-finite cell, a
    fitted scale that overflows or underflows, a divergent tail, a tail that
    underflows to 0.0, an overflowing I(r0), and an I that fails to decrease
    strictly at the nodes.  A power law's closed form certifies the strict
    decrease when it can (see :func:`_certainly_decreasing`); else its node
    arrays are built and checked.
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
    law = _exact_power_law(model.warp, p.value)
    fitted = law is None
    if fitted:
        grid = geometric_grid(r0, r_max, n_grid)
        suffix = np.empty_like(grid)
        # the cells go into suffix[:-1] and are summed from the outer end; the
        # tail is added to every sum below
        cells = cell_integrals(_flux_density(model.warp, p.value), grid, out=suffix[:-1])
        # two reductions and no temporaries; a NaN cell makes min() NaN, which fails too
        if not (cells.min() > 0.0 and cells.max() < math.inf):
            raise ConvergenceError("flux quadrature produced non-positive or non-finite cells")
        np.cumsum(cells[::-1], out=cells[::-1])
        mask = grid >= grid[-1] / 10.0
        beta, log_c = log_log_fit(grid[mask], model.warp.h(grid[mask]))
        law = _PowerLawFlux(_power_law_scale(q, log_c=log_c), q * beta)
    else:
        beta = model.warp.power_law
    if law.q_beta <= 1.0 + 1e-9:
        raise ConvergenceError(
            f"tail integral of h^(-2/(p-1)) diverges: {'fitted ' if fitted else ''}warp exponent "
            f"beta = {beta:.4f} means volume growth alpha = {2 * beta:.4f} <= p - 1 = {p.value - 1:.4f}; "
            "the exterior problem needs alpha > p - 1"
        )
    if fitted:
        # libm's scalar power keeps the fitted tail's bits: numpy's SIMD power rounds
        # some arguments differently
        tail = law.scale * r_max ** (1.0 - law.q_beta) / (law.q_beta - 1.0)
        cells += tail
        suffix[-1] = tail
        flux = suffix
    else:
        # I at the end nodes alone, as the node arrays would hold it
        flux = law.flux(np.array([r0, r_max]))
        tail = float(flux[-1])
    if tail == 0.0:
        raise ConvergenceError(
            f"tail integral of h^(-2/(p-1)) underflows to 0.0: c^(-q) = {law.scale!r} times "
            f"r_max^(1 - q beta) with r_max = {r_max!r}, {'fitted ' if fitted else ''}beta = "
            f"{beta!r}, q = 2/(p-1) = {q!r}; I(r_max) and t_max need a positive tail"
        )
    normalizer = float(flux[0])
    if not math.isfinite(normalizer):
        raise ConvergenceError(
            f"flux integral I(r0) overflows: I(r0) = {normalizer!r} with the tail "
            f"I(r_max) = {tail!r}"
        )

    w = _levels_of(flux, normalizer, p.value)  # at every node, or at the two ends
    pot = RadialPotential(
        model=model,
        p=p,
        r0=r0,
        r_trunc=r_max,
        n_grid=n_grid,
        normalizer=normalizer,
        tail=float(tail),
        tail_beta=float(beta),
        w0=float(w[0]),
        t_max=float(w[-1]),
    )
    if fitted:
        # seeded where the cached properties would store them
        vars(pot).update(grid=grid, suffix=suffix, w=w)
    if fitted or not _certainly_decreasing(law, r0, r_max, n_grid):
        if np.any(pot.suffix[1:] >= pot.suffix[:-1]):
            raise ConvergenceError("flux integral failed to be strictly decreasing")
    return pot


def _levels_of(flux: np.ndarray, normalizer: float, p_value: float) -> np.ndarray:
    """w = (p-1)(log I(r0) - log I) from I at nodes, built in the array of log I."""
    w = np.log(flux)
    np.subtract(math.log(normalizer), w, out=w)
    w *= p_value - 1.0
    return w


def _certainly_decreasing(law: _PowerLawFlux, r0: float, r_max: float, n_grid: int) -> bool:
    """Whether I of the power law ``law`` is certain to decrease strictly over
    the nodes of geometric_grid(r0, r_max, n_grid), from the closed form alone.

    Exact nodes lower I by the relative gap 1 - exp(-(q beta - 1) log(r_max/r0)
    / (n_grid - 1)) from one to the next.  Rounding in log10, the steps and
    10**y moves a node's log radius by a few ulps of |log r0| + |log r_max|,
    which I amplifies by q beta - 1, and pow, the scale and the division add a
    few ulps of I: the gap must exceed twice 64 times their sum.  The power,
    the scaled power and I must also be normal floats at both ends (so at
    every node between), where rounding is relative.
    """
    radii = np.array([r0, r_max])
    power = np.power(radii, 1.0 - law.q_beta)
    for values in (power, power * law.scale, law.flux(radii)):
        if not (values.min() >= np.finfo(float).tiny and values.max() < math.inf):
            return False
    slope = law.q_beta - 1.0
    gap = -math.expm1(-slope * math.log(r_max / r0) / (n_grid - 1))
    noise = 64.0 * _EPS * (1.0 + slope * (1.0 + abs(math.log(r0)) + abs(math.log(r_max))))
    return gap > 2.0 * noise


LEVEL_NEWTON_MAX_ITER = 40  # iteration cap of the batched level inversion
LEVEL_NEWTON_RTOL = 1e-13  # a level has converged once its Newton step is below this, relative...
LEVEL_RESIDUAL_ULPS = 16  # ...or once w(r) - t is within this many rounding units of its terms
_EPS = float(np.finfo(float).eps)


def _check_levels(pot: RadialPotential, t) -> np.ndarray:
    """The one level validator: finite levels in [0, t_max] (1e-12 slack, clamped)."""
    t = np.asarray(t, dtype=float)
    flat = t.reshape(-1)
    if not np.all(np.isfinite(flat)):
        raise DomainError(f"level t = {flat[~np.isfinite(flat)][0]} is not a finite number")
    outside = (flat < -1e-12) | (flat > pot.t_max + 1e-12)
    if np.any(outside):
        raise DomainError(
            f"level t = {flat[outside][0]} beyond truncation: representable levels are "
            f"[0, {pot.t_max:.6f}]"
        )
    return np.clip(t, 0.0, pot.t_max)


def radius_of_level(pot: RadialPotential, t):
    """Radius of the level set {w = t}; inverse of the level parameter.

    ``t`` is a scalar (the radius is a float) or an array of levels (an array
    of the same shape).  Levels on a grid node, t = 0 and t = t_max are
    answered by their node; every other level is bracketed by its two grid
    nodes and found by one safeguarded Newton iteration over all levels at
    once, started from linear interpolation of w between the nodes.  The
    update uses dw/dr = (p-1) h^(-q) / I; a step leaving the bracket is
    replaced by bisection, and a converged level is frozen after its last
    step.  Where w is nearly flat in r, rounding in w(r) - t bounds how close
    r can get, so a residual at that rounding floor also counts as converged.
    """
    levels = _check_levels(pot, t)
    radii = _invert_levels(pot, levels.reshape(-1)).reshape(levels.shape)
    return float(radii) if radii.ndim == 0 else radii


def _level_cells(pot: RadialPotential, t: np.ndarray):
    """j = searchsorted(w, t, side="left") for levels t in [0, t_max], with
    grid and w at nodes max(j - 1, 0) and j: (j, r_lo, w_lo, r_hi, w_hi).

    A fitted warp's node arrays are searched.  A power law's w = (p-1)(q beta
    - 1) log(r/r0) spaces the nodes evenly in level, so j starts at
    ceil(t (n_grid - 1) / t_max), which only rounding moves off its cell, and
    steps one node at a time, against node values with the arrays' bits,
    until w[j-1] < t <= w[j]; its arrays are never read here.
    """
    if pot._power_law is None:
        j = np.searchsorted(pot.w, t, side="left")
        nodes = np.concatenate([np.maximum(j - 1, 0), j])
        radii, levels = pot.grid[nodes], pot.w[nodes]
    else:
        j = np.ceil(t * ((pot.n_grid - 1) / pot.t_max)).astype(np.intp)
        np.clip(j, 0, pot.n_grid - 1, out=j)
        while True:
            radii, levels = pot._nodes(np.concatenate([np.maximum(j - 1, 0), j]))
            up = levels[t.size :] < t
            down = (j > 0) & (levels[: t.size] >= t)
            if not (up.any() or down.any()):
                break
            j += up
            j -= down
    m = t.size
    return j, radii[:m], levels[:m], radii[m:], levels[m:]


def _invert_levels(pot: RadialPotential, t: np.ndarray) -> np.ndarray:
    j, a, w_lo, radii, w_hi = _level_cells(pot, t)
    todo = np.flatnonzero((j > 0) & (w_hi != t))
    if todo.size == 0:
        return radii
    j, t = j[todo], t[todo]
    a, b = a[todo], radii[todo]
    w_lo, w_hi = w_lo[todo], w_hi[todo]
    # every iterate stays in its bracket cell, so I is read there as
    # flux_integral_at reads it, without its range check and search
    cell = j - 1
    x = a + (t - w_lo) / (w_hi - w_lo) * (b - a)
    k = pot.p_value - 1.0
    log_i0 = math.log(pot.normalizer)
    active = np.arange(todo.size)
    for _ in range(LEVEL_NEWTON_MAX_ITER):
        xa = x[active]
        flux = pot._flux_at(xa, cell[active])
        log_flux = np.log(flux)
        resid = k * (log_i0 - log_flux) - t[active]
        a[active[resid < 0.0]] = xa[resid < 0.0]
        b[active[resid > 0.0]] = xa[resid > 0.0]
        lo, hi = a[active], b[active]
        step = resid * flux / (k * pot._integrand(xa))
        new = xa - step
        outside = ~((new >= lo) & (new <= hi))
        new[outside] = 0.5 * (lo[outside] + hi[outside])
        x[active] = new
        floor = LEVEL_RESIDUAL_ULPS * _EPS * (t[active] + k * (abs(log_i0) + np.abs(log_flux)))
        done = (np.abs(new - xa) <= LEVEL_NEWTON_RTOL * xa) | (np.abs(resid) <= floor)
        active = active[~done]
        if active.size == 0:
            radii[todo] = x
            return radii
    raise ConvergenceError(
        f"level inversion: {active.size} of {todo.size} levels not converged after "
        f"{LEVEL_NEWTON_MAX_ITER} Newton steps (first t = {t[active[0]]!r})"
    )


def _level_at(pot: RadialPotential, r: np.ndarray) -> np.ndarray:
    """The level w = (p-1) log(I(r0) / I(r)) at radii r (one flux_integral_at call)."""
    return (pot.p_value - 1.0) * (math.log(pot.normalizer) - np.log(pot.flux_integral_at(r)))


def _w_prime_at(pot: RadialPotential, r: np.ndarray) -> np.ndarray:
    """w' = (p-1) h^(-q) / I at radii r (one flux_integral_at call)."""
    return (pot.p_value - 1.0) * pot._integrand(r) / pot.flux_integral_at(r)


def _capacity_at(pot: RadialPotential, h, w_prime):
    """Normalized capacity of the spheres where the warp is h and w' = w_prime."""
    return h**2 * (w_prime / (3.0 - pot.p_value)) ** (pot.p_value - 1.0)


def capacity(pot: RadialPotential, t: float) -> float:
    """Normalized capacity of the level set {w = t}."""
    r = radius_of_level(pot, [float(t)])
    h = pot.model.warp.h(r)
    return float(_capacity_at(pot, h, _w_prime_at(pot, r))[0])
