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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import ConvergenceError, DomainError
from .numerics import cell_integrals, geometric_grid, interval_integrals, log_log_fit

__all__ = [
    "PExponent",
    "as_p",
    "RadialPotential",
    "PotentialSample",
    "DecayReport",
    "solve_radial",
    "radius_of_level",
    "capacity",
    "decay_check",
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


class PotentialSample(NamedTuple):
    u: float
    u_prime: float
    w: float
    w_prime: float
    t: float


@dataclass(frozen=True, eq=False)
class RadialPotential:
    """Solved radial capacitary potential on [r0, r_trunc].

    ``grid`` is a geometric grid, ``normalizer`` is I(r0), and ``suffix``
    holds I at every grid node (tail included).  Any quantity is re-evaluated
    at off-grid radii from I there rather than by interpolation (see
    :meth:`state_at`): from the closed form when the warp is a power law,
    else by one extra panel of quadrature.  ``w`` is kept at the nodes; the
    node samples of u, u' and w' are built from ``suffix`` on first use.
    Without a power law, the grid cells and every later panel take the
    12-point Gauss rule.
    """

    model: geometry.ManifoldModel
    p: PExponent
    r0: float
    normalizer: float
    grid: np.ndarray
    w: np.ndarray
    suffix: np.ndarray
    tail: float
    tail_beta: float

    @property
    def p_value(self) -> float:
        return self.p.value

    @property
    def r_trunc(self) -> float:
        return float(self.grid[-1])

    @property
    def t_max(self) -> float:
        return float(self.w[-1])

    @functools.cached_property
    def _power_law(self) -> _PowerLawFlux | None:
        return _exact_power_law(self.model.warp, self.p.value)

    @functools.cached_property
    def _integrand(self):
        return _flux_density(self.model.warp, self.p.value)

    @functools.cached_property
    def u(self) -> np.ndarray:
        return self.suffix / self.normalizer

    @functools.cached_property
    def u_prime(self) -> np.ndarray:
        return -self._integrand(self.grid) / self.normalizer

    @functools.cached_property
    def w_prime(self) -> np.ndarray:
        return (self.p.value - 1.0) * self._integrand(self.grid) / self.suffix

    def require_radius(self, r: float) -> float:
        r = float(r)
        if not (self.grid[0] <= r <= self.grid[-1]):
            raise DomainError(
                f"radius {r} outside the solved range [{self.grid[0]}, {self.grid[-1]}]"
            )
        return r

    def flux_integral_at(self, r) -> np.ndarray:
        """I(r) evaluated exactly: the closed form of a power law, else suffix
        sums plus one partial Gauss panel.

        The partial panel [r, next node] lies inside a grid cell, so the
        12-point rule bounds its error at least as well as the cell's.  A
        radius outside the solved range, NaN included, is refused.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        inside = (r >= self.grid[0]) & (r <= self.grid[-1])
        if not inside.all():
            raise DomainError(
                f"flux integral requested at r = {float(r[~inside][0])!r}, outside the solved "
                f"range [{self.grid[0]}, {self.grid[-1]}]"
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
            np.clip(j, 0, self.grid.size - 2, out=j)
        out = interval_integrals(self._integrand, r, self.grid[j + 1])
        out += self.suffix[j + 1]
        exact = r == self.grid[j]
        out[exact] = self.suffix[j[exact]]
        return out

    def state_at(self, r: float) -> PotentialSample:
        """(u, u', w, w') at one radius, from I there (see :meth:`flux_integral_at`)."""
        r = self.require_radius(r)
        flux = float(self.flux_integral_at(r)[0])
        hq = float(self._integrand(r))
        k = self.p.value - 1.0
        u = flux / self.normalizer
        w = k * (math.log(self.normalizer) - math.log(flux))
        return PotentialSample(u, -hq / self.normalizer, w, k * hq / flux, w)


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

    The truncation radius defaults to min(1e4 * r0, model.r_max).  When the
    warp is a power law h = c r^beta (beta = ``warp.power_law``, c = h(1)), I
    is its closed form c^(-q) r^(1 - q beta) / (q beta - 1) at every node,
    tail I(r_max) included, and no quadrature runs.  Any other warp is
    integrated cell by cell with the 12-point Gauss rule, and the tail of I
    beyond truncation is the same closed form for the power law fitted by
    least squares to h over the outermost decade of the grid.  If the growth
    is too slow for the tail integral to converge the solver refuses loudly.

    A solve allocates only the arrays it keeps, ``grid``, ``suffix`` and
    ``w``, plus, without a power law, one block of quadrature scratch: the
    closed form, or the cells summed from the outer end and completed by the
    tail, is written into ``suffix``, and ``w`` is built in the array of
    log I.  Every value rounds as the same formulas with fresh arrays would.
    ConvergenceError refuses, in this order: a scale c^(-q) of an exact power
    law that overflows or underflows to 0.0, a non-positive or non-finite
    cell, a fitted scale that overflows or underflows, a divergent tail, a
    tail that underflows to 0.0, an overflowing I(r0), and an I that fails to
    decrease.
    """
    p = as_p(p)
    r0 = float(r0)
    if r0 <= 0.0:
        raise DomainError(f"inner radius r0 must be positive, got {r0}")
    if r0 < model.r_min:
        raise DomainError(f"r0 = {r0} lies inside the excluded core (r_min = {model.r_min})")
    if r_max is None:
        r_max = min(1e4 * r0, model.r_max)
    r_max = float(r_max)
    if r_max > model.r_max:
        raise DomainError(f"truncation radius {r_max} exceeds the model domain ({model.r_max})")
    if not r0 < r_max:
        raise DomainError(f"need r0 < r_max, got {r0} >= {r_max}")
    if n_grid < 16:
        raise DomainError("n_grid must be at least 16")

    q = 2.0 / (p.value - 1.0)
    grid = geometric_grid(r0, r_max, int(n_grid))
    suffix = np.empty_like(grid)
    law = _exact_power_law(model.warp, p.value)
    fitted = law is None
    if fitted:
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
    else:
        tail = float(law.flux(grid, out=suffix)[-1])
    if tail == 0.0:
        raise ConvergenceError(
            f"tail integral of h^(-2/(p-1)) underflows to 0.0: c^(-q) = {law.scale!r} times "
            f"r_max^(1 - q beta) with r_max = {r_max!r}, {'fitted ' if fitted else ''}beta = "
            f"{beta!r}, q = 2/(p-1) = {q!r}; I(r_max) and t_max need a positive tail"
        )
    normalizer = float(suffix[0])
    if not math.isfinite(normalizer):
        raise ConvergenceError(
            f"flux integral I(r0) overflows: I(r0) = {normalizer!r} with the tail "
            f"I(r_max) = {tail!r}"
        )
    if np.any(suffix[1:] >= suffix[:-1]):
        raise ConvergenceError("flux integral failed to be strictly decreasing")

    w = np.log(suffix)
    np.subtract(math.log(normalizer), w, out=w)
    w *= p.value - 1.0
    return RadialPotential(
        model=model,
        p=p,
        r0=r0,
        normalizer=normalizer,
        grid=grid,
        w=w,
        suffix=suffix,
        tail=float(tail),
        tail_beta=float(beta),
    )


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


def _invert_levels(pot: RadialPotential, t: np.ndarray) -> np.ndarray:
    w, grid = pot.w, pot.grid
    j = np.searchsorted(w, t, side="left")
    node = np.minimum(j, w.size - 1)
    radii = grid[node]
    todo = np.flatnonzero((j > 0) & (w[node] != t))
    if todo.size == 0:
        return radii
    j = j[todo]
    t = t[todo]
    a, b = grid[j - 1], grid[j]
    # every iterate stays in its bracket cell, so I is read there as
    # flux_integral_at reads it, without its range check and search
    cell = j - 1
    x = a + (t - w[j - 1]) / (w[j] - w[j - 1]) * (b - a)
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


class DecayReport(NamedTuple):
    """Fitted constant and trend test for the decay bound u <= K r^(-(alpha+1-p)/(p-1))."""

    K: float
    exponent: float
    tail_slope: float
    passed: bool


DECAY_SLOPE_TOL = 0.02  # largest log-log slope of u r^e on the outer decade


def decay_check(pot: RadialPotential, alpha: float) -> DecayReport:
    """Check the power decay of u dictated by volume growth r^(1+alpha).

    Fits K = sup over the outer half of the grid of u * r^e with
    e = (alpha+1-p)/(p-1), and requires log(u r^e) to have no upward trend on
    the outermost decade (slope <= DECAY_SLOPE_TOL in log-log coordinates).
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise DomainError(f"growth exponent alpha must be a finite number, got {alpha}")
    model = pot.model
    r_hi = pot.r_trunc
    r_lo = max(r_hi / 100.0, model.r_min * 10.0, pot.r0)
    fitted = geometry.growth_exponent(model, r_lo, r_hi).alpha_hat
    if abs(alpha - fitted) > 0.05:
        raise DomainError(
            f"alpha = {alpha:.4f} inconsistent with the fitted growth exponent {fitted:.4f} "
            "(tolerance 0.05)"
        )
    e = (alpha + 1.0 - pot.p_value) / (pot.p_value - 1.0)
    product = pot.u * pot.grid**e
    outer = pot.grid >= math.sqrt(pot.r0 * r_hi)
    K = float(np.max(product[outer]))
    last_decade = pot.grid >= r_hi / 10.0
    slope, _ = log_log_fit(pot.grid[last_decade], product[last_decade])
    return DecayReport(K=K, exponent=e, tail_slope=slope, passed=bool(slope <= DECAY_SLOPE_TOL))
