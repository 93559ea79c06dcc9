"""Radial p-harmonic exterior potentials in closed quadrature form.

On a rotationally symmetric manifold the p-harmonic equation for a radial
function reduces to a conserved flux: h(r)^2 |u'(r)|^(p-1) is constant.  The
capacitary potential with u = 1 on the sphere {r = r0} and u -> 0 at infinity
is therefore

    u(r) = I(r) / I(r0),      I(r) = integral_r^inf h(s)^(-2/(p-1)) ds,

which this module evaluates by composite Gauss quadrature on a geometric grid
plus a closed-form power-law tail beyond the truncation radius.  The level
parameter of the potential is

    w = -(p-1) log u,   t = w(r),   w' = (p-1) |u'| / u > 0,

so w = 0 on the inner sphere and w increases monotonically outward.  The
normalized capacity of the level set {w = t} is

    cap(t) = h^2 (w'/(3-p))^(p-1) / (4 pi / (4 pi)) ... written out:
    cap(t) = h(r)^2 * (w'(r)/(3-p))^(p-1)   at r = radius_of_level(t),

normalized so the unit sphere in flat space has capacity 1, and satisfies the
exact exponential law cap(t) = e^t cap(0).

Exponents are restricted to 1 < p < 2: the monotonicity machinery built on
these potentials degenerates at p = 2, so the harmonic endpoint is excluded
by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from . import geometry
from .errors import ConvergenceError, DomainError
from .numerics import cell_integrals, interval_integrals, log_log_fit

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

    Grid samples of (u, u', w, w') live on a geometric grid; ``normalizer``
    is I(r0).  ``suffix`` holds I at every grid node (tail included), which
    lets any quantity be re-evaluated at off-grid radii by one extra panel of
    quadrature rather than interpolation (see :meth:`state_at`).
    """

    model: geometry.ManifoldModel
    p: PExponent
    r0: float
    normalizer: float
    grid: np.ndarray
    u: np.ndarray
    u_prime: np.ndarray
    w: np.ndarray
    w_prime: np.ndarray
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

    def _integrand(self, s):
        h, _, _ = self.model.warp(s)
        return h ** (-2.0 / (self.p.value - 1.0))

    def require_radius(self, r: float) -> float:
        r = float(r)
        if not (self.grid[0] <= r <= self.grid[-1]):
            raise DomainError(
                f"radius {r} outside the solved range [{self.grid[0]}, {self.grid[-1]}]"
            )
        return r

    def flux_integral_at(self, r) -> np.ndarray:
        """I(r) evaluated exactly (suffix sums plus one partial Gauss panel)."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r < self.grid[0]) or np.any(r > self.grid[-1]):
            raise DomainError("flux integral requested outside the solved range")
        j = np.searchsorted(self.grid, r, side="right") - 1
        j = np.clip(j, 0, self.grid.size - 2)
        upper = self.grid[j + 1]
        partial = interval_integrals(self._integrand, r, upper)
        out = self.suffix[j + 1] + partial
        exact = r == self.grid[j]
        out[exact] = self.suffix[j][exact]
        return out

    def state_at(self, r: float) -> PotentialSample:
        """(u, u', w, w') at one radius, from the quadrature representation."""
        r = self.require_radius(r)
        flux = float(self.flux_integral_at(r)[0])
        h, _, _ = self.model.warp(np.asarray(r))
        hq = float(h) ** (-2.0 / (self.p.value - 1.0))
        k = self.p.value - 1.0
        u = flux / self.normalizer
        w = k * (math.log(self.normalizer) - math.log(flux))
        return PotentialSample(u, -hq / self.normalizer, w, k * hq / flux, w)


def solve_radial(
    model: geometry.ManifoldModel,
    p,
    r0: float,
    *,
    n_grid: int = 4096,
    r_max: float | None = None,
) -> RadialPotential:
    """Solve the exterior capacitary problem for the radial p-Laplacian.

    The truncation radius defaults to min(1e4 * r0, model.r_max).  The tail of
    I beyond truncation is completed in closed form from a power-law fit of h
    over the outermost decade of the grid; if the fitted growth is too slow
    for the tail integral to converge the solver refuses loudly.
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
    grid = np.geomspace(r0, r_max, int(n_grid))
    h, _, _ = model.warp(grid)

    def integrand(s):
        hs, _, _ = model.warp(s)
        return hs ** (-q)

    cells = cell_integrals(integrand, grid)
    if np.any(~np.isfinite(cells)) or np.any(cells <= 0.0):
        raise ConvergenceError("flux quadrature produced non-positive or non-finite cells")

    # power-law completion of the tail: fit h ~ c r^beta on the last decade
    mask = grid >= grid[-1] / 10.0
    beta, log_c = log_log_fit(grid[mask], h[mask])
    if q * beta <= 1.0 + 1e-9:
        raise ConvergenceError(
            "tail integral of h^(-2/(p-1)) diverges: fitted warp exponent "
            f"beta = {beta:.4f} means volume growth alpha = {2 * beta:.4f} <= p - 1 = {p.value - 1:.4f}; "
            "the exterior problem needs alpha > p - 1"
        )
    tail = math.exp(-q * log_c) * r_max ** (1.0 - q * beta) / (q * beta - 1.0)

    suffix = np.empty_like(grid)
    suffix[-1] = tail
    suffix[:-1] = tail + np.cumsum(cells[::-1])[::-1]
    if np.any(np.diff(suffix) >= 0.0):
        raise ConvergenceError("flux integral failed to be strictly decreasing")

    normalizer = float(suffix[0])
    u = suffix / normalizer
    hq = h ** (-q)
    u_prime = -hq / normalizer
    k = p.value - 1.0
    w = k * (math.log(normalizer) - np.log(suffix))
    w_prime = k * hq / suffix

    return RadialPotential(
        model=model,
        p=p,
        r0=r0,
        normalizer=normalizer,
        grid=grid,
        u=u,
        u_prime=u_prime,
        w=w,
        w_prime=w_prime,
        suffix=suffix,
        tail=float(tail),
        tail_beta=float(beta),
    )


def _level_residual(r, pot: RadialPotential, k: float, log_i0: float, t: float) -> float:
    # not a closure: brentq's NaN wrapper refers to itself, and would keep pot alive
    return k * (log_i0 - math.log(float(pot.flux_integral_at(r)[0]))) - t


def radius_of_level(pot: RadialPotential, t: float) -> float:
    """Radius of the level set {w = t}; inverse of the level parameter."""
    t = float(t)
    if t < -1e-12 or t > pot.t_max + 1e-12:
        raise DomainError(
            f"level t = {t} beyond truncation: representable levels are [0, {pot.t_max:.6f}]"
        )
    t = min(max(t, 0.0), pot.t_max)
    w = pot.w
    j = int(np.searchsorted(w, t, side="left"))
    if j <= 0:
        return float(pot.grid[0])
    if j >= w.size:
        return float(pot.grid[-1])
    if w[j] == t:
        return float(pot.grid[j])
    a, b = float(pot.grid[j - 1]), float(pot.grid[j])
    args = (pot, pot.p_value - 1.0, math.log(pot.normalizer), t)
    return float(brentq(_level_residual, a, b, args=args, xtol=1e-14 * b, rtol=1e-15, maxiter=200))


def _capacity_at(pot: RadialPotential, r: float, w_prime: float) -> float:
    """Normalized capacity of the sphere at radius r, where w' = w_prime."""
    h, _, _ = pot.model.warp(np.asarray(r))
    return float(h) ** 2 * (w_prime / (3.0 - pot.p_value)) ** (pot.p_value - 1.0)


def capacity(pot: RadialPotential, t: float) -> float:
    """Normalized capacity of the level set {w = t}."""
    r = radius_of_level(pot, t)
    return _capacity_at(pot, r, pot.state_at(r).w_prime)


@dataclass(frozen=True)
class DecayReport:
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
