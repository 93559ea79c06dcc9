"""Level-set functionals of the radial potential and their exact-derivative audits.

Two scalar quantities drive everything here.  With m = 3 - p, A(t) the level
set area, H its mean curvature, and w' = |grad w| on the level set:

    F(t) = integral of H^2/4 - (H/2 - |grad w|/m)^2       (Willmore proxy)
         = A * (H w'/m - w'^2/m^2)                        (expanded, radial)
    G(t) = integral of (|grad w|/m)^2 = A * w'^2 / m^2    (gradient energy)

Both are non-increasing in t when Ricci is nonnegative.  Their closed-form
derivative integrands match dF/dt and dG/dt up to two exact constants

    c_F : dF/dt vs the closed-form integrand                      (exactly 1)
    c_G : dG/dt vs the raw integrand
          (1/(p-1)) * integral of 2|grad w|^2 - m H |grad w|     (exactly 1/m^2)

c_G differs from 1 because the raw integrand omits the 1/m^2 normalization
that G itself carries.  ``tests/test_symbolic.py`` proves both constants, and
the divergence identities for the radial fields X = |grad w| grad w and
Y = (Laplacian w) - w'' - |grad w|^2/m, for a generic warp by eliminating w''
with the radial p-harmonic ODE; the report rows and every scenario carry the
exact constants of :func:`_exact_constants`.  :func:`audit_constants` stays as
a numerical oracle: it measures the constants as medians of centered
finite-difference ratios and compares an independent spline-derivative route
for the divergences against the candidate right-hand sides, including the
dimensionally inhomogeneous variant of div(X) (a bare mean-curvature term
without its gradient factor), which it reports so tests can reject it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import DomainError
from .geometry import EIGHT_PI, LevelSetData, ManifoldModel
from .potential import (
    RadialPotential,
    _capacity_at,
    _w_prime_at,
    as_p,
    radius_of_level,
    solve_radial,
)

__all__ = [
    "MonotoneSample",
    "AuditConstants",
    "DivergenceSample",
    "GaussBonnetResult",
    "PinchedInequalityReport",
    "HolderChainSample",
    "SmallSphereExpansion",
    "value_F",
    "value_G",
    "monotone_sample",
    "monotone_levels",
    "level_table",
    "audit_constants",
    "div_fields",
    "gauss_bonnet",
    "pinched_inequalities",
    "high_genus_branch_slack",
    "holder_chain",
    "willmore",
    "small_sphere_expansion",
]

SIXTEEN_PI = 16.0 * math.pi
FD_STEP = 1e-3  # level step of every centered finite difference
SPHERE_FIT_MAX = 0.05  # the small-sphere fit uses radii in (0, SPHERE_FIT_MAX]
SPHERE_FIT_SAMPLES = 64


class MonotoneSample(NamedTuple):
    """All level-set quantities evaluated at a single level t."""

    t: float
    r: float
    area: float
    mean_curvature: float
    grad_w: float
    F: float
    G: float
    dF_fd: float
    dG_fd: float
    dF_cf: float
    dG_cf: float
    cap: float
    gb: float
    willmore: float


class AuditConstants(NamedTuple):
    """Proportionality constants between finite differences and closed forms."""

    p: float
    c_F: float
    c_G: float
    c_F_spread: float
    c_G_spread: float
    c_G_expected: float
    div_x_mismatch: float
    div_x_inhomogeneous_mismatch: float
    div_y_mismatch: float
    notes: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "c_F": self.c_F,
            "c_G": self.c_G,
            "c_F_spread": self.c_F_spread,
            "c_G_spread": self.c_G_spread,
            "c_G_expected": self.c_G_expected,
            "div_x_mismatch": self.div_x_mismatch,
            "div_x_inhomogeneous_mismatch": self.div_x_inhomogeneous_mismatch,
            "div_y_mismatch": self.div_y_mismatch,
            "notes": list(self.notes),
        }


class GaussBonnetResult(NamedTuple):
    integral: float
    nearest_multiple: int


class DivergenceSample(NamedTuple):
    """Spline-derivative divergences vs candidate closed-form right-hand sides."""

    r: float
    div_x: float
    div_y: float
    claim_x: float
    claim_y: float
    claim_x_inhomogeneous: float
    near_edge: bool


class PinchedInequalityReport(NamedTuple):
    """Both sides of the sphere-branch pinching inequality on one level set."""

    t: float
    r: float
    eps: float
    gb_integral: float
    ric_normal_integral: float
    willmore_integral: float
    lhs: float
    rhs: float
    slack: float
    satisfied: bool


class HolderChainSample(NamedTuple):
    """Capacity growth law chained against its interpolation upper bound."""

    t: float
    lhs: float
    mid: float
    rhs: float
    equality_gap: float


class SmallSphereExpansion(NamedTuple):
    """Fitted r^2 coefficient of the Willmore deficit near the pole."""

    coefficient: float
    expected: float
    relative_deviation: float
    n_samples: int


class _Level(NamedTuple):
    """A batch of level sets {w = t}, one array entry per level: the radii, the
    geometry of those spheres, w' there and the quantities read off them (see
    :func:`_level`)."""

    r: np.ndarray
    geo: LevelSetData
    wp: np.ndarray
    F: np.ndarray
    G: np.ndarray
    dF_raw: np.ndarray
    dG_raw: np.ndarray
    cap: np.ndarray


def _closed_forms(geo: LevelSetData, wp, p):
    """F, G, dF_raw and dG_raw on the spheres of geo where |grad w| = wp.

    dF_raw is the closed-form dF/dt integrand evaluated radially and dG_raw
    the raw dG/dt integrand (1/(p-1)) * (2 w'^2 - m H w') * area, neither with
    its constant of :func:`_exact_constants` applied.  The full dF/dt integrand is
        Ric(nu,nu) + |traceless II|^2 + |tangential grad of |grad w||^2/|grad w|^2
                   + (m/(2(p-1))) (H - 2|grad w|/m)^2,
    times -area/m.  On a rotationally symmetric model the traceless second
    fundamental form vanishes and |grad w| is constant on each level set, so
    the middle two terms are kept as explicit zeros rather than dropped.
    Plain arithmetic only: floats, arrays and symbolic expressions all pass,
    which lets the tests prove these very expressions exact.
    """
    m = 3.0 - p
    tangential_gradient_term = 0.0  # |grad w| is constant on radial level sets
    square = geo.mean_curvature - 2.0 * wp / m
    integrand = geo.ric_normal + geo.traceless_sff_norm_sq + tangential_gradient_term
    integrand += (m / (2.0 * (p - 1.0))) * square * square
    return (
        geo.area * (geo.mean_curvature * wp / m - wp * wp / (m * m)),
        geo.area * wp * wp / (m * m),
        -(geo.area / m) * integrand,
        (geo.area / (p - 1.0)) * (2.0 * wp * wp - m * geo.mean_curvature * wp),
    )


def _level(pot: RadialPotential, t) -> _Level:
    """Invert the levels t at once and derive every per-level quantity from their spheres.

    One inversion, one warp call and one flux_integral_at call serve the whole
    batch, and every step is elementwise, so a level's numbers do not depend on
    the batch it was computed in.  F, G, dF_raw and dG_raw are those of
    :func:`_closed_forms`.
    """
    r = radius_of_level(pot, np.atleast_1d(np.asarray(t, dtype=float)))
    h, h1, h2 = pot.model.warp(r)
    geo = geometry._levelset_data(r, h, h1, h2)
    wp = _w_prime_at(pot, r)
    F, G, dF_raw, dG_raw = _closed_forms(geo, wp, pot.p_value)
    return _Level(
        r=r, geo=geo, wp=wp, F=F, G=G, dF_raw=dF_raw, dG_raw=dG_raw, cap=_capacity_at(pot, h, wp)
    )


def value_F(pot: RadialPotential, t: float) -> float:
    """The Willmore-proxy quantity F at level t (no derivatives computed)."""
    return float(_level(pot, [float(t)]).F[0])


def value_G(pot: RadialPotential, t: float) -> float:
    """The gradient-energy quantity G at level t (no derivatives computed)."""
    return float(_level(pot, [float(t)]).G[0])


def _stencil(t: np.ndarray) -> np.ndarray:
    """The levels t + dt, t - dt, t + dt/2, t - dt/2 (dt = FD_STEP), concatenated in that order."""
    dt = FD_STEP
    return np.concatenate([t + dt, t - dt, t + dt / 2.0, t - dt / 2.0])


def _fd_derivative(values: np.ndarray) -> np.ndarray:
    """d/dt from values at the :func:`_stencil` levels, as the Richardson-extrapolated
    centered difference (4 D(dt/2) - D(dt)) / 3 with dt = FD_STEP."""
    dt = FD_STEP
    hi, lo, hi2, lo2 = values.reshape(4, -1)
    return (4.0 * ((hi2 - lo2) / dt) - (hi - lo) / (2.0 * dt)) / 3.0


def _exact_constants(p: float) -> tuple[float, float]:
    """The exact derivative constants (c_F, c_G) = (1, (3-p)^-2) that :func:`audit_constants` measures."""
    m = 3.0 - p
    return 1.0, 1.0 / (m * m)


def _in_fd_window(pot: RadialPotential, t) -> np.ndarray:
    """Which levels t have their finite-difference stencil inside [0, t_max]:
    FD_STEP <= t <= t_max - FD_STEP."""
    return (FD_STEP <= t) & (t <= pot.t_max - FD_STEP)


def _libm_exp(x: np.ndarray) -> np.ndarray:
    """math.exp at each element.  numpy's SIMD exp rounds some arguments
    differently, and these values reach the emitted report bytes."""
    return np.array([math.exp(v) for v in x.tolist()])


def _table(pot: RadialPotential, ts, extra=()) -> tuple[dict, np.ndarray]:
    """The level table at the levels ts (see :func:`level_table`) and the radii
    of the levels ``extra``, from one batch: 0, ts, their stencils and extra."""
    ts = np.asarray(ts, dtype=float)
    outside = ~_in_fd_window(pot, ts)
    if np.any(outside):
        raise DomainError(
            f"level range violation: need dt <= t <= t_max - dt, "
            f"got t = {ts[outside][0]}, dt = {FD_STEP}, t_max = {pot.t_max:.6g}"
        )
    p = pot.p_value
    c_f, c_g = _exact_constants(p)
    n = ts.size
    lv = _level(pot, np.concatenate([[0.0], ts, _stencil(ts), extra]))
    at = slice(1, n + 1)
    stencil = slice(n + 1, 5 * n + 1)
    geo = lv.geo
    area, wp, cap = geo.area[at], lv.wp[at], lv.cap[at]
    cap0 = float(lv.cap[0])
    holder_rhs = np.array([_holder_rhs(p, a, g) for a, g in zip(area.tolist(), wp.tolist())])
    table = {
        "t": ts,
        "r": lv.r[at],
        "area": area,
        "H": geo.mean_curvature[at],
        "grad_w": wp,
        "F": lv.F[at],
        "G": lv.G[at],
        "dF_fd": _fd_derivative(lv.F[stencil]),
        "dF_cf": c_f * lv.dF_raw[at],
        "dG_fd": _fd_derivative(lv.G[stencil]),
        "dG_cf": c_g * lv.dG_raw[at],
        "cap": cap,
        "cap_ratio_to_exp_t": cap / (cap0 * _libm_exp(ts)),
        "gb": (geo.sc_tangential * geo.area)[at],
        "willmore": (geo.mean_curvature**2 * geo.area)[at],
        "holder_gap": holder_rhs - cap,
        "holder_rhs": holder_rhs,
        "cap_0": cap0,
    }
    return table, lv.r[stencil.stop :]


def _table_levels(pot: RadialPotential, n_levels: int) -> np.ndarray:
    """The n_levels evenly spaced levels in [dt, t_max - dt] of :func:`level_table`."""
    if n_levels < 2:
        raise DomainError(f"need at least 2 levels, got {n_levels}")
    ts = np.linspace(FD_STEP, pot.t_max - FD_STEP, n_levels)
    if not ts[0] < ts[-1]:
        raise DomainError(f"empty level window [{ts[0]}, {ts[-1]}]")
    return ts


def level_table(pot: RadialPotential, n_levels: int) -> dict:
    """The report columns (``report.ROW_COLUMNS``) as arrays at n_levels evenly
    spaced levels in [dt, t_max - dt], plus the Hölder bound ``holder_rhs`` and
    the float ``cap_0`` = cap(0), from one :func:`_level` batch.  Each value has
    the bits of its single-level query; the closed-form derivatives carry the
    exact constants of :func:`_exact_constants`."""
    return _table(pot, _table_levels(pot, n_levels))[0]


def _samples(table: dict) -> list[MonotoneSample]:
    """The rows of a level table as samples (column H is the field mean_curvature)."""
    names = ["H" if name == "mean_curvature" else name for name in MonotoneSample._fields]
    return [MonotoneSample(*row) for row in zip(*(table[name].tolist() for name in names))]


def monotone_sample(pot: RadialPotential, t: float) -> MonotoneSample:
    """Evaluate F, G, their finite-difference and closed-form derivatives at level t."""
    return _samples(_table(pot, [float(t)])[0])[0]


def monotone_levels(pot: RadialPotential, n_levels: int = 64) -> list[MonotoneSample]:
    """Sample the monotone quantities at n_levels evenly spaced levels in [dt, t_max - dt]."""
    return _samples(level_table(pot, n_levels))


@lru_cache(maxsize=32)
def _audit_constants_cached(p: float) -> AuditConstants:
    pot = solve_radial(geometry.power_warp_model(alpha=1.5), p, r0=1.0, n_grid=16384)
    m = 3.0 - p
    t_levels = np.linspace(0.1 * pot.t_max, 0.5 * pot.t_max, 17)

    n = t_levels.size
    lv = _level(pot, np.concatenate([t_levels, _stencil(t_levels)]))
    ratios_f = _fd_derivative(lv.F[n:]) / lv.dF_raw[:n]
    ratios_g = _fd_derivative(lv.G[n:]) / lv.dG_raw[:n]
    c_f = float(np.median(ratios_f))
    c_g = float(np.median(ratios_g))
    spread_f = float(np.max(np.abs(ratios_f / c_f - 1.0)))
    spread_g = float(np.max(np.abs(ratios_g / c_g - 1.0)))

    splines = _div_splines(pot)
    mismatch_x = 0.0
    mismatch_y = 0.0
    mismatch_x_inhomogeneous = math.inf
    for r in np.geomspace(3.0, 30.0, 9):
        sample = _div_sample(pot, float(r), splines)
        scale_x = max(abs(sample.claim_x), 1e-300)
        scale_y = max(abs(sample.claim_y), 1e-300)
        mismatch_x = max(mismatch_x, abs(sample.div_x - sample.claim_x) / scale_x)
        mismatch_y = max(mismatch_y, abs(sample.div_y - sample.claim_y) / scale_y)
        mismatch_x_inhomogeneous = min(
            mismatch_x_inhomogeneous,
            abs(sample.div_x - sample.claim_x_inhomogeneous) / scale_x,
        )

    notes = (
        f"c_F = {c_f:.12g}: the closed-form derivative of the Willmore-proxy quantity "
        f"matches finite differences with constant 1 (spread {spread_f:.2e})",
        f"c_G = {c_g:.12g} vs expected (3-p)^-2 = {1.0 / (m * m):.12g}: the raw derivative "
        f"integrand of the gradient-energy quantity omits the 1/(3-p)^2 normalization "
        f"carried by the quantity itself (spread {spread_g:.2e})",
        f"div(X) matches the homogeneous right-hand side |grad w|^2(2|grad w| - (3-p)H)/(p-1) "
        f"to {mismatch_x:.2e}; the variant with a bare mean-curvature term misses by "
        f"{mismatch_x_inhomogeneous:.2e} at best and is rejected",
        f"div(Y) matches -[Ric(nu,nu)|grad w| + |grad w| (3-p)/(2(p-1)) (H - 2|grad w|/(3-p))^2] "
        f"to {mismatch_y:.2e}",
    )
    return AuditConstants(
        p=p,
        c_F=c_f,
        c_G=c_g,
        c_F_spread=spread_f,
        c_G_spread=spread_g,
        c_G_expected=1.0 / (m * m),
        div_x_mismatch=mismatch_x,
        div_x_inhomogeneous_mismatch=mismatch_x_inhomogeneous,
        div_y_mismatch=mismatch_y,
        notes=notes,
    )


def audit_constants(p) -> AuditConstants:
    """Measure c_F and c_G once per exponent on a high-resolution power-law model.

    A numerical oracle of the exact constants (c_F, c_G) = (1, (3-p)^-2),
    which ``tests/test_symbolic.py`` proves and the scenarios report: the
    measured constants are the medians of finite-difference/closed-form
    ratios across 17 interior levels of a 16384-node solve on the
    alpha = 1.5 power warp, and the divergence identities are checked
    against an independent spline-derivative route at the same time.  No
    scenario calls it.  Cached per exponent.
    """
    return _audit_constants_cached(as_p(p).value)


def _div_splines(pot: RadialPotential):
    """Log-r spline derivatives of h^2 w'^2 and h^2 Y_r, the measured route of :func:`div_fields`."""
    from scipy.interpolate import CubicSpline  # imported here: only this route needs scipy

    h, h1, _ = pot.model.warp(pot.grid)
    m = 3.0 - pot.p_value
    wp = pot.w_prime
    mean = 2.0 * h1 / h
    h_sq = h * h
    x = np.log(pot.grid)
    y_r = mean * wp - wp**2 / m
    return (
        CubicSpline(x, h_sq * wp**2).derivative(),
        CubicSpline(x, h_sq * y_r).derivative(),
    )


def div_fields(pot: RadialPotential, r: float) -> DivergenceSample:
    """Divergences of the radial fields X and Y by two independent routes.

    The measured route differentiates spline interpolants of h^2 w'^2 and
    h^2 Y_r in log r (div of a radial field V = V_r d/dr is (h^2 V_r)'/h^2).
    The candidate closed forms are

        claim_x = |grad w|^2 (2|grad w| - (3-p) H) / (p-1)
        claim_y = -[Ric(nu,nu) |grad w|
                    + |grad w| (3-p)/(2(p-1)) (H - 2|grad w|/(3-p))^2]

    plus the dimensionally inhomogeneous div(X) variant
    |grad w| (2|grad w|^2 - (3-p) H) / (p-1), reported so the audit can
    reject it.  Points within two cells of either grid edge are flagged
    near_edge: the spline is one-sided there and its derivative degrades.
    """
    return _div_sample(pot, float(r), _div_splines(pot))


def _div_claims(geo: LevelSetData, wp, p):
    """The candidate right-hand sides of :func:`div_fields` on the spheres of geo.

    Plain arithmetic only, like :func:`_closed_forms`.
    """
    m = 3.0 - p
    claim_x = wp * wp * (2.0 * wp - m * geo.mean_curvature) / (p - 1.0)
    square = geo.mean_curvature - 2.0 * wp / m
    claim_y = -(geo.ric_normal * wp + wp * (m / (2.0 * (p - 1.0))) * square * square)
    claim_x_inhomogeneous = wp * (2.0 * wp * wp - m * geo.mean_curvature) / (p - 1.0)
    return claim_x, claim_y, claim_x_inhomogeneous


def _div_sample(pot: RadialPotential, r: float, splines) -> DivergenceSample:
    pot.require_radius(r)
    spline_x, spline_y = splines
    geo = geometry.levelset_geometry(pot.model, r)
    state = pot.state_at(r)
    h_sq = geo.area / (4.0 * math.pi)
    x = math.log(r)
    div_x = float(spline_x(x)) / (r * h_sq)
    div_y = float(spline_y(x)) / (r * h_sq)
    claim_x, claim_y, claim_x_inhomogeneous = _div_claims(geo, float(state.w_prime), pot.p_value)
    near_edge = bool(r < pot.grid[2] or r > pot.grid[-3])
    return DivergenceSample(
        r=r,
        div_x=div_x,
        div_y=div_y,
        claim_x=claim_x,
        claim_y=claim_y,
        claim_x_inhomogeneous=claim_x_inhomogeneous,
        near_edge=near_edge,
    )


def gauss_bonnet(pot: RadialPotential, t: float) -> GaussBonnetResult:
    """Total tangential scalar curvature of a level set and its nearest 8 pi multiple."""
    geo = _level(pot, [float(t)]).geo
    integral = float(geo.sc_tangential[0] * geo.area[0])
    return GaussBonnetResult(integral=integral, nearest_multiple=round(integral / EIGHT_PI))


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not 0.0 < eps <= 1.0 / 3.0:
        raise DomainError(f"pinching constant must lie in (0, 1/3], got {eps}")
    return eps


def pinched_inequalities(pot: RadialPotential, t: float, eps: float) -> PinchedInequalityReport:
    """Evaluate the pinching inequality on the level set at t (sphere branch).

    Radial level sets are round spheres, so the total tangential curvature is
    always 8 pi and only the genus-zero branch applies; the nonpositive
    branch is exposed separately through :func:`high_genus_branch_slack`.
    """
    eps = _check_eps(eps)
    t = float(t)
    lv = _level(pot, [t])
    area = float(lv.geo.area[0])
    gb_integral = float(lv.geo.sc_tangential[0]) * area
    ric_integral = float(lv.geo.ric_normal[0]) * area
    willmore_integral = float(lv.geo.mean_curvature[0]) ** 2 * area
    lhs = 2.0 * ric_integral
    rhs = eps * (SIXTEEN_PI - willmore_integral)
    slack = lhs - rhs
    return PinchedInequalityReport(
        t=t,
        r=float(lv.r[0]),
        eps=eps,
        gb_integral=gb_integral,
        ric_normal_integral=ric_integral,
        willmore_integral=willmore_integral,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        satisfied=bool(slack >= -1e-10 * (1.0 + abs(lhs))),
    )


def high_genus_branch_slack(
    ric_normal_integral: float, traceless_integral: float, willmore_integral: float
) -> float:
    """Slack of the nonpositive-total-curvature branch from synthetic integrals.

    The branch asserts 2*integral(Ric(nu,nu) + |traceless II|^2) >= integral H^2
    whenever the total tangential curvature of the level set is <= 0.  No
    rotationally symmetric level set has that topology, so this is a pure
    formula evaluator for callers that supply the three integrals directly.
    """
    return float(2.0 * (ric_normal_integral + traceless_integral) - willmore_integral)


def holder_chain(pot: RadialPotential, t: float) -> HolderChainSample:
    """Chain e^t cap(0) = cap(t) <= interpolation bound on the level set at t.

    The upper bound is
        (1/4pi) (3-p)^(1-p) (integral |grad w|^2)^(p/3) (integral |grad w|^-1)^((3-p)/3),
    which collapses to equality whenever |grad w| is constant on the level
    set — always the case radially.
    """
    t = float(t)
    lv = _level(pot, [0.0, t])
    cap0, cap = lv.cap.tolist()
    rhs = _holder_rhs(pot.p_value, float(lv.geo.area[1]), float(lv.wp[1]))
    return HolderChainSample(t=t, lhs=math.exp(t) * cap0, mid=cap, rhs=rhs, equality_gap=rhs - cap)


def _holder_rhs(p: float, area: float, wp: float) -> float:
    """The interpolation bound of :func:`holder_chain` on a sphere of the given
    area where |grad w| = wp.  Python floats: numpy's SIMD pow rounds some
    arguments differently from ``**``."""
    m = 3.0 - p
    int_grad_sq = wp * wp * area
    int_grad_inv = area / wp
    return (
        (1.0 / (4.0 * math.pi))
        * m ** (1.0 - p)
        * int_grad_sq ** (p / 3.0)
        * int_grad_inv ** (m / 3.0)
    )


def willmore(model: ManifoldModel, r: float) -> float:
    """Total squared mean curvature of the distance sphere at radius r."""
    geo = geometry.levelset_geometry(model, float(r))
    return float(geo.mean_curvature**2 * geo.area)


def small_sphere_expansion(model: ManifoldModel) -> SmallSphereExpansion:
    """Fit the r^2 coefficient of 16 pi - willmore(r) near a smooth pole.

    Small distance spheres around a smooth point satisfy
        integral H^2 = 16 pi - (8 pi / 3) R(o) r^2 + O(r^4),
    so a single-coefficient least-squares fit of the deficit against r^2 on
    (0, SPHERE_FIT_MAX] should recover (8 pi / 3) times the scalar curvature at
    the pole, which the model carries as ``base_point_scalar``.
    """
    if not model.has_pole or not model.warp.smooth_pole:
        raise DomainError("small-sphere expansion needs a model with a smooth pole")
    if model.base_point_scalar is None:
        raise DomainError("model does not declare its scalar curvature at the pole")
    r_fit_max, n_samples = SPHERE_FIT_MAX, SPHERE_FIT_SAMPLES
    if not r_fit_max < model.r_max:
        raise DomainError(f"fit window (0, {r_fit_max}] outside the model domain")
    radii = np.linspace(r_fit_max / n_samples, r_fit_max, n_samples)
    h, h_prime, _ = model.warp(radii)
    deficit = SIXTEEN_PI * (1.0 - h_prime**2)
    r_sq = radii**2
    coefficient = float(np.dot(deficit, r_sq) / np.dot(r_sq, r_sq))
    expected = (EIGHT_PI / 3.0) * model.base_point_scalar
    scale = abs(expected) if expected != 0.0 else 1.0
    return SmallSphereExpansion(
        coefficient=coefficient,
        expected=expected,
        relative_deviation=abs(coefficient - expected) / scale,
        n_samples=n_samples,
    )
