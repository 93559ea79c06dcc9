"""Rotationally symmetric 3-manifold models and their curvature.

A model is a metric of the form

    g = dr^2 + h(r)^2 g_{S^2},      h > 0 on (r_min, r_max],

described by a warp function h together with its first two derivatives.  All
curvature quantities of such a metric reduce to algebra in (h, h', h''):

    Ric(d_r, d_r)          = -2 h''/h                  (radial eigenvalue)
    Ric(tangential)        = -h''/h + (1 - h'^2)/h^2   (doubly degenerate)
    scalar curvature       = radial + 2 * tangential

and the centered spheres {r = const} have

    area          = 4 pi h^2
    mean curv. H  = 2 h'/h            (outward normal d_r; umbilic)
    |II|^2        = 2 (h'/h)^2        (second fundamental form)
    intrinsic sc. = 2 / h^2

Built-in warps carry analytic derivatives; user-supplied profiles are C^2
cubic splines differentiated exactly as splines.  Nothing in this module
finite-differences h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .numerics import cell_integrals, interval_integrals, log_log_fit

__all__ = [
    "WarpFunction",
    "ManifoldModel",
    "CurvatureSample",
    "LevelSetData",
    "PinchingReport",
    "GrowthReport",
    "flat_warp",
    "cone_warp",
    "power_warp",
    "positive_cap_warp",
    "spline_warp",
    "flat_model",
    "cone_model",
    "power_warp_model",
    "positive_cap_model",
    "spline_cap_model",
    "library",
    "potential_library",
    "curvature",
    "pinching_margin",
    "gauss_identity_residual",
    "ball_volume",
    "growth_exponent",
    "levelset_geometry",
]

EIGHT_PI = 8.0 * math.pi

# ---------------------------------------------------------------------------
# warp functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WarpFunction:
    """Warp profile h with analytic first and second derivatives.

    ``kind`` tags the family (flat | cone | power_warp | positive_cap |
    custom_spline); ``params`` echoes the construction parameters for
    serialization and equality checks.  Calling the warp with a float or an
    ndarray returns the triple (h, h', h'') with matching shape; :meth:`h`
    returns h alone, computed as in the triple.  ``critical_radii`` lists the
    zeros of h' where the family knows them (spline warps), so a model can
    check positivity at every interior minimum of h.  :attr:`power_law`
    follows from ``kind`` and ``params``; where it is declared, the flux
    integral I and the variational cell weights take their closed forms, and
    every other warp is integrated with the 12-point Gauss rule.
    """

    kind: str
    params: Mapping[str, float]
    smooth_pole: bool
    _evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]] = field(repr=False)
    _value: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    critical_radii: tuple[float, ...] = field(default=(), repr=False)

    def __call__(self, r):
        return self._evaluate(np.asarray(r, dtype=float))

    def h(self, r):
        """The warp h alone, for integrands that need no derivative."""
        return self._value(np.asarray(r, dtype=float))

    @property
    def power_law(self) -> float | None:
        """The exponent beta when h = c r^beta holds exactly (flat and cone 1,
        power_warp alpha/2), else None."""
        if self.kind in ("flat", "cone"):
            return 1.0
        if self.kind == "power_warp":
            return 0.5 * self.params["alpha"]
        return None


def flat_warp() -> WarpFunction:
    """h(r) = r: Euclidean space."""

    def h(r):
        return r

    def ev(r):
        return h(r), np.ones_like(r), np.zeros_like(r)

    return WarpFunction("flat", {}, True, ev, h)


def cone_warp(a: float) -> WarpFunction:
    """h(r) = a r: metric cone over a round sphere of radius a (a != 1 has a conical point)."""
    a = float(a)
    if a <= 0.0:
        raise DomainError(f"cone slope must be positive, got {a}")

    def h(r):
        return a * r

    def ev(r):
        return h(r), np.full_like(r, a), np.zeros_like(r)

    return WarpFunction("cone", {"a": a}, abs(a - 1.0) < 1e-15, ev, h)


def power_warp(alpha: float) -> WarpFunction:
    """h(r) = r^(alpha/2): area of spheres grows like r^alpha, balls like r^(1+alpha)."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"power_warp exponent alpha must lie in (0, 2], got {alpha}")
    beta = 0.5 * alpha

    def h(r):
        return r**beta

    def ev(r):
        return h(r), beta * r ** (beta - 1.0), beta * (beta - 1.0) * r ** (beta - 2.0)

    return WarpFunction("power_warp", {"alpha": alpha}, abs(alpha - 2.0) < 1e-15, ev, h)


def positive_cap_warp(k: float) -> WarpFunction:
    """h(r) = sin(sqrt(k) r)/sqrt(k): constant sectional curvature k, scalar 6k."""
    k = float(k)
    if k <= 0.0:
        raise DomainError(f"positive_cap curvature must be positive, got {k}")
    s = math.sqrt(k)

    def h(r):
        return np.sin(s * r) / s

    def ev(r):
        return h(r), np.cos(s * r), -s * np.sin(s * r)

    return WarpFunction("positive_cap", {"k": k}, True, ev, h)


def spline_warp(knots, values, *, smooth_pole: bool = False) -> WarpFunction:
    """C^2 cubic-spline warp through (knots, values); derivatives come from the spline."""
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)
    if knots.ndim != 1 or knots.size < 4:
        raise DomainError("custom_spline needs at least 4 knots")
    if knots.shape != values.shape:
        raise DomainError("custom_spline knots and values must have equal length")
    if np.any(np.diff(knots) <= 0.0):
        raise DomainError("custom_spline knots must be strictly increasing")
    from scipy.interpolate import CubicSpline  # imported here: only spline warps need scipy

    spline = CubicSpline(knots, values)  # not-a-knot: reproduces cubics exactly
    d1 = spline.derivative(1)
    d2 = spline.derivative(2)

    def ev(r):
        return spline(r), d1(r), d2(r)

    params = {"knots": tuple(map(float, knots)), "values": tuple(map(float, values))}
    critical = tuple(float(r) for r in d1.roots() if math.isfinite(r))
    return WarpFunction("custom_spline", params, smooth_pole, ev, spline, critical)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifoldModel:
    """A warp function restricted to a radial domain [r_min, r_max].

    r_min == 0 means the domain closes up smoothly at a pole; r_min > 0 means
    the model has an inner boundary sphere (cones and other profiles that are
    singular or lose curvature control near the axis).  ``base_point_scalar``
    is the scalar curvature at the pole when one exists and is known.
    """

    warp: WarpFunction
    r_min: float
    r_max: float
    base_point_scalar: float | None = None
    name: str = ""

    def __post_init__(self):
        if self.r_min < 0.0:
            raise DomainError(f"r_min must be >= 0, got {self.r_min}")
        if not self.r_min < self.r_max < math.inf:
            raise DomainError(f"need r_min < r_max < inf, got [{self.r_min}, {self.r_max}]")
        lo = self.r_min if self.r_min > 0.0 else self.r_max * 1e-9
        interior_critical = [r for r in self.warp.critical_radii if self.r_min < r < self.r_max]
        h = self.warp.h(np.concatenate([np.geomspace(lo, self.r_max, 16), interior_critical]))
        if not np.all(np.isfinite(h)) or np.any(h <= 0.0):
            raise DomainError("warp function must be positive and finite on the domain")

    @property
    def has_pole(self) -> bool:
        return self.r_min == 0.0

    def require_radius(self, r: float) -> float:
        r = float(r)
        # Boundary models (r_min > 0) include their inner boundary sphere;
        # pole models exclude r = 0 where the warp vanishes.
        lo_ok = r >= self.r_min if self.r_min > 0.0 else r > 0.0
        if not (lo_ok and r <= self.r_max):
            left = "[" if self.r_min > 0.0 else "("
            raise DomainError(
                f"radius {r} outside the model domain {left}{self.r_min}, {self.r_max}]"
            )
        return r

    def describe(self) -> dict:
        return {
            "kind": self.warp.kind,
            "params": dict(self.warp.params),
            "r_min": self.r_min,
            "r_max": self.r_max,
            "base_point_scalar": self.base_point_scalar,
        }


def flat_model(r_max: float = 1e4) -> ManifoldModel:
    return ManifoldModel(flat_warp(), 0.0, r_max, base_point_scalar=0.0, name="flat")


def cone_model(a: float = 0.8, r_min: float = 1e-4, r_max: float = 1e4) -> ManifoldModel:
    # The cone point r = 0 is excluded: the metric is singular there, so cone
    # models are boundary models with a small default inner radius.
    if r_min <= 0.0:
        raise DomainError("cone models exclude the conical point; r_min must be > 0")
    return ManifoldModel(cone_warp(a), r_min, r_max, base_point_scalar=None, name=f"cone({a:g})")


def power_warp_model(alpha: float = 1.5, r_min: float = 0.25, r_max: float = 1e4) -> ManifoldModel:
    # For alpha < 2 the tangential Ricci eigenvalue of h = r^(alpha/2) turns
    # negative below r = (beta(2 beta - 1))^(1/(2-2 beta)), beta = alpha/2,
    # which stays under 0.224 for every alpha in (1, 2].  Starting the domain
    # at 0.25 keeps the library model nonnegatively curved.
    if r_min <= 0.0:
        raise DomainError("power_warp models are boundary models; r_min must be > 0")
    return ManifoldModel(
        power_warp(alpha), r_min, r_max, base_point_scalar=None, name=f"power_warp({alpha:g})"
    )


def positive_cap_model(k: float = 1.0, r_max: float | None = None) -> ManifoldModel:
    if k <= 0.0:
        raise DomainError(f"positive_cap curvature must be positive, got {k}")
    if r_max is None:
        r_max = 0.45 * math.pi / math.sqrt(k)
    return ManifoldModel(
        positive_cap_warp(k), 0.0, float(r_max), base_point_scalar=6.0 * k, name=f"positive_cap({k:g})"
    )


def spline_cap_model(k: float = 0.5, r_max: float = 0.5, n_knots: int = 41) -> ManifoldModel:
    """Spline model of a constant-curvature cap near its pole: h = r - k r^3/6."""
    knots = np.linspace(0.0, float(r_max), int(n_knots))
    values = knots - k * knots**3 / 6.0
    warp = spline_warp(knots, values, smooth_pole=True)
    return ManifoldModel(warp, 0.0, float(r_max), base_point_scalar=6.0 * k, name=f"spline_cap({k:g})")


def library() -> dict[str, ManifoldModel]:
    """The standing model library used across tests and reports."""
    return {
        "flat": flat_model(),
        "cone_0.8": cone_model(0.8),
        "power_warp_1.5": power_warp_model(1.5),
        "positive_cap_1": positive_cap_model(1.0),
        "spline_cap_0.5": spline_cap_model(0.5),
    }


def potential_library() -> dict[str, ManifoldModel]:
    """The noncompact library models on which the exterior potential problem is solvable."""
    return {
        "flat": flat_model(),
        "cone_0.8": cone_model(0.8),
        "power_warp_1.5": power_warp_model(1.5),
    }


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


class CurvatureSample(NamedTuple):
    """Ricci eigenvalues and scalar curvature at one radius."""

    r: float
    ric_radial: float
    ric_tangential: float
    scalar: float


class LevelSetData(NamedTuple):
    """Extrinsic and intrinsic geometry of the centered sphere {r = const}."""

    r: float
    area: float
    mean_curvature: float
    sff_norm_sq: float
    traceless_sff_norm_sq: float
    sc_tangential: float
    ric_normal: float


def _curvature_arrays(model: ManifoldModel, r: np.ndarray):
    h, h1, h2 = model.warp(r)
    ric_rad = -2.0 * h2 / h
    ric_tan = -h2 / h + (1.0 - h1**2) / h**2
    return ric_rad, ric_tan, ric_rad + 2.0 * ric_tan


def curvature(model: ManifoldModel, r: float) -> CurvatureSample:
    r = model.require_radius(r)
    rad, tan, sc = _curvature_arrays(model, np.asarray(r))
    if not (np.isfinite(rad) and np.isfinite(tan)):
        raise ConvergenceError(f"curvature evaluation produced non-finite values at r={r}")
    return CurvatureSample(r, float(rad), float(tan), float(sc))


def levelset_geometry(model: ManifoldModel, r: float) -> LevelSetData:
    r = model.require_radius(r)
    h, h1, h2 = model.warp(np.asarray(r))
    return _levelset_data(r, float(h), float(h1), float(h2))


def _levelset_data(r, h, h1, h2) -> LevelSetData:
    """Geometry of the spheres at radii r from the warp triple there (floats or arrays)."""
    area = 4.0 * math.pi * h * h
    mean = 2.0 * h1 / h
    sff_sq = 2.0 * (h1 / h) ** 2
    # umbilic spheres: the traceless part vanishes; keep the defining
    # combination so the identity is exercised in floating point
    traceless = sff_sq - 0.5 * mean * mean
    return LevelSetData(
        r=r,
        area=area,
        mean_curvature=mean,
        sff_norm_sq=sff_sq,
        traceless_sff_norm_sq=traceless,
        sc_tangential=2.0 / (h * h),
        ric_normal=-2.0 * h2 / h,
    )


def gauss_identity_residual(model: ManifoldModel, r: float) -> float:
    """Relative residual of the traced Gauss equation at radius r.

    The intrinsic scalar curvature of a level sphere must equal
    ambient scalar - 2 Ric(normal, normal) + H^2 - |II|^2; both sides are
    assembled from independent formulas and subtracted.  The difference is
    normalized by the largest constituent magnitude: near a pole the terms
    grow like 1/h^2, so an absolute residual would merely measure float
    cancellation noise amplified by the curvature scale.
    """
    sample = curvature(model, r)
    lsd = levelset_geometry(model, r)
    terms = (
        sample.scalar,
        -2.0 * lsd.ric_normal,
        lsd.mean_curvature**2,
        -lsd.sff_norm_sq,
    )
    residual = lsd.sc_tangential - sum(terms)
    scale = max(abs(lsd.sc_tangential), *(abs(t) for t in terms), 1.0)
    return residual / scale


# ---------------------------------------------------------------------------
# pinching
# ---------------------------------------------------------------------------


class PinchingReport(NamedTuple):
    """Largest eps with Ric >= eps R g on the sampled grid, plus a sign check on Ric."""

    margin: float
    nonneg_ricci: bool
    worst_radius: float
    n_scalar_positive: int


PINCHING_GRID_N = 256  # radii of the geometric pinching grid
PINCHING_RICCI_TOL = 1e-10  # Ricci eigenvalues above -tol (1 + |R|) count as nonnegative


def pinching_margin(model: ManifoldModel) -> PinchingReport:
    """Measure the Ricci pinching Ric >= eps R g over a geometric radial grid.

    The grid spans [r_min, r_max] (from 1e-6 r_max when the model has a pole).
    Returns the minimum over the grid of min(eigenvalues)/scalar where the
    scalar curvature is positive, clamped to [0, 1/3].  A grid on which the
    curvature vanishes identically (flat space) reports the vacuous optimum
    1/3.  Models with a negative Ricci eigenvalue anywhere are not pinched at
    any positive eps and report margin 0 together with nonneg_ricci = False.
    """
    lo = model.r_min if model.r_min > 0.0 else model.r_max * 1e-6
    grid = np.geomspace(lo, model.r_max, PINCHING_GRID_N)
    rad, tan, sc = _curvature_arrays(model, grid)
    eig_min = np.minimum(rad, tan)
    scale = 1.0 + np.abs(sc)
    nonneg = bool(np.all(eig_min >= -PINCHING_RICCI_TOL * scale))
    positive = sc > 0.0
    n_pos = int(np.count_nonzero(positive))
    if not nonneg:
        worst = float(grid[np.argmin(eig_min / scale)])
        return PinchingReport(0.0, False, worst, n_pos)
    if n_pos == 0:
        # curvature-free grid: the pinching condition is vacuous, eps = 1/3
        return PinchingReport(1.0 / 3.0, True, float(grid[0]), 0)
    ratio = eig_min[positive] / sc[positive]
    i = int(np.argmin(ratio))
    margin = float(min(max(ratio[i], 0.0), 1.0 / 3.0)) + 0.0  # normalize -0.0
    return PinchingReport(margin, True, float(grid[positive][i]), n_pos)


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------


class GrowthReport(NamedTuple):
    """Fitted volume-growth exponent alpha (|B_r| ~ r^(1+alpha)) and asymptotic volume ratio."""

    alpha_hat: float
    avr: float | None
    slope: float
    n_samples: int


VOLUME_CELL_RATIO = 1.2  # ratio of consecutive edges of the volume table
POLE_CUT = 1e-10  # pole models: the table starts at POLE_CUT * r_max, below it the pole piece


def _pole_volume(model: ManifoldModel, r: np.ndarray) -> np.ndarray:
    """Volume of the balls of radii r around a pole, from the local power law of h.

    With h ~ c s^beta near the pole, 4 pi int_0^r h^2 = 4 pi h(r)^2 r / (2 beta + 1),
    and beta = r h'(r) / h(r).
    """
    h, h1, _ = model.warp(r)
    beta = r * h1 / h
    return 4.0 * math.pi * h * h * r / (2.0 * beta + 1.0)


def ball_volume(model: ManifoldModel, r):
    """Volume of the metric ball {radius <= r}, integrating 4 pi h^2 from r_min.

    ``r`` is a scalar (the volume is a float) or an array of radii (an array of
    the same shape).  One cumulative table serves the whole call: 12-point
    Gauss-Legendre cells on the geometric edges lo * VOLUME_CELL_RATIO^k, each
    radius adding the partial cell from the last edge below it.  lo is r_min,
    or POLE_CUT * r_max on a pole model, where the ball of radius lo is the
    pole piece of :func:`_pole_volume`.  The edges depend on the model alone and
    cumulative sums run in order, so a radius's volume does not depend on
    which other radii share its call.
    """
    radii = np.asarray(r, dtype=float)
    flat = radii.reshape(-1)
    model.require_radius(np.min(flat))
    model.require_radius(np.max(flat))
    lo = POLE_CUT * model.r_max if model.has_pole else model.r_min

    def integrand(s):
        h = model.warp.h(s)
        return 4.0 * math.pi * h * h

    n_cells = max(int(math.log(np.max(flat) / lo) / math.log(VOLUME_CELL_RATIO)), 0) + 1
    edges = lo * VOLUME_CELL_RATIO ** np.arange(n_cells + 1)
    start = _pole_volume(model, np.array([lo])) if model.has_pole else [0.0]
    table = np.cumsum(np.concatenate([start, cell_integrals(integrand, edges)]))
    k = np.maximum(np.searchsorted(edges, flat, side="right") - 1, 0)
    volumes = table[k] + interval_integrals(integrand, edges[k], flat)
    if model.has_pole:
        below = flat < lo
        volumes[below] = _pole_volume(model, flat[below])
    return float(volumes[0]) if radii.ndim == 0 else volumes.reshape(radii.shape)


GROWTH_SAMPLES = 32  # radii of the geometric ladder the growth fit uses


def growth_exponent(model: ManifoldModel, r_lo: float, r_hi: float) -> GrowthReport:
    """Fit |B_r| ~ r^(1+alpha) over a geometric ladder of radii in [r_lo, r_hi]."""
    if not (model.r_min < r_lo < r_hi <= model.r_max):
        raise DomainError(
            f"growth window [{r_lo}, {r_hi}] must sit inside ({model.r_min}, {model.r_max}]"
        )
    radii = np.geomspace(r_lo, r_hi, GROWTH_SAMPLES)
    vols = ball_volume(model, radii)
    slope, _ = log_log_fit(radii, vols)
    alpha_hat = slope - 1.0
    avr = None
    if alpha_hat > 1.95:
        avr = float(3.0 / (4.0 * math.pi) * vols[-1] / radii[-1] ** 3)
    return GrowthReport(float(alpha_hat), avr, float(slope), GROWTH_SAMPLES)
