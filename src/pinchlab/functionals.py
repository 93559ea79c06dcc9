"""Level-set functionals of the radial potential: the level table and the exact constants.

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
that G itself carries.  ``tests/test_symbolic.py`` proves both constants for a
generic warp by eliminating w'' with the radial p-harmonic ODE; the report
rows and every scenario carry the exact constants of :func:`_exact_constants`.
:func:`level_table` evaluates every per-level quantity (F, G, both derivative
routes, capacity, the Hölder bound, Gauss-Bonnet and Willmore integrals) at any
levels from one batched inversion.  A numerical oracle of the constants and of
the divergence identities behind them lives with the tests (``tests/conftest.py``).
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import DomainError
from .geometry import EIGHT_PI, LevelSetData, ManifoldModel
# radius_of_level is re-exported: the radii of levels alone, next to the table of
# their quantities, which reads them from the same level query
from .potential import RadialPotential, _capacity_at, radius_of_level

__all__ = [
    "SmallSphereExpansion",
    "level_table",
    "radius_of_level",
    "willmore",
    "small_sphere_expansion",
]

SIXTEEN_PI = 16.0 * math.pi
FD_STEP = 1e-3  # level step of every centered finite difference
SPHERE_FIT_MAX = 0.05  # the small-sphere fit uses radii in (0, SPHERE_FIT_MAX]
SPHERE_FIT_SAMPLES = 64


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

    One level query, which returns I and h^(-q) at the radii with them, and
    one warp call serve the whole batch: w' = (p-1) h^(-q) / I.  Every step
    is elementwise, so a level's numbers do not depend on the batch it was
    computed in.  F, G, dF_raw and dG_raw are those of :func:`_closed_forms`.
    """
    r, flux, density = pot.levels(t)
    h, h1, h2 = pot.model.warp(r)
    geo = geometry._levelset_data(r, h, h1, h2)
    wp = (pot.p_value - 1.0) * density / flux
    F, G, dF_raw, dG_raw = _closed_forms(geo, wp, pot.p_value)
    return _Level(
        r=r, geo=geo, wp=wp, F=F, G=G, dF_raw=dF_raw, dG_raw=dG_raw, cap=_capacity_at(pot, h, wp)
    )


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
    """The exact derivative constants (c_F, c_G) = (1, (3-p)^-2), proved in ``tests/test_symbolic.py``."""
    m = 3.0 - p
    return 1.0, 1.0 / (m * m)


def _libm_exp(x: np.ndarray) -> np.ndarray:
    """math.exp at each element.  numpy's SIMD exp rounds some arguments
    differently, and these values reach the emitted report bytes."""
    return np.array([math.exp(v) for v in x.tolist()])


def _table(pot: RadialPotential, ts, extra=()) -> tuple[dict, np.ndarray]:
    """The level table at the levels ts (see :func:`level_table`) and the radii
    of the levels ``extra``, from one batch: 0, ts, their stencils and extra."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.ndim != 1:
        raise DomainError(f"levels must be a scalar or a 1-D sequence, got shape {ts.shape}")
    # the finite-difference stencil of each level must lie inside [0, t_max]
    outside = ~((FD_STEP <= ts) & (ts <= pot.t_max - FD_STEP))
    if outside.any():
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
    holder_rhs = _holder_rhs(p, area, wp)
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
    """n_levels evenly spaced levels in [dt, t_max - dt]: the rows of the
    ``solve``, ``monotone`` and ``contradict`` scenarios; ``n_levels`` is an
    integer by operator.index, as solve_radial's ``n_grid``."""
    try:
        n_levels = operator.index(n_levels)
    except TypeError:
        raise DomainError(f"n_levels must be an integer, got {n_levels!r}") from None
    if n_levels < 2:
        raise DomainError(f"need at least 2 levels, got {n_levels}")
    ts = np.linspace(FD_STEP, pot.t_max - FD_STEP, n_levels)
    if not ts[0] < ts[-1]:
        raise DomainError(f"empty level window [{ts[0]}, {ts[-1]}]")
    return ts


def level_table(pot: RadialPotential, ts) -> dict:
    """The report columns (``report.ROW_COLUMNS``) as arrays at the levels ts
    (a scalar or a 1-D sequence), each in [dt, t_max - dt], plus the Hölder
    bound ``holder_rhs`` and the float ``cap_0`` = cap(0), from one
    :func:`_level` batch.

    Every step is elementwise, so a level's row has the same bits whatever
    other levels share the call: ``level_table(pot, [t])`` is the single-level
    query.  The closed-form derivatives carry the exact constants of
    :func:`_exact_constants`; ``cap_ratio_to_exp_t`` is cap(t) / (e^t cap(0))
    and ``holder_gap`` is ``holder_rhs`` - cap (see :func:`_holder_rhs`).
    """
    return _table(pot, ts)[0]


def _holder_rhs(p: float, area: np.ndarray, wp: np.ndarray) -> np.ndarray:
    """The interpolation bound on cap(t) = e^t cap(0) on each sphere of the
    given areas where |grad w| = wp:
        (1/4pi) (3-p)^(1-p) (integral |grad w|^2)^(p/3) (integral |grad w|^-1)^((3-p)/3),
    which collapses to equality whenever |grad w| is constant on the level
    set, always the case radially.  Python floats, one sphere at a time:
    numpy's SIMD pow rounds some arguments differently from ``**``.  The
    factor of p alone is taken once; Python multiplies from the left, so it
    is the product each sphere would have formed first."""
    m = 3.0 - p
    factor = (1.0 / (4.0 * math.pi)) * m ** (1.0 - p)
    e_sq, e_inv = p / 3.0, m / 3.0
    return np.array(
        [factor * (g * g * a) ** e_sq * (a / g) ** e_inv for a, g in zip(area.tolist(), wp.tolist())]
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
