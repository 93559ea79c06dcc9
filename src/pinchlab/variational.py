"""Independent variational route to the capacity: the minimizer of the
discretized p-Dirichlet energy with truncation Dirichlet data.

The continuum capacity is an infimum over compactly supported test functions;
here the competitor class is piecewise-linear profiles on a geometric mesh
vanishing at a truncation radius.  Minimizing the discrete energy therefore
OVERestimates the capacity (smaller competitor class), which the
cross-validation report asserts as a signed gap.

In 1-D the discrete Euler-Lagrange equation is solved in closed form: the
interior gradient vanishes exactly when the flux through every cell is the
same.  :func:`constant_flux_profile` builds that profile for any cell weights
(any warp, not only power laws), and the energy is strictly convex, so it is
the global minimizer.  :func:`minimize_energy` certifies that profile (or a
given one) by one gradient evaluation and refuses a profile that fails; it
does not iterate, and this module imports nothing from scipy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import ConvergenceError, DomainError
from .numerics import cell_integrals, geometric_grid
from .potential import PExponent, RadialPotential, as_p

__all__ = [
    "DiscreteProblem",
    "DiscreteSolution",
    "CrossValidationReport",
    "discretize",
    "energy",
    "constant_flux_profile",
    "minimize_energy",
    "capacity_from_energy",
    "cross_validate",
]

NODE_TOL = 5e-3  # cross-validation: largest node error against the quadrature potential
CAPACITY_TOL = 5e-3  # cross-validation: largest |capacity gap|


@dataclass(frozen=True, eq=False)
class DiscreteProblem:
    """Discretized p-Dirichlet energy on a geometric mesh.

    The energy of a node profile psi with psi(r0) = 1, psi(r_cut) = 0 is
    E[psi] = sum_i m_i |dpsi_i / dx_i|^p with cell weights m_i = 4 pi
    integral of h^2 over cell i.
    """

    model: geometry.ManifoldModel
    p: PExponent
    r0: float
    mesh: np.ndarray
    weights: np.ndarray

    @property
    def r_cut(self) -> float:
        return float(self.mesh[-1])

    @property
    def n_cells(self) -> int:
        return self.mesh.size - 1

    @cached_property
    def dx(self) -> np.ndarray:
        """Cell widths."""
        return np.diff(self.mesh)


class DiscreteSolution(NamedTuple):
    """Certified minimizer of a DiscreteProblem.

    ``grad_norm`` is the max-norm of the interior gradient divided by the
    upper median cell flux (the natural scale of gradient entries, which are
    flux differences).  ``iterations`` is always 0: the minimizer is certified,
    not iterated to; the field stays because the benchmark's tracer reads it.
    """

    problem: DiscreteProblem
    psi: np.ndarray
    energy: float
    iterations: int
    grad_norm: float


def discretize(
    model: geometry.ManifoldModel, p, r0: float, n_cells: int, r_cut: float
) -> DiscreteProblem:
    """Build the discrete problem on a geometric mesh of n_cells cells.

    When h = c r^beta exactly (beta = ``warp.power_law``, c = h(1)), the
    weights 4 pi integral h^2 take the closed form 4 pi c^2 a^g
    expm1(g log1p((b - a)/a)) / g on each cell [a, b], g = 2 beta + 1, which
    keeps full precision on thin cells where b^g - a^g would cancel; any
    other warp takes the 12-point Gauss rule.  A non-finite radius, a
    non-integer n_cells and a weight that is not positive and finite are
    refused.
    """
    p = as_p(p)
    r0 = float(r0)
    r_cut = float(r_cut)
    if not (math.isfinite(r0) and math.isfinite(r_cut)):
        raise DomainError(f"radii must be finite numbers, got r0 = {r0}, r_cut = {r_cut}")
    try:
        n_cells = operator.index(n_cells)
    except TypeError:
        raise DomainError(f"the number of cells must be an integer, got {n_cells!r}") from None
    if n_cells < 16:
        raise DomainError(f"need at least 16 cells, got {n_cells}")
    if r_cut < 100.0 * r0:
        raise DomainError(f"truncation radius {r_cut} must be at least 100 r0 = {100.0 * r0}")
    if r0 <= 0.0:
        raise DomainError(f"inner radius must be positive, got {r0}")
    if model.r_min > 0.0 and r0 < model.r_min:
        raise DomainError(f"inner radius {r0} below the model's inner boundary {model.r_min}")
    if r_cut > model.r_max:
        raise DomainError(f"truncation radius {r_cut} exceeds the model's outer bound {model.r_max}")
    mesh = geometric_grid(r0, r_cut, n_cells + 1)

    def area_density(r):
        h = model.warp.h(r)
        density = 4.0 * math.pi * h
        density *= h
        return density

    beta = model.warp.power_law
    # an overflowing weight is refused by name below
    with np.errstate(over="ignore"):
        if beta is None:
            weights = cell_integrals(area_density, mesh)
        else:
            g = 2.0 * beta + 1.0
            a = mesh[:-1]
            weights = np.diff(mesh)
            weights /= a
            np.log1p(weights, out=weights)
            weights *= g
            np.expm1(weights, out=weights)
            weights *= np.power(a, g)
            c = float(model.warp.h(1.0))
            weights *= 4.0 * math.pi * c * c / g
    # two reductions and no temporaries; a NaN weight makes min() NaN, which fails too
    if not (weights.min() > 0.0 and weights.max() < math.inf):
        bad = int(np.argmin((weights > 0.0) & (weights < math.inf)))
        raise ConvergenceError(
            f"non-positive or non-finite cell weight {float(weights[bad])!r} in cell {bad} "
            f"of {n_cells} (4 pi integral of h^2)"
        )
    return DiscreteProblem(model=model, p=p, r0=r0, mesh=mesh, weights=weights)


def energy(problem: DiscreteProblem, psi: np.ndarray) -> float:
    """Discrete p-Dirichlet energy of a node profile."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != problem.mesh.shape:
        raise DomainError(f"profile shape {psi.shape} does not match mesh shape {problem.mesh.shape}")
    return _slope_energy(problem, np.diff(psi) / problem.dx)


def _slope_energy(problem: DiscreteProblem, slopes: np.ndarray) -> float:
    """The energy sum_i m_i |s_i|^p from the cell slopes s_i."""
    return float(np.sum(problem.weights * np.abs(slopes) ** problem.p.value))


def constant_flux_profile(problem: DiscreteProblem) -> np.ndarray:
    """The exact discrete minimizer, from the stationarity condition.

    Interior stationarity of the discrete energy says the flux
    m_i p |s_i|^(p-2) s_i / dx_i is the same through every cell; solving for
    the node drops gives |dpsi_i| proportional to (dx_i/m_i)^(1/(p-1)) dx_i,
    normalized so the drops sum to one.  Accumulating from the outer end
    keeps the (possibly denormal-small) tail values exactly representable.
    """
    p = problem.p.value
    log_dx = np.log(problem.dx)
    log_drops = np.log(problem.weights)
    np.subtract(log_dx, log_drops, out=log_drops)
    log_drops /= p - 1.0
    log_drops += log_dx
    log_drops -= log_drops.max()  # scale before normalizing to avoid overflow
    drops = np.exp(log_drops, out=log_drops)
    drops /= drops.sum()
    psi = np.empty(drops.size + 1)
    np.cumsum(drops[::-1], out=psi[-2::-1])
    psi[-1] = 0.0
    psi /= psi[0]
    psi[0] = 1.0
    return psi


def minimize_energy(
    problem: DiscreteProblem,
    tol: float = 1e-9,
    *,
    initial: np.ndarray | None = None,
) -> DiscreteSolution:
    """Certify a profile as the discrete minimizer.

    The profile is ``initial``, or by default :func:`constant_flux_profile`,
    the exact stationary point for any cell weights; the energy is strictly
    convex, so a stationary point is the global minimizer.  One gradient
    evaluation certifies it: the max-norm of the interior gradient, divided
    by the upper median cell flux (gradient entries are flux differences, so
    the median flux is their natural scale), must be at most tol.  The default
    start reads ~1e-11 in practice.  A profile that fails the certificate
    raises ConvergenceError naming its scaled gradient; nothing iterates, so
    ``iterations`` is always 0.

    For p close to 1 the minimizer's outer drops underflow.  The minimizer
    has no zero drop, so a profile with one (flat: p <= 1.015 with three
    decades of r_cut, p <= 1.02 with four) is refused before any flux is
    computed; drops that land among the subnormals instead (flat: p = 1.025
    with four decades) overflow |s|^(p-2), and the flux is not finite.  Both
    raise a ConvergenceError that names the underflow.
    """
    if tol <= 0.0:
        raise DomainError(f"gradient tolerance must be positive, got {tol}")
    if initial is None:
        psi = constant_flux_profile(problem)
    else:
        psi = np.array(initial, dtype=float)
        if psi.shape != problem.mesh.shape:
            raise DomainError(
                f"initial profile shape {psi.shape} does not match mesh shape {problem.mesh.shape}"
            )
        if not np.all(np.isfinite(psi)):
            raise DomainError(
                f"initial profile is not finite at node {int(np.argmin(np.isfinite(psi)))}"
            )
        if abs(psi[0] - 1.0) > 1e-12 or abs(psi[-1]) > 1e-12:
            raise DomainError(
                f"initial profile violates the Dirichlet data: psi(r0) = {psi[0]!r}, "
                f"psi(r_cut) = {psi[-1]!r}"
            )
        psi[0], psi[-1] = 1.0, 0.0

    p = problem.p.value
    weights, dx = problem.weights, problem.dx
    slopes = np.diff(psi) / dx
    if np.any(slopes == 0.0):
        raise ConvergenceError(
            f"profile has a zero drop in cell {int(np.argmax(slopes == 0.0))} of "
            f"{slopes.size} (p = {p!r}): the minimizer's drops are all positive, so they "
            f"underflow to 0.0 there; p this close to 1 needs fewer decades of "
            f"truncation radius"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        flux = weights * p * np.abs(slopes) ** (p - 2.0) * slopes / dx
        grad = flux[:-1] - flux[1:]
    # every cell's flux enters the gradient, so this checks both
    if not np.all(np.isfinite(grad)):
        raise ConvergenceError(
            f"non-finite flux (p = {p!r}): the profile's outer drops underflow to the "
            f"smallest floats, where |s|^(p-2) overflows; p this close to 1 needs fewer "
            f"decades of truncation radius"
        )
    # the upper median: a one-index partition, where np.median partitions twice
    scale = max(1.0, float(np.partition(np.abs(flux), flux.size // 2)[flux.size // 2]))
    rel_grad = float(np.max(np.abs(grad))) / scale
    if rel_grad > tol:
        raise ConvergenceError(
            f"profile is not the discrete minimizer: scaled gradient {rel_grad:.3e} exceeds "
            f"tol {tol:.1e}; constant_flux_profile (the default) is the exact minimizer"
        )
    _validate_minimizer(psi)
    return DiscreteSolution(
        problem=problem,
        psi=psi,
        energy=_slope_energy(problem, slopes),
        iterations=0,
        grad_norm=rel_grad,
    )


def _validate_minimizer(psi: np.ndarray):
    if np.any(psi < -1e-10) or np.any(psi > 1.0 + 1e-10):
        raise ConvergenceError(
            f"minimizer violates the maximum principle: range [{psi.min()!r}, {psi.max()!r}]"
        )
    if np.any(np.diff(psi) > 0.0):
        raise ConvergenceError("minimizer is not monotone decreasing")


def capacity_from_energy(solution: DiscreteSolution) -> float:
    """Normalized capacity from the attained energy at the problem's p:
    (1/4 pi) ((p-1)/(3-p))^(p-1) E[psi*]."""
    pv = solution.problem.p.value
    return (1.0 / (4.0 * math.pi)) * ((pv - 1.0) / (3.0 - pv)) ** (pv - 1.0) * solution.energy


class CrossValidationReport(NamedTuple):
    """Agreement between the variational and quadrature routes.

    ``capacity_gap`` is signed, (variational - quadrature)/quadrature: the
    piecewise-linear truncated class is a subset of the competitor class, so
    the gap is nonnegative up to rounding and both routes' discretization
    error.
    """

    max_node_error: float
    capacity_gap: float
    capacity_energy: float
    capacity_quadrature: float
    passed: bool


def cross_validate(solution: DiscreteSolution, pot: RadialPotential) -> CrossValidationReport:
    """Compare the discrete minimizer against the quadrature potential; it
    passes with a node error below NODE_TOL and a |capacity gap| below
    CAPACITY_TOL."""
    problem = solution.problem
    if problem.model.describe() != pot.model.describe():
        raise DomainError("cross-validation requires the same model on both routes")
    if abs(problem.p.value - pot.p_value) > 0.0:
        raise DomainError(
            f"exponent mismatch: variational p = {problem.p.value}, quadrature p = {pot.p_value}"
        )
    if abs(problem.r0 - pot.grid[0]) > 1e-12 * problem.r0:
        raise DomainError(
            f"inner radius mismatch: variational r0 = {problem.r0}, quadrature r0 = {pot.grid[0]}"
        )
    if problem.r_cut > pot.r_trunc * (1.0 + 1e-9):
        raise DomainError(
            f"variational mesh reaches {problem.r_cut}, beyond the quadrature grid "
            f"truncated at {pot.r_trunc}"
        )
    u_nodes = pot.flux_integral_at(problem.mesh) / pot.normalizer
    max_node_error = float(np.max(np.abs(solution.psi - u_nodes)))
    cap_energy = capacity_from_energy(solution)
    from .potential import capacity as quad_capacity

    cap_quad = quad_capacity(pot, 0.0)
    gap = (cap_energy - cap_quad) / cap_quad
    passed = max_node_error < NODE_TOL and abs(gap) < CAPACITY_TOL
    return CrossValidationReport(
        max_node_error=max_node_error,
        capacity_gap=gap,
        capacity_energy=cap_energy,
        capacity_quadrature=cap_quad,
        passed=passed,
    )
