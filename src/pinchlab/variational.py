"""Independent variational route to the capacity: direct minimization of the
discretized p-Dirichlet energy with truncation Dirichlet data.

The continuum capacity is an infimum over compactly supported test functions;
here the competitor class is piecewise-linear profiles on a geometric mesh
vanishing at a truncation radius.  Minimizing the discrete energy therefore
OVERestimates the capacity (smaller competitor class), which the
cross-validation report asserts as a signed gap.

A structural fact worth knowing when reading the tests: on a geometric mesh
over a power-law warp, the exact truncated continuum solution already has
exactly constant discrete flux (the cell powers cancel), so it is the exact
minimizer of the discrete energy — Newton started there converges in zero
iterations.  :func:`constant_flux_profile` builds that profile for any
problem directly from the stationarity condition (constant flux through
every cell), without reference to the quadrature solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry
from .errors import ConvergenceError, DomainError, LineSearchError
from .numerics import cell_integrals
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

_ARMIJO_C = 1e-4
_ARMIJO_FACTOR = 0.5
_MAX_BACKTRACKS = 60
_MAX_NEWTON_ITERATIONS = 200
_SLOPE_FLOOR = 1e-12  # protects the p-2 < 0 exponent in the Hessian
_TRUST_FACTOR = 0.5  # max relative slope change per Newton step


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


@dataclass(frozen=True, eq=False)
class DiscreteSolution:
    """Minimizer of a DiscreteProblem with convergence diagnostics.

    ``grad_norm`` is the final max-norm of the interior gradient divided by
    the median cell flux (the natural scale of gradient entries, which are
    flux differences).
    """

    problem: DiscreteProblem
    psi: np.ndarray
    energy: float
    iterations: int
    grad_norm: float
    energy_history: tuple


def discretize(
    model: geometry.ManifoldModel, p, r0: float, n_cells: int, r_cut: float
) -> DiscreteProblem:
    """Build the discrete problem on a geometric mesh of n_cells cells."""
    p = as_p(p)
    r0 = float(r0)
    r_cut = float(r_cut)
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
    mesh = np.geomspace(r0, r_cut, n_cells + 1)
    mesh[0], mesh[-1] = r0, r_cut

    def area_density(r):
        h = model.warp.h(r)
        return 4.0 * math.pi * h * h

    weights = cell_integrals(area_density, mesh)
    if np.any(weights <= 0.0):
        raise ConvergenceError("nonpositive cell weight from the area quadrature")
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


def _default_initial(problem: DiscreteProblem) -> np.ndarray:
    """Linear interpolation in log r between the boundary values."""
    mesh = problem.mesh
    psi = 1.0 - np.log(mesh / mesh[0]) / math.log(mesh[-1] / mesh[0])
    psi[0], psi[-1] = 1.0, 0.0
    return psi


def constant_flux_profile(problem: DiscreteProblem) -> np.ndarray:
    """The exact discrete minimizer, from the stationarity condition.

    Interior stationarity of the discrete energy says the flux
    m_i p |s_i|^(p-2) s_i / dx_i is the same through every cell; solving for
    the node drops gives |dpsi_i| proportional to (dx_i/m_i)^(1/(p-1)) dx_i,
    normalized so the drops sum to one.  Accumulating from the outer end
    keeps the (possibly denormal-small) tail values exactly representable.
    """
    p = problem.p.value
    dx = problem.dx
    log_drops = (np.log(dx) - np.log(problem.weights)) / (p - 1.0) + np.log(dx)
    log_drops -= log_drops.max()  # scale before normalizing to avoid overflow
    drops = np.exp(log_drops)
    drops /= drops.sum()
    psi = np.concatenate([np.cumsum(drops[::-1])[::-1], [0.0]])
    psi /= psi[0]
    psi[0], psi[-1] = 1.0, 0.0
    return psi


def minimize_energy(
    problem: DiscreteProblem,
    tol: float = 1e-9,
    *,
    initial: np.ndarray | None = None,
) -> DiscreteSolution:
    """Damped Newton minimization of the discrete energy.

    Newton steps are safeguarded twice: the step is first shortened so that
    no cell's slope changes by more than a factor _TRUST_FACTOR of itself
    (the p-2 < 0 curvature is only trustworthy in that multiplicative
    neighborhood), then Armijo-backtracked on the energy.  Convergence is
    declared when the max-norm of the interior gradient falls below tol
    times the median cell flux — gradient entries are flux differences, so
    the median flux is their natural scale.

    For aggressive truncation radii (several decades) with p well below 2,
    the exact minimizer's outer drops fall below the resolution that
    additive Newton updates can reach, and the scaled gradient plateaus
    (around 1e-2 at p = 1.5 with four decades and 2048 cells) even though
    the iterate's node values are essentially exact; choose tol accordingly
    or start from :func:`constant_flux_profile`, which represents those
    drops exactly.
    """
    if tol <= 0.0:
        raise DomainError(f"gradient tolerance must be positive, got {tol}")
    from scipy.linalg import solveh_banded  # imported here: only this oracle needs scipy

    if initial is None:
        psi = _default_initial(problem)
    else:
        psi = np.array(initial, dtype=float)
        if psi.shape != problem.mesh.shape:
            raise DomainError(
                f"initial profile shape {psi.shape} does not match mesh shape {problem.mesh.shape}"
            )
        if abs(psi[0] - 1.0) > 1e-12 or abs(psi[-1]) > 1e-12:
            raise DomainError(
                f"initial profile violates the Dirichlet data: psi(r0) = {psi[0]!r}, "
                f"psi(r_cut) = {psi[-1]!r}"
            )
        psi[0], psi[-1] = 1.0, 0.0

    p = problem.p.value
    weights, dx = problem.weights, problem.dx
    # the slope floor's power goes through the array power like every other
    # entry: numpy's vectorized pow can differ from a scalar pow in the last bit
    floor_power = (np.full(1, _SLOPE_FLOOR) ** (p - 2.0))[0]
    slopes = np.diff(psi) / dx
    current = _slope_energy(problem, slopes)
    history = [current]
    rel_grad = math.inf
    for iteration in range(_MAX_NEWTON_ITERATIONS):
        # one pass per iterate: |s|^(p-2) serves the flux m p |s|^(p-2) s / dx
        # and, floored at _SLOPE_FLOOR, the tridiagonal Hessian
        abs_slopes = np.abs(slopes)
        with np.errstate(divide="ignore", invalid="ignore"):
            power = abs_slopes ** (p - 2.0)
            flux = weights * p * power * slopes / dx
        flux = np.where(slopes == 0.0, 0.0, flux)
        grad = flux[:-1] - flux[1:]
        scale = max(1.0, float(np.median(np.abs(flux))))
        rel_grad = float(np.max(np.abs(grad))) / scale
        if rel_grad <= tol:
            _validate_minimizer(psi)
            return DiscreteSolution(
                problem=problem,
                psi=psi,
                energy=current,
                iterations=iteration,
                grad_norm=rel_grad,
                energy_history=tuple(history),
            )
        floored = np.where(abs_slopes >= _SLOPE_FLOOR, power, floor_power)
        d2 = weights * p * (p - 1.0) * floored / (dx * dx)
        hessian = np.zeros((2, psi.size - 2))
        hessian[1, :] = d2[:-1] + d2[1:]
        hessian[0, 1:] = -d2[1:-1]
        direction = solveh_banded(hessian, -grad)
        slope = float(grad @ direction)
        if slope >= 0.0:
            raise ConvergenceError(
                f"Newton direction is not a descent direction at iteration {iteration} "
                f"(directional derivative {slope:.3e})"
            )
        # trust region: cap the relative slope change before line searching
        dslope = np.diff(np.concatenate([[0.0], direction, [0.0]])) / dx
        rel_change = np.abs(dslope) / np.maximum(abs_slopes, 1e-300)
        max_rel = float(np.max(rel_change))
        step = min(1.0, _TRUST_FACTOR / max_rel) if max_rel > 0.0 else 1.0
        for _ in range(_MAX_BACKTRACKS):
            trial = psi.copy()
            trial[1:-1] += step * direction
            trial_slopes = np.diff(trial) / dx
            trial_energy = _slope_energy(problem, trial_slopes)
            if trial_energy <= current + _ARMIJO_C * step * slope:
                break
            step *= _ARMIJO_FACTOR
        else:
            raise LineSearchError(
                f"Armijo backtracking failed at iteration {iteration}: energy {current:.12g}, "
                f"scaled gradient {rel_grad:.3e}, directional derivative {slope:.3e}, "
                f"final step {step:.3e}"
            )
        psi, slopes = trial, trial_slopes
        current = trial_energy
        history.append(current)
    raise ConvergenceError(
        f"Newton did not reach the scaled gradient tolerance {tol:.1e} in {_MAX_NEWTON_ITERATIONS} "
        f"iterations (last scaled gradient {rel_grad:.3e}); the outer-cell drops may sit below "
        f"additive machine resolution — loosen tol or warm-start from constant_flux_profile"
    )


def _validate_minimizer(psi: np.ndarray):
    if np.any(psi < -1e-10) or np.any(psi > 1.0 + 1e-10):
        raise ConvergenceError(
            f"minimizer violates the maximum principle: range [{psi.min()!r}, {psi.max()!r}]"
        )
    if np.any(np.diff(psi) > 0.0):
        raise ConvergenceError("minimizer is not monotone decreasing")


def capacity_from_energy(solution: DiscreteSolution, p=None) -> float:
    """Normalized capacity from the attained energy:
    (1/4 pi) ((p-1)/(3-p))^(p-1) E[psi*]."""
    if p is None:
        p = solution.problem.p
    else:
        p = as_p(p)
        if abs(p.value - solution.problem.p.value) > 0.0:
            raise DomainError(
                f"exponent mismatch: solution was minimized at p = {solution.problem.p.value}, "
                f"capacity requested at p = {p.value}"
            )
    pv = p.value
    return (1.0 / (4.0 * math.pi)) * ((pv - 1.0) / (3.0 - pv)) ** (pv - 1.0) * solution.energy


@dataclass(frozen=True)
class CrossValidationReport:
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


def cross_validate(
    solution: DiscreteSolution,
    pot: RadialPotential,
    *,
    node_tol: float = 5e-3,
    capacity_tol: float = 5e-3,
) -> CrossValidationReport:
    """Compare the discrete minimizer against the quadrature potential."""
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
    passed = max_node_error < node_tol and abs(gap) < capacity_tol
    return CrossValidationReport(
        max_node_error=max_node_error,
        capacity_gap=gap,
        capacity_energy=cap_energy,
        capacity_quadrature=cap_quad,
        passed=passed,
    )
