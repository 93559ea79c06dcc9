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
given one) by the spread of its cell fluxes and refuses a profile that fails;
the interior gradient entries are differences of adjacent fluxes, so a small
spread bounds them.  A profile that does not decrease, or whose smallest drop
is zero or subnormal (the minimizer's outer drops underflow for p close to
1), is refused by name before the fluxes of that drop's block are computed.
From the cell weights on, the profile is the only array of the mesh's size
the route builds: its log drops, the certificate and the cross-validation's
node error are worked out in blocks of _TERM_BLOCK cells.  Nothing iterates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, NoReturn

import numpy as np

from . import geometry
from .errors import ConvergenceError, DomainError
from .numerics import cell_integrals, geometric_grid
from .potential import PExponent, RadialPotential, as_p, capacity

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
_TINY = float(np.finfo(float).tiny)  # the smallest normal float
_TERM_BLOCK = 16384  # cells (or nodes) per block of the variational route's scratch


@dataclass(frozen=True, eq=False)
class DiscreteProblem:
    """Discretized p-Dirichlet energy on a geometric mesh.

    The energy of a node profile psi with psi(r0) = 1, psi(r_cut) = 0 is
    E[psi] = sum_i m_i |dpsi_i / dx_i|^p with cell weights m_i = 4 pi
    integral of h^2 over cell i and cell widths dx_i.

    :func:`discretize` builds ``mesh``, ``dx`` and ``weights`` read-only
    (writing into them raises ValueError): problems on the same mesh share
    its ``mesh`` and ``dx``, and those of the same power law on it share its
    ``weights`` too, whatever p.
    """

    model: geometry.ManifoldModel
    p: PExponent
    r0: float
    mesh: np.ndarray
    weights: np.ndarray
    dx: np.ndarray

    @property
    def r_cut(self) -> float:
        return float(self.mesh[-1])

    @property
    def n_cells(self) -> int:
        return self.mesh.size - 1


class DiscreteSolution(NamedTuple):
    """Certified minimizer of a DiscreteProblem.

    ``grad_norm`` is the spread of the cell flux magnitudes f_i = m_i p
    |s_i|^(p-1) / dx_i, (max f - min f) / max(1, min f).  The interior
    gradient entries are adjacent flux differences, so it bounds the
    max-norm of the gradient scaled by the smallest flux.  ``iterations`` is
    always 0: the minimizer is certified, not iterated to; the field stays
    because the benchmark's tracer reads it.
    """

    problem: DiscreteProblem
    psi: np.ndarray
    energy: float
    iterations: int
    grad_norm: float


# The one mesh kept between calls of discretize, keyed by (r0, r_cut,
# n_cells): its nodes, its cell widths and the closed-form weights of at most
# _LAWS_PER_MESH power laws on it, keyed by their (c, beta), the oldest dropped
# first.  A new mesh drops the old one with its weights.
_LAWS_PER_MESH = 4
_meshes: dict[tuple[float, float, int], tuple[np.ndarray, np.ndarray, dict]] = {}


def discretize(
    model: geometry.ManifoldModel, p, r0: float, n_cells: int, r_cut: float
) -> DiscreteProblem:
    """Build the discrete problem on a geometric mesh of n_cells cells.

    When h = c r^beta exactly (the warp's ``exact_power``), the
    weights 4 pi integral h^2 take the closed form 4 pi c^2 a^g
    expm1(g log1p((b - a)/a)) / g on each cell [a, b], g = 2 beta + 1, which
    keeps full precision on thin cells where b^g - a^g would cancel; any
    other warp takes the 12-point Gauss rule.  A non-finite radius, a
    non-integer n_cells and a weight that is not positive and finite are
    refused.

    Neither the mesh nor a power law's weights depend on p: the last mesh
    built, its widths and the closed-form weights of up to four power laws
    on it are kept, read-only, and shared by every problem built on them, so
    a new p on the same mesh and law builds no array.  One mesh is kept; a
    new (r0, r_cut, n_cells) replaces it and its weights.  The 12-point
    weights of any other warp are integrated on every call.  The inputs are
    validated and the weights checked on every call, kept or not.
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
    mesh, dx, laws = _mesh(r0, r_cut, n_cells)

    def area_density(r):
        h = model.warp.h(r)
        density = 4.0 * math.pi * h
        density *= h
        return density

    law = model.warp.exact_power
    # an overflowing weight is refused by name below
    with np.errstate(over="ignore"):
        if law is None:
            weights = cell_integrals(area_density, mesh)
            weights.flags.writeable = False
        else:
            weights = laws.get(law)
            if weights is None:
                if len(laws) == _LAWS_PER_MESH:
                    del laws[next(iter(laws))]
                weights = laws[law] = _power_law_weights(mesh, dx, beta=law[1], c=law[0])
    # two reductions and no temporaries; a NaN weight makes min() NaN, which fails too
    if not (weights.min() > 0.0 and weights.max() < math.inf):
        bad = int(np.argmin((weights > 0.0) & (weights < math.inf)))
        raise ConvergenceError(
            f"non-positive or non-finite cell weight {float(weights[bad])!r} in cell {bad} "
            f"of {n_cells} (4 pi integral of h^2)"
        )
    return DiscreteProblem(model=model, p=p, r0=r0, mesh=mesh, weights=weights, dx=dx)


def _mesh(r0: float, r_cut: float, n_cells: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """The kept (mesh, dx, power-law weights) of (r0, r_cut, n_cells), built
    read-only in place of the kept ones when the key is new."""
    key = (r0, r_cut, n_cells)
    kept = _meshes.get(key)
    if kept is None:
        _meshes.clear()
        mesh = geometric_grid(r0, r_cut, n_cells + 1)
        dx = np.diff(mesh)
        mesh.flags.writeable = dx.flags.writeable = False
        kept = _meshes[key] = (mesh, dx, {})
    return kept


def _power_law_weights(mesh: np.ndarray, dx: np.ndarray, beta: float, c: float) -> np.ndarray:
    """The read-only cell weights of h = c r^beta in closed form (see
    :func:`discretize`), built in the one array they fill."""
    g = 2.0 * beta + 1.0
    a = mesh[:-1]
    weights = dx / a
    np.log1p(weights, out=weights)
    weights *= g
    np.expm1(weights, out=weights)
    weights *= np.power(a, g)
    weights *= 4.0 * math.pi * c * c / g
    weights.flags.writeable = False
    return weights


def energy(problem: DiscreteProblem, psi: np.ndarray) -> float:
    """Discrete p-Dirichlet energy of a node profile; a profile that is not
    finite is refused at its first such node."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != problem.mesh.shape:
        raise DomainError(f"profile shape {psi.shape} does not match mesh shape {problem.mesh.shape}")
    _check_finite(psi, "profile")
    return _cell_terms(problem, psi, certify=False)[0]


def _check_finite(psi: np.ndarray, what: str) -> None:
    finite = np.isfinite(psi)
    if not finite.all():
        raise DomainError(f"{what} is not finite at node {int(np.argmin(finite))}")


def _cell_terms(
    problem: DiscreteProblem, psi: np.ndarray, *, certify: bool
) -> tuple[float, float, float]:
    """The energy sum_i t_i s_i = sum_i m_i s_i^p of the node profile psi,
    with cell slopes s_i = |psi_i - psi_(i+1)| / dx_i and t_i = m_i
    s_i^(p-1), and the least and greatest t_i / dx_i.

    Each block of at most _TERM_BLOCK cells takes its drops from psi into one
    block of scratch and t into another; nothing of the mesh's size is built.
    The blocks are those of :func:`_pairwise_sum`, so the energy has the bits
    of numpy's sum of the whole array of terms.  With ``certify`` a block
    whose smallest drop is not a positive normal float (NaN included) is
    refused by :func:`_refuse_drops` before its t is formed; without it the
    drops are taken in absolute value.
    """
    q = problem.p.value - 1.0
    n = problem.n_cells
    drops_buf, t_buf = np.empty(min(n, _TERM_BLOCK)), np.empty(min(n, _TERM_BLOCK))
    lows, highs = [], []

    def block_sum(i: int, j: int) -> float:
        s = np.subtract(psi[i:j], psi[i + 1 : j + 1], out=drops_buf[: j - i])
        if not certify:
            np.abs(s, out=s)
        elif not s.min() >= _TINY:
            _refuse_drops(problem, psi)
        s /= problem.dx[i:j]
        t = np.power(s, q, out=t_buf[: j - i])
        t *= problem.weights[i:j]
        s *= t
        with np.errstate(over="ignore"):  # an infinite flux is the caller's to judge
            t /= problem.dx[i:j]
        lows.append(t.min())
        highs.append(t.max())
        return s.sum()

    total = _pairwise_sum(block_sum, 0, n)
    # np.min and np.max keep a block's NaN, which Python's min and max can drop
    return float(total), float(np.min(lows)), float(np.max(highs))


def _pairwise_sum(block_sum, i: int, j: int) -> float:
    """The sum over cells [i, j) from ``block_sum`` of blocks of at most
    _TERM_BLOCK cells, taken left to right.  A longer range is split as
    numpy's pairwise sum splits one of more than 128 elements, at half its
    length rounded down to a multiple of 8, and each block is a node of that
    tree, so the total has the bits of the whole array's ``sum()``."""
    if j - i <= _TERM_BLOCK:
        return block_sum(i, j)
    half = (j - i) // 2
    half -= half % 8
    return _pairwise_sum(block_sum, i, i + half) + _pairwise_sum(block_sum, i + half, j)


def _refuse_drops(problem: DiscreteProblem, psi: np.ndarray) -> NoReturn:
    """Refuse a profile whose smallest drop is negative, zero, subnormal or
    NaN, naming that drop and its cell over the whole mesh."""
    drops = psi[:-1] - psi[1:]
    smallest = float(drops.min())
    cell = int(np.argmin(drops))
    if smallest < 0.0:
        raise ConvergenceError(
            f"profile is not monotone decreasing: it rises by {-smallest!r} in cell {cell} "
            f"of {drops.size}"
        )
    raise ConvergenceError(
        f"profile has a {'zero' if smallest == 0.0 else 'subnormal'} drop {smallest!r} in "
        f"cell {cell} of {drops.size} (p = {problem.p.value!r}): the minimizer's drops are all "
        f"positive, so they underflow there; p this close to 1 needs fewer decades of "
        f"truncation radius"
    )


def constant_flux_profile(problem: DiscreteProblem) -> np.ndarray:
    """The exact discrete minimizer, from the stationarity condition.

    Interior stationarity of the discrete energy says the flux
    m_i p |s_i|^(p-2) s_i / dx_i is the same through every cell; solving for
    the node drops gives |dpsi_i| proportional to (dx_i/m_i)^(1/(p-1)) dx_i,
    normalized so the drops sum to one.  Accumulating from the outer end
    keeps the (possibly denormal-small) tail values exactly representable.

    The profile is the only array of the mesh's size this builds: the log
    drops are written into its first n_cells entries one block of
    _TERM_BLOCK cells at a time, with that block's log dx in one block of
    scratch, and are then scaled, exponentiated, normalized and summed from
    the outer end in place.
    """
    p = problem.p.value
    n = problem.n_cells
    psi = np.empty(n + 1)
    scratch = np.empty(min(n, _TERM_BLOCK))
    for i in range(0, n, _TERM_BLOCK):
        j = min(i + _TERM_BLOCK, n)
        log_drops = np.log(problem.weights[i:j], out=psi[i:j])
        log_dx = np.log(problem.dx[i:j], out=scratch[: j - i])
        np.subtract(log_dx, log_drops, out=log_drops)
        log_drops /= p - 1.0
        log_drops += log_dx
    drops = psi[:-1]
    drops -= drops.max()  # scale before normalizing to avoid overflow
    np.exp(drops, out=drops)
    drops /= drops.sum()
    # in place: the reversed view is both the input and the output, which
    # numpy accumulates without a copy
    np.cumsum(drops[::-1], out=drops[::-1])
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
    convex, so a stationary point is the global minimizer.  The certificate
    is the spread of the cell flux magnitudes f_i = m_i p |s_i|^(p-1) / dx_i:
    (max f - min f) / max(1, min f) must be at most tol.  Every interior
    gradient entry is a difference of adjacent fluxes, at most max f - min f,
    so the spread bounds the gradient scaled by the smallest flux.  The
    default start reads ~1e-11 in practice.  A profile that fails raises
    ConvergenceError naming its scaled gradient; nothing iterates, so
    ``iterations`` is always 0.  Beyond the profile, the certificate holds
    two blocks of _TERM_BLOCK cells of scratch (see :func:`_cell_terms`).

    The drops psi_i - psi_(i+1) are checked first, block by block before
    each block's fluxes: the minimizer's drops are all positive, so a
    profile with a negative one is refused as not monotone decreasing.  For
    p close to 1 the minimizer's outer drops underflow, and a profile whose
    smallest drop is zero or subnormal (flat: p <= 1.019 with three decades
    of r_cut, p <= 1.025 with four) is refused with a ConvergenceError that
    names the underflow.  Either refusal names the smallest drop over the
    whole mesh and its cell.  A normal drop certifies however small (flat:
    p = 1.026 with 4096 cells and four decades, smallest drop 3.8e-305).
    """
    if not tol > 0.0:  # NaN included
        raise DomainError(f"gradient tolerance must be positive, got {tol}")
    if initial is None:
        psi = constant_flux_profile(problem)
    else:
        psi = np.array(initial, dtype=float)
        if psi.shape != problem.mesh.shape:
            raise DomainError(
                f"initial profile shape {psi.shape} does not match mesh shape {problem.mesh.shape}"
            )
        _check_finite(psi, "initial profile")
        if abs(psi[0] - 1.0) > 1e-12 or abs(psi[-1]) > 1e-12:
            raise DomainError(
                f"initial profile violates the Dirichlet data: psi(r0) = {psi[0]!r}, "
                f"psi(r_cut) = {psi[-1]!r}"
            )
        psi[0], psi[-1] = 1.0, 0.0

    p = problem.p.value
    # an overflowing flux makes the spread inf or NaN, which fails the test below
    with np.errstate(over="ignore", invalid="ignore"):
        total, lo, hi = _cell_terms(problem, psi, certify=True)
        # f = p t / dx; scaling by p > 0 commutes with min and max
        lo, hi = p * lo, p * hi
        rel_grad = (hi - lo) / max(1.0, lo)
    if not rel_grad <= tol:
        raise ConvergenceError(
            f"profile is not the discrete minimizer: scaled gradient {rel_grad:.3e} exceeds "
            f"tol {tol:.1e}; constant_flux_profile (the default) is the exact minimizer"
        )
    return DiscreteSolution(
        problem=problem,
        psi=psi,
        energy=total,
        iterations=0,
        grad_norm=rel_grad,
    )


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
    CAPACITY_TOL.  The node error is taken one block of _TERM_BLOCK nodes
    at a time, so no array of the mesh's size is built."""
    problem = solution.problem
    if problem.model.describe() != pot.model.describe():
        raise DomainError("cross-validation requires the same model on both routes")
    if abs(problem.p.value - pot.p_value) > 0.0:
        raise DomainError(
            f"exponent mismatch: variational p = {problem.p.value}, quadrature p = {pot.p_value}"
        )
    if abs(problem.r0 - pot.r0) > 1e-12 * problem.r0:
        raise DomainError(
            f"inner radius mismatch: variational r0 = {problem.r0}, quadrature r0 = {pot.r0}"
        )
    if problem.r_cut > pot.r_trunc * (1.0 + 1e-9):
        raise DomainError(
            f"variational mesh reaches {problem.r_cut}, beyond the quadrature grid "
            f"truncated at {pot.r_trunc}"
        )
    highs = []
    for i in range(0, problem.mesh.size, _TERM_BLOCK):
        nodes = slice(i, i + _TERM_BLOCK)
        node_error = pot.flux_integral_at(problem.mesh[nodes])
        node_error /= pot.normalizer
        node_error -= solution.psi[nodes]
        np.abs(node_error, out=node_error)
        highs.append(node_error.max())
    # np.max keeps a block's NaN, which Python's max can drop
    max_node_error = float(np.max(highs))
    cap_energy = capacity_from_energy(solution)
    cap_quad = capacity(pot, 0.0)
    gap = (cap_energy - cap_quad) / cap_quad
    passed = max_node_error < NODE_TOL and abs(gap) < CAPACITY_TOL
    return CrossValidationReport(
        max_node_error=max_node_error,
        capacity_gap=gap,
        capacity_energy=cap_energy,
        capacity_quadrature=cap_quad,
        passed=passed,
    )
