"""Discrete p-Dirichlet minimization cross-checked against the quadrature solver.

The key structural fact exploited throughout: on a geometric mesh over a
power-law warp the continuum solution restricted to the nodes has exactly
constant discrete flux, i.e. it is a stationary point of the discrete energy.
``constant_flux_profile`` builds that profile directly, which makes warm
starts converge in at most one Newton step and provides an exact oracle for
the minimizer itself.
"""

import math
import tracemalloc

import numpy as np
import pytest

import pinchlab as pl

MODELS = {
    "flat": pl.flat_model,
    "cone": pl.cone_model,
    "power_warp": pl.power_warp_model,
}


def _problem(name, p, n=512, r_cut=1e3):
    return pl.discretize(MODELS[name](), p, 1.0, n, r_cut)


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def test_discretize_preconditions():
    flat = pl.flat_model()
    with pytest.raises(pl.DomainError):
        pl.discretize(flat, 1.5, 1.0, 4, 16.0)  # too few cells
    with pytest.raises(pl.DomainError):
        pl.discretize(flat, 1.5, 1.0, 64, 16.0)  # r_cut below 100 r0
    with pytest.raises(pl.DomainError):
        pl.discretize(flat, 1.5, 0.0, 64, 1e3)
    with pytest.raises(pl.DomainError):
        pl.discretize(flat, 1.5, 1.0, 64, 2e4)  # beyond the model domain
    with pytest.raises(pl.DomainError):
        pl.discretize(pl.cone_model(0.8), 1.5, 1e-5, 64, 1.0)  # inside the core


def test_mesh_is_geometric():
    prob = _problem("flat", 1.5, n=128, r_cut=1e3)
    assert prob.mesh[0] == 1.0
    assert abs(prob.mesh[-1] - 1e3) < 1e-9
    ratios = prob.mesh[1:] / prob.mesh[:-1]
    assert np.max(ratios) / np.min(ratios) - 1.0 < 1e-12
    assert prob.n_cells == 128
    assert prob.weights.shape == (128,)


def test_discretize_peak_memory_is_bounded_by_its_result():
    # the cell weights come from block-wise quadrature, so the scratch memory
    # of a large mesh stays below the mesh and weights the problem keeps
    tracemalloc.start()
    try:
        prob = pl.discretize(pl.power_warp_model(), 1.5, 1.0, 2**17, 1e3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (prob.mesh.nbytes + prob.weights.nbytes)


def test_cone_weights_scale_like_a_squared():
    flat = _problem("flat", 1.5, n=64)
    cone = _problem("cone", 1.5, n=64)
    assert np.allclose(cone.weights, 0.64 * flat.weights, rtol=1e-12)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


def test_cold_start_flat_converges(solved):
    prob = _problem("flat", 1.5, n=2048)
    sol = pl.minimize_energy(prob)
    assert sol.iterations < 200
    assert sol.grad_norm <= 1e-9
    psi = sol.psi
    assert psi[0] == 1.0 and psi[-1] == 0.0
    assert np.all(np.diff(psi) <= 0.0)
    assert np.all((psi >= 0.0) & (psi <= 1.0))
    hist = np.asarray(sol.energy_history)
    assert np.all(np.diff(hist) <= 1e-12 * (1.0 + np.abs(hist[:-1])))
    cap = pl.capacity_from_energy(sol)
    assert abs(cap - pl.capacity(solved("flat", 1.5), 0.0)) < 2e-3


@pytest.mark.parametrize(
    "name, p, iterations",
    [("flat", 1.5, 33), ("cone_0.8", 1.65, 23), ("power_warp_1.5", 1.8, 10)],
)
def test_newton_path_is_pinned(name, p, iterations):
    # iteration counts of the default start on 2^12 cells; any drift in the
    # flux, the Hessian or the line search moves them
    prob = pl.discretize(pl.library()[name], p, 1.0, 2**12, 1e3)
    sol = pl.minimize_energy(prob)
    assert sol.iterations == iterations
    assert sol.energy == pl.energy(prob, sol.psi)
    assert sol.energy_history[-1] == sol.energy
    assert len(sol.energy_history) == iterations + 1


def test_inner_radius_scaling():
    # Flat capacity from inner radius r0 scales like r0^(3-p).
    model = pl.flat_model()
    prob = pl.discretize(model, 1.5, 2.0, 2048, 2e3)
    sol = pl.minimize_energy(prob)
    assert abs(pl.capacity_from_energy(sol) / 2.0**1.5 - 1.0) < 1e-4


@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_constant_flux_profile_is_fixed_point(name, p):
    prob = _problem(name, p)
    start = pl.constant_flux_profile(prob)
    sol = pl.minimize_energy(prob, initial=start)
    assert sol.iterations <= 1
    assert sol.grad_norm <= 1e-9


def test_cone_minimizer_equals_flat():
    # The weights differ by the constant factor a^2, which cancels from the
    # stationarity conditions: the minimizing profile is identical.
    pf, pc = _problem("flat", 1.5), _problem("cone", 1.5)
    flat = pl.minimize_energy(pf, initial=pl.constant_flux_profile(pf))
    cone = pl.minimize_energy(pc, initial=pl.constant_flux_profile(pc))
    assert np.max(np.abs(flat.psi - cone.psi)) < 1e-10
    assert abs(cone.energy / flat.energy - 0.64) < 1e-12


def test_deep_tail_needs_loose_tolerance_but_stays_accurate(solved):
    # Four decades of truncation radius: additive Newton updates bottom out
    # before the default tolerance, but the iterate is already node-accurate.
    prob = pl.discretize(pl.flat_model(), 1.5, 1.0, 2048, 1e4)
    sol = pl.minimize_energy(prob, tol=1e-2)
    pot = solved("flat", 1.5)
    exact = pot.flux_integral_at(prob.mesh) / pot.normalizer
    exact = (exact - exact[-1]) / (exact[0] - exact[-1])
    assert np.max(np.abs(sol.psi - exact)) < 1e-3


def test_initial_guess_validation():
    prob = _problem("flat", 1.5, n=64)
    with pytest.raises(pl.DomainError):
        pl.minimize_energy(prob, initial=np.ones(7))
    bad = np.linspace(1.0, 0.0, 65)
    bad[0] = 0.5
    with pytest.raises(pl.DomainError):
        pl.minimize_energy(prob, initial=bad)


def test_energy_matches_direct_formula():
    # Independent assembly for the flat model, where the cell weights are the
    # exact sphere-area integrals (4 pi / 3)(b^3 - a^3).
    prob = _problem("flat", 1.5, n=64)
    psi = pl.constant_flux_profile(prob)
    a, b = prob.mesh[:-1], prob.mesh[1:]
    slopes = np.diff(psi) / (b - a)
    e_direct = float(np.sum((4.0 * math.pi / 3.0) * (b**3 - a**3) * np.abs(slopes) ** 1.5))
    assert abs(pl.energy(prob, psi) / e_direct - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# capacity and cross-validation
# ---------------------------------------------------------------------------


def test_capacity_from_energy_p_guard():
    sol = pl.minimize_energy(_problem("flat", 1.5, n=64))
    assert pl.capacity_from_energy(sol, 1.5) == pl.capacity_from_energy(sol)
    with pytest.raises(pl.DomainError):
        pl.capacity_from_energy(sol, 1.8)


@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_cross_validate_all_models(solved, name, p):
    prob = pl.discretize(MODELS[name](), p, 1.0, 1024, 1e3)
    sol = pl.minimize_energy(prob, initial=pl.constant_flux_profile(prob))
    report = pl.cross_validate(sol, solved(name, p))
    assert report.passed
    assert report.max_node_error <= 5e-3
    assert abs(report.capacity_gap) <= 5e-3
    # the discrete minimum can only overshoot the continuum energy
    assert report.capacity_gap >= -1e-6


def test_cross_validate_guards(solved):
    sol = pl.minimize_energy(_problem("flat", 1.5, n=64))
    with pytest.raises(pl.DomainError):
        pl.cross_validate(sol, solved("cone", 1.5))  # different model
    with pytest.raises(pl.DomainError):
        pl.cross_validate(sol, solved("flat", 1.8))  # different p
