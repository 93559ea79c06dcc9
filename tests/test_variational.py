"""Discrete p-Dirichlet minimization cross-checked against the quadrature solver.

The key structural fact exploited throughout: the profile with the same flux
through every cell, ``constant_flux_profile``, is the exact stationary point
of the discrete energy for any cell weights, hence its global minimizer.
``minimize_energy`` certifies it by one gradient evaluation and refuses any
other profile.  Its minimality is checked here without a solver: by
convexity (perturbations and the log-linear profile of
``conftest.log_linear_profile`` have larger energy) and by the cell flux
evaluated at 30 digits with mpmath.
"""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from conftest import log_linear_profile
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_default_start_flat_capacity(solved):
    prob = _problem("flat", 1.5, n=2048)
    sol = pl.minimize_energy(prob)
    psi = sol.psi
    assert psi[0] == 1.0 and psi[-1] == 0.0
    assert np.all(np.diff(psi) <= 0.0)
    assert np.all((psi >= 0.0) & (psi <= 1.0))
    assert sol.energy == pl.energy(prob, psi)
    cap = pl.capacity_from_energy(sol)
    assert abs(cap - pl.capacity(solved("flat", 1.5), 0.0)) < 2e-3


@pytest.mark.parametrize(
    "p, n_cells, r_cut",
    [
        (1.37, 2**12, 1e3),  # the log-linear start plateaus at a scaled gradient of 3.8e-2
        (1.6114222135737322, 2**17, 1e3),  # the log-linear start sits at the rounding floor
        (1.5, 2048, 1e4),  # the deep tail
    ],
)
def test_default_start_is_certified_without_newton_steps(p, n_cells, r_cut):
    prob = pl.discretize(pl.flat_model(), p, 1.0, n_cells, r_cut)
    sol = pl.minimize_energy(prob, tol=1e-9)
    assert sol.iterations == 0
    assert sol.grad_norm <= 1e-9
    assert np.array_equal(sol.psi, pl.constant_flux_profile(prob))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    p=st.floats(min_value=1.05, max_value=1.95),
    name=st.sampled_from(sorted(MODELS)),
    n_cells=st.sampled_from([64, 512, 2**12]),
    r_cut=st.sampled_from([1e3, 1e4]),
)
def test_default_start_is_the_minimizer(p, name, n_cells, r_cut):
    prob = _problem(name, p, n=n_cells, r_cut=r_cut)
    sol = pl.minimize_energy(prob)
    assert sol.iterations == 0
    assert sol.grad_norm <= 1e-9
    psi = sol.psi
    # convexity: every interior perturbation raises the energy; below a
    # relative size of 1e-3 the rise reaches the rounding level of the sum
    rng = np.random.default_rng(20261018)
    for eps in (1e-1, 1e-2, 1e-3):
        delta = eps * psi * rng.uniform(-1.0, 1.0, psi.size)
        delta[0] = delta[-1] = 0.0
        assert pl.energy(prob, psi + delta) > sol.energy
    assert pl.energy(prob, log_linear_profile(prob)) >= sol.energy
    if n_cells > 512:
        return
    # stationarity at 30 digits: the flux m |s|^(p-1) / dx of the float
    # profile is the same through every cell
    with mpmath.workdps(30):
        pm = mpmath.mpf(p)
        flux = [
            mpmath.mpf(m) * (mpmath.mpf(a) - mpmath.mpf(b)) ** (pm - 1) / mpmath.mpf(d) ** pm
            for m, a, b, d in zip(prob.weights, psi[:-1], psi[1:], prob.dx)
        ]
        assert max(flux) / min(flux) - 1 <= mpmath.mpf("1e-12")


@pytest.mark.parametrize(
    "p, n_cells, r_cut",
    [
        pytest.param(1.01, 64, 1e3, id="1.01-1000.0"),
        pytest.param(1.01, 64, 1e4, id="1.01-10000.0"),
        pytest.param(1.02, 64, 1e4, id="1.02-10000.0"),
        (1.01, 16, 1e3),
        (1.01, 16, 1e4),
        (1.01, 32, 1e4),
        (1.02, 16, 1e4),
        (1.025, 64, 1e4),  # no zero drop: the subnormal ones overflow |s|^(p-2)
    ],
)
@pytest.mark.parametrize("start", ["default", "explicit"])
def test_underflowing_drops_raise_convergence_error(p, n_cells, r_cut, start):
    # the outer drops underflow to 0.0 (or, at p = 1.025, into the subnormals,
    # where the flux overflows): a clear error that names the underflow, with
    # no warning first
    prob = pl.discretize(pl.flat_model(), p, 1.0, n_cells, r_cut)
    initial = pl.constant_flux_profile(prob) if start == "explicit" else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pl.ConvergenceError, match="underflow"):
            pl.minimize_energy(prob, initial=initial)


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
    assert sol.iterations == 0
    assert sol.grad_norm <= 1e-9


def test_cone_minimizer_equals_flat():
    # The weights differ by the constant factor a^2, which cancels from the
    # stationarity conditions: the minimizing profile is identical.
    pf, pc = _problem("flat", 1.5), _problem("cone", 1.5)
    flat = pl.minimize_energy(pf, initial=pl.constant_flux_profile(pf))
    cone = pl.minimize_energy(pc, initial=pl.constant_flux_profile(pc))
    assert np.max(np.abs(flat.psi - cone.psi)) < 1e-10
    assert abs(cone.energy / flat.energy - 0.64) < 1e-12


def test_deep_tail_default_start_is_node_accurate(solved):
    # four decades of truncation radius
    prob = pl.discretize(pl.flat_model(), 1.5, 1.0, 2048, 1e4)
    sol = pl.minimize_energy(prob)
    pot = solved("flat", 1.5)
    exact = pot.flux_integral_at(prob.mesh) / pot.normalizer
    exact = (exact - exact[-1]) / (exact[0] - exact[-1])
    assert np.max(np.abs(sol.psi - exact)) < 1e-3


def test_non_minimizer_is_refused():
    prob = _problem("flat", 1.5, n=64)
    with pytest.raises(pl.ConvergenceError, match=r"scaled gradient .* exceeds tol 1\.0e-09"):
        pl.minimize_energy(prob, initial=log_linear_profile(prob))
    # the exact minimizer certifies at ~1e-11, not below the rounding level
    with pytest.raises(pl.ConvergenceError, match="scaled gradient"):
        pl.minimize_energy(prob, tol=1e-18)


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
