"""Discrete p-Dirichlet minimization cross-checked against the quadrature solver.

The key structural fact exploited throughout: the profile with the same flux
through every cell, ``constant_flux_profile``, is the exact stationary point
of the discrete energy for any cell weights, hence its global minimizer.
``minimize_energy`` certifies it by the spread of its cell fluxes and refuses
any other profile.  Its minimality is checked here without a solver: by
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
POWER_LAWS = ["flat", "cone_0.8", "power_warp_1.5"]


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
    # non-finite radii: a NaN r0 passes every comparison, on the Gauss route
    # as on the closed form
    for model in (flat, pl.positive_cap_model(1.0)):
        for r0, r_cut in ((math.nan, 1e3), (1.0, math.nan), (math.inf, math.inf), (1e-3, math.inf)):
            with pytest.raises(pl.DomainError, match="radii must be finite"):
                pl.discretize(model, 1.5, r0, 64, r_cut)
    # a fractional cell count would build a mesh with a short last cell
    for n_cells in (64.5, 64.0, "64"):
        with pytest.raises(pl.DomainError, match="must be an integer"):
            pl.discretize(flat, 1.5, 1.0, n_cells, 1e3)
    assert pl.discretize(flat, 1.5, 1.0, np.int64(64), 1e3).n_cells == 64


def test_mesh_is_geometric():
    prob = _problem("flat", 1.5, n=128, r_cut=1e3)
    assert prob.mesh[0] == 1.0
    assert abs(prob.mesh[-1] - 1e3) < 1e-9
    ratios = prob.mesh[1:] / prob.mesh[:-1]
    assert np.max(ratios) / np.min(ratios) - 1.0 < 1e-12
    assert prob.n_cells == 128
    assert prob.weights.shape == (128,)


def test_discretize_peak_memory_is_bounded_by_its_result(monkeypatch):
    # the first discretize on a mesh allocates only the mesh, cell widths and
    # weights it keeps plus, for a power law, one temporary of the weights'
    # size (a^g in the closed form; a few kB of Python objects aside), and for
    # any other warp one block of quadrature scratch, as solve_radial does
    # (see its test there)
    from pinchlab import variational
    from pinchlab.numerics import _BLOCK

    monkeypatch.setattr(variational, "_meshes", {})
    cases = ((pl.power_warp_model(), 1.0, 1e3), (pl.positive_cap_model(1.0), 0.01, 1.0))
    for model, r0, r_cut in cases:
        tracemalloc.start()
        try:
            prob = pl.discretize(model, 1.5, r0, 2**17, r_cut)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scratch = prob.weights.nbytes + 16384 if model.warp.power_law else 5 * 8 * 12 * _BLOCK
        assert peak <= prob.mesh.nbytes + prob.dx.nbytes + prob.weights.nbytes + scratch
        # at another p the kept mesh (and a power law's kept weights) are
        # reused: only the Gauss weights are allocated again
        tracemalloc.start()
        try:
            again = pl.discretize(model, 1.7, r0, 2**17, r_cut)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again.mesh is prob.mesh
        kept = 0 if model.warp.power_law else prob.weights.nbytes + 5 * 8 * 12 * _BLOCK
        assert peak <= kept + 16384


# r0 and r_cut of each model on which the kept mesh is tested
KEPT = {
    "flat": (1.0, 1e3),
    "cone_0.8": (1.0, 1e3),
    "power_warp_1.5": (1.0, 1e3),
    "positive_cap_1": (0.01, 1.0),
}


def _route_bits(name, p):
    # every array and float of discretize -> minimize_energy -> cross_validate
    # on 1024 cells, as bytes and hex
    model = pl.library()[name]
    r0, r_cut = KEPT[name]
    prob = pl.discretize(model, p, r0, 1024, r_cut)
    sol = pl.minimize_energy(prob)
    report = pl.cross_validate(sol, pl.solve_radial(model, p, r0))
    arrays = [a.tobytes() for a in (prob.mesh, prob.dx, prob.weights, sol.psi)]
    floats = [float(x).hex() for x in (sol.energy, sol.grad_norm, *report[:4])]
    return arrays, floats, report.passed


@pytest.mark.parametrize("p, before", [(1.2, 1.6), (1.6, 1.2)])
def test_warm_builds_have_the_bits_of_cold_ones(p, before, monkeypatch):
    # a build on the kept mesh (and, for a power law, its kept weights) made
    # at another p has the bits of one made with nothing kept; positive_cap_1
    # shares the mesh only and integrates its weights again
    from pinchlab import variational

    monkeypatch.setattr(variational, "_meshes", {})
    cold = {}
    for name in KEPT:
        variational._meshes.clear()
        cold[name] = _route_bits(name, p)
    for group in (POWER_LAWS, ["positive_cap_1"]):
        for name in group:
            _route_bits(name, before)
        for name in group:
            assert _route_bits(name, p) == cold[name], name
        assert len(variational._meshes) == 1


def test_kept_arrays_are_shared_read_only_and_bounded(monkeypatch):
    from pinchlab import variational

    monkeypatch.setattr(variational, "_meshes", {})
    lib = pl.library()
    flat = pl.discretize(lib["flat"], 1.5, 1.0, 256, 1e3)
    cone = pl.discretize(lib["cone_0.8"], 1.5, 1.0, 256, 1e3)
    again = pl.discretize(lib["flat"], 1.7, 1.0, 256, 1e3)
    # one mesh for every problem on it, one weights array per law whatever p
    assert flat.mesh is cone.mesh is again.mesh and flat.dx is cone.dx is again.dx
    assert again.weights is flat.weights
    # flat and cone_0.8 share beta = 1 but not c = h(1)
    assert cone.weights is not flat.weights
    assert not np.array_equal(cone.weights, flat.weights)
    assert np.allclose(cone.weights, 0.64 * flat.weights, rtol=1e-12)
    # writing into any of them is refused, on the Gauss route as well
    cap = pl.discretize(lib["positive_cap_1"], 1.5, 0.01, 256, 1.0)
    for prob in (flat, cap):
        for array in (prob.mesh, prob.dx, prob.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
    assert flat.mesh[0] == 1.0 and cap.mesh[0] == 0.01
    # a new (r0, r_cut, n_cells) builds a new mesh and drops the old one with
    # its weights
    assert list(variational._meshes) == [(0.01, 1.0, 256)]
    finer = pl.discretize(lib["flat"], 1.5, 1.0, 512, 1e3)
    assert list(variational._meshes) == [(1.0, 1e3, 512)]
    assert finer.mesh is not flat.mesh and finer.weights is not flat.weights
    rebuilt = pl.discretize(lib["flat"], 1.5, 1.0, 256, 1e3)
    assert rebuilt.mesh is not flat.mesh and rebuilt.weights is not flat.weights
    assert rebuilt.mesh.tobytes() == flat.mesh.tobytes()
    assert rebuilt.weights.tobytes() == flat.weights.tobytes()
    # at most four power laws per mesh, the oldest dropped first
    laws = [lib["flat"], lib["cone_0.8"], lib["power_warp_1.5"], pl.cone_model(0.5),
            pl.power_warp_model(1.0)]
    probs = [pl.discretize(model, 1.5, 1.0, 256, 1e3) for model in laws]
    ((key, (_, _, kept)),) = variational._meshes.items()
    assert key == (1.0, 1e3, 256) and len(kept) == 4
    assert all(any(w is prob.weights for w in kept.values()) for prob in probs[1:])
    assert pl.discretize(lib["flat"], 1.5, 1.0, 256, 1e3).weights is not probs[0].weights
    assert len(kept) == 4 and not any(w is probs[1].weights for w in kept.values())


def test_a_p_sweep_on_one_mesh_builds_it_and_each_law_once(monkeypatch):
    # a work count in place of a clock: three power laws at two exponents on
    # one mesh build one geometric grid and one weights array per law, and
    # integrate nothing
    from pinchlab import variational

    grids, laws = [], []
    grid, weights = variational.geometric_grid, variational._power_law_weights

    def counting_grid(*args):
        grids.append(args)
        return grid(*args)

    def counting_weights(mesh, dx, beta, c):
        laws.append((beta, c))
        return weights(mesh, dx, beta, c)

    def no_call(*args, **kwargs):
        raise AssertionError("power-law weights are in closed form")

    monkeypatch.setattr(variational, "_meshes", {})
    monkeypatch.setattr(variational, "geometric_grid", counting_grid)
    monkeypatch.setattr(variational, "_power_law_weights", counting_weights)
    monkeypatch.setattr(variational, "cell_integrals", no_call)
    for p in (1.5, 1.7):
        for name in POWER_LAWS:
            prob = pl.discretize(pl.library()[name], p, 1.0, 2**12, 1e3)
            pl.cross_validate(pl.minimize_energy(prob), pl.solve_radial(prob.model, p, 1.0))
    assert grids == [(1.0, 1e3, 2**12 + 1)]
    assert laws == [(1.0, 1.0), (1.0, 0.8), (0.75, 1.0)]


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
        (1.025, 64, 1e4),  # no zero drop: the smallest is subnormal, 8.7e-312
    ],
)
@pytest.mark.parametrize("start", ["default", "explicit"])
def test_underflowing_drops_raise_convergence_error(p, n_cells, r_cut, start):
    # the outer drops underflow to 0.0 (or, at p = 1.025, into the
    # subnormals): a clear error that names the underflow, with no warning
    # first
    prob = pl.discretize(pl.flat_model(), p, 1.0, n_cells, r_cut)
    initial = pl.constant_flux_profile(prob) if start == "explicit" else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pl.ConvergenceError, match="underflow"):
            pl.minimize_energy(prob, initial=initial)


@pytest.mark.parametrize(
    "name, p, n_cells",
    [
        ("flat", 1.026, 4096),  # smallest drop 3.8e-305
        ("power_warp_1.5", 1.019, 64),  # smallest drop 1.2e-307
    ],
)
def test_tiny_normal_drops_are_certified(name, p, n_cells):
    # the drops are normal floats, however small: m |s|^(p-1) stays finite
    # where the flux written as m p |s|^(p-2) s / dx overflowed in |s|^(p-2)
    prob = pl.discretize(pl.library()[name], p, 1.0, n_cells, 1e4)
    psi = pl.constant_flux_profile(prob)
    assert np.min(psi[:-1] - psi[1:]) >= np.finfo(float).tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = pl.minimize_energy(prob)
    assert sol.grad_norm <= 1e-13
    assert np.array_equal(sol.psi, psi)
    assert math.isfinite(sol.energy) and sol.energy == pl.energy(prob, psi)


def test_non_monotone_profile_is_refused():
    prob = _problem("flat", 1.5, n=64)
    psi = pl.constant_flux_profile(prob)
    psi[[20, 21]] = psi[[21, 20]]
    with pytest.raises(pl.ConvergenceError, match="not monotone decreasing: .* in cell 20 of 64"):
        pl.minimize_energy(prob, initial=psi, tol=math.inf)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    p=st.floats(min_value=1.05, max_value=1.95),
    name=st.sampled_from(sorted(MODELS)),
    n_cells=st.sampled_from([64, 512, 2**12]),
    size=st.floats(min_value=1e-4, max_value=0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_flux_spread_bounds_the_scaled_gradient(p, name, n_cells, size, seed):
    # the certificate (max f - min f) / max(1, min f) is at least the scaled
    # gradient max |f_i - f_(i+1)| / max(1, upper median |f|) of the signed
    # flux f = m p |s|^(p-2) s / dx, on monotone profiles perturbed from the
    # minimizer: it is as strict on every profile, up to the few ulps of
    # max |f| by which the two flux formulas round apart
    prob = _problem(name, p, n=n_cells)
    psi = pl.constant_flux_profile(prob)
    drops = psi[:-1] - psi[1:]
    drops *= 1.0 + size * np.random.default_rng(seed).uniform(-1.0, 1.0, drops.size)
    psi[:-1] = np.cumsum(drops[::-1])[::-1]
    psi /= psi[0]
    psi[0], psi[-1] = 1.0, 0.0
    sol = pl.minimize_energy(prob, initial=psi, tol=math.inf)

    slopes = np.diff(psi) / prob.dx
    flux = prob.weights * p * np.abs(slopes) ** (p - 2.0) * slopes / prob.dx
    magnitude = np.abs(flux)
    upper_median = np.partition(magnitude, flux.size // 2)[flux.size // 2]
    scaled_gradient = np.max(np.abs(flux[:-1] - flux[1:])) / max(1.0, upper_median)
    rounding = 16 * np.finfo(float).eps * magnitude.max() / max(1.0, magnitude.min())
    assert sol.grad_norm >= scaled_gradient - rounding
    assert scaled_gradient > 1e3 * rounding


def test_minimize_energy_peak_memory_is_bounded():
    # beyond the profile it returns, minimize_energy holds two blocks of
    # scratch (the drops, slopes and terms in one, m |s|^(p-1) in the other)
    # and a few kB of Python objects; constant_flux_profile writes its log
    # drops into the profile, with one block of log dx beside it
    from pinchlab.variational import _TERM_BLOCK

    prob = _problem("power_warp", 1.5, n=2**17)
    block = 8 * _TERM_BLOCK
    for build, blocks in ((pl.constant_flux_profile, 1), (pl.minimize_energy, 2)):
        tracemalloc.start()
        try:
            psi = build(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        psi = getattr(psi, "psi", psi)
        assert peak <= psi.nbytes + blocks * block + 16384, build.__name__


@pytest.mark.parametrize("name", ["power_warp_1.5", "positive_cap_1"])
def test_cross_validate_peak_memory_is_bounded(name):
    # the node error is taken one block of nodes at a time: at 2^17 cells a
    # call holds a few blocks, never an array of the mesh's size; a warp
    # without a power law adds the Gauss scratch of its partial panels (see
    # test_discretize_peak_memory_is_bounded_by_its_result)
    from pinchlab.numerics import _BLOCK
    from pinchlab.variational import _TERM_BLOCK

    model = pl.library()[name]
    r0, r_cut = KEPT[name]
    sol = pl.minimize_energy(pl.discretize(model, 1.5, r0, 2**17, r_cut))
    pot = pl.solve_radial(model, 1.5, r0)
    pl.cross_validate(sol, pot)  # the potential's lazily built arrays
    tracemalloc.start()
    try:
        report = pl.cross_validate(sol, pot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    gauss = 0 if model.warp.power_law else 5 * 8 * 12 * _BLOCK
    assert peak <= 3 * 8 * _TERM_BLOCK + gauss
    if model.warp.power_law:
        assert peak < sol.psi.nbytes // 2


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


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
def test_tolerance_must_be_positive(tol):
    with pytest.raises(pl.DomainError, match="gradient tolerance must be positive"):
        pl.minimize_energy(_problem("flat", 1.5, n=64), tol=tol)


def test_non_finite_initial_profile_is_refused():
    # a NaN is a bad input, not an underflow of the minimizer's drops
    prob = _problem("flat", 1.5, n=64)
    psi = pl.constant_flux_profile(prob)
    psi[10] = np.nan
    with pytest.raises(pl.DomainError, match="not finite at node 10"):
        pl.minimize_energy(prob, initial=psi)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_energy_of_a_non_finite_profile_is_refused(bad):
    # a non-finite node would make the energy NaN or inf without a word
    prob = _problem("flat", 1.5, n=64)
    psi = pl.constant_flux_profile(prob)
    psi[10] = bad
    with pytest.raises(pl.DomainError, match="^profile is not finite at node 10$"):
        pl.energy(prob, psi)


def test_weights_of_a_warp_without_power_law_keep_the_twelve_point_rule():
    from pinchlab.numerics import cell_integrals

    model = pl.positive_cap_model(1.0)
    prob = pl.discretize(model, 1.5, 0.01, 256, 1.0)

    def area_density(r):
        h = model.warp.h(r)
        return 4.0 * math.pi * h * h

    assert model.warp.power_law is None
    assert np.array_equal(prob.weights, cell_integrals(area_density, prob.mesh))


@pytest.mark.parametrize("gauss", [False, True])
def test_overflowing_weights_are_refused(gauss):
    # h^2 = r^2 on [1, 1e200] overflows in the last cells, by the closed form
    # and, for the same warp declared without its power law, by the Gauss rule
    import dataclasses

    model = pl.power_warp_model(2.0, r_max=1e300)
    if gauss:
        model = pl.ManifoldModel(dataclasses.replace(model.warp, kind="custom"), model.r_min,
                                 model.r_max)
    with pytest.raises(pl.ConvergenceError, match=r"non-finite cell weight inf in cell \d+ of 64"):
        pl.discretize(model, 1.5, 1.0, 64, 1e200)



@pytest.mark.parametrize("n_cells", [64, 2**17])
@pytest.mark.parametrize("name", POWER_LAWS)
def test_power_law_weights_are_within_four_eps(name, n_cells):
    # the closed form 4 pi c^2 a^g expm1(g log1p((b-a)/a)) / g, g = 2 beta + 1,
    # on the cells of [1, 1e3] (2^17 cells: ratio 1 + 5.3e-5, where b^g - a^g
    # would lose ~1e-11): first, last and spread cells against the integral
    # 4 pi c^2 (b^g - a^g) / g at 40 digits over the same float mesh
    model = pl.library()[name]
    prob = pl.discretize(model, 1.5, 1.0, n_cells, 1e3)
    n = prob.n_cells
    cells = np.unique(np.concatenate([np.arange(16), np.linspace(0, n - 1, 200).astype(int),
                                      np.arange(n - 16, n)]))
    eps = float(np.finfo(float).eps)
    with mpmath.workdps(40):
        g = mpmath.mpf(2.0 * model.warp.power_law + 1.0)
        scale = 4 * mpmath.pi * mpmath.mpf(float(model.warp.h(1.0))) ** 2 / g
        for i in cells:
            a, b = mpmath.mpf(prob.mesh[i]), mpmath.mpf(prob.mesh[i + 1])
            exact = scale * (b**g - a**g)
            assert abs(float(mpmath.mpf(prob.weights[i]) / exact - 1)) <= 4 * eps, i


@pytest.mark.parametrize("n_cells", [64, 2**17])
@pytest.mark.parametrize("name", POWER_LAWS)
def test_power_law_weights_agree_with_the_gauss_rule(name, n_cells):
    # the 12-point rule as the oracle of the closed form: the same h declared
    # without a power law gives weights within 8 eps and capacities within
    # 1e-15 at three exponents
    import dataclasses

    model = pl.library()[name]
    plain = pl.ManifoldModel(dataclasses.replace(model.warp, kind="custom"), model.r_min,
                             model.r_max)
    assert plain.warp.power_law is None
    eps = float(np.finfo(float).eps)
    for p in (1.15, 1.5, 1.85):
        exact = pl.discretize(model, p, 1.0, n_cells, 1e3)
        gauss = pl.discretize(plain, p, 1.0, n_cells, 1e3)
        assert np.max(np.abs(gauss.weights / exact.weights - 1.0)) <= 8 * eps
        cap_exact = pl.capacity_from_energy(pl.minimize_energy(exact))
        cap_gauss = pl.capacity_from_energy(pl.minimize_energy(gauss))
        assert abs(cap_gauss / cap_exact - 1.0) <= 1e-15


@pytest.mark.parametrize("name, r0", [("positive_cap_1", 0.01), ("spline_cap_0.5", 0.005)])
def test_gauss_weights_have_the_bits_of_fresh_arrays(name, r0):
    # a warp without a power law keeps the 12-point cells, summed node by node
    # as the formula with fresh arrays and leggauss(12) sums them
    model = pl.library()[name]
    prob = pl.discretize(model, 1.5, r0, 1024, 100.0 * r0)
    nodes, weights = np.polynomial.legendre.leggauss(12)
    lo, hi = prob.mesh[:-1], prob.mesh[1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    h = model.warp.h((half * nodes[:, None] + mid).reshape(-1)).reshape(12, -1)
    rows = 4.0 * math.pi * h * h * weights[:, None]
    total = rows[0]
    for row in rows[1:]:
        total = total + row
    assert np.array_equal(prob.weights, half * total)


@pytest.mark.parametrize("name", POWER_LAWS)
def test_power_law_weights_integrate_nothing(name, monkeypatch):
    from pinchlab import numerics, variational

    def no_call(*args, **kwargs):
        raise AssertionError("power-law weights are in closed form")

    monkeypatch.setattr(variational, "cell_integrals", no_call)
    monkeypatch.setattr(numerics, "cell_integrals", no_call)
    monkeypatch.setattr(numerics, "interval_integrals", no_call)
    prob = pl.discretize(pl.library()[name], 1.5, 1.0, 2**17, 1e3)
    assert prob.weights.shape == (2**17,)


def test_energy_matches_direct_formula():
    # Independent assembly for the flat model, where the cell weights are the
    # exact sphere-area integrals (4 pi / 3)(b^3 - a^3).
    prob = _problem("flat", 1.5, n=64)
    psi = pl.constant_flux_profile(prob)
    a, b = prob.mesh[:-1], prob.mesh[1:]
    slopes = np.diff(psi) / (b - a)
    e_direct = float(np.sum((4.0 * math.pi / 3.0) * (b**3 - a**3) * np.abs(slopes) ** 1.5))
    assert abs(pl.energy(prob, psi) / e_direct - 1.0) < 1e-12


def _whole_terms(prob, psi):
    # the terms m s^p and fluxes m s^(p-1) / dx of a profile over whole arrays
    slopes = np.abs(psi[:-1] - psi[1:]) / prob.dx
    t = np.power(slopes, prob.p.value - 1.0) * prob.weights
    return slopes * t, t / prob.dx


def test_cell_terms_in_blocks_have_the_bits_of_whole_arrays():
    # energy() and the certificate build the drops, slopes and m |s|^(p-1)
    # from the profile one block at a time; the energy, the block sums added
    # along numpy's pairwise split, and the flux extremes have the bits of
    # the same formulas over whole arrays, across full and partial blocks
    from pinchlab.variational import _TERM_BLOCK, _cell_terms

    rng = np.random.default_rng(5)
    for n in (64, _TERM_BLOCK, 2 * _TERM_BLOCK + 321, 3 * _TERM_BLOCK + 7, 2**17):
        prob = _problem("power_warp", 1.37, n=n)
        # energy(): a profile that rises and falls, its drops taken in
        # absolute value; the least flux opens every stride of _TERM_BLOCK
        # cells and the greatest closes the last
        psi = np.cumsum(rng.uniform(-1.0, 2.0, n + 1))[::-1].copy()
        starts = np.arange(0, n, _TERM_BLOCK)
        psi[starts + 1] = psi[starts]
        psi[-1] = psi[-2] - 1e6
        terms, flux = _whole_terms(prob, psi)
        assert _cell_terms(prob, psi, certify=False) == (
            float(terms.sum()), float(flux.min()), float(flux.max()))
        # the certificate: a decreasing profile
        psi = np.append(np.cumsum(rng.uniform(0.5, 2.0, n)[::-1])[::-1], 0.0)
        terms, flux = _whole_terms(prob, psi)
        assert _cell_terms(prob, psi, certify=True) == (
            float(terms.sum()), float(flux.min()), float(flux.max()))


def _drop_message(prob, psi):
    # the refusal's message as it was built from the whole array of drops
    drops = psi[:-1] - psi[1:]
    smallest, cell = float(drops.min()), int(np.argmin(drops))
    if smallest < 0.0:
        return f"profile is not monotone decreasing: it rises by {-smallest!r} in cell {cell} of {prob.n_cells}"
    kind = "zero" if smallest == 0.0 else "subnormal"
    return (
        f"profile has a {kind} drop {smallest!r} in cell {cell} of {prob.n_cells} "
        f"(p = {prob.p.value!r}): the minimizer's drops are all positive, so they underflow "
        f"there; p this close to 1 needs fewer decades of truncation radius"
    )


@pytest.mark.parametrize("where", ["second", "last"])
@pytest.mark.parametrize("kind", ["negative", "zero", "subnormal"])
def test_a_bad_drop_past_the_first_block_is_refused_by_the_whole_mesh(kind, where):
    # on 3 * 16384 + 7 cells, a bad drop in the second block or in the last,
    # partial one is refused before that block's fluxes, by the smallest
    # drop over the whole mesh and its cell, with no warning first
    from pinchlab.variational import _TERM_BLOCK

    prob = _problem("flat", 1.5, n=3 * _TERM_BLOCK + 7)
    psi = pl.constant_flux_profile(prob)
    cell = _TERM_BLOCK + 123 if where == "second" else 3 * _TERM_BLOCK + 3
    if kind == "negative":
        psi[[cell, cell + 1]] = psi[[cell + 1, cell]]
    elif kind == "zero":
        psi[cell + 1] = psi[cell]
    else:
        # the nodes past the cell drop by two subnormal steps each, and the
        # cell itself by one
        tiny = np.nextafter(0.0, 1.0)
        psi[cell + 1 :] = 2.0 * tiny * np.arange(prob.n_cells - cell - 1, -1, -1)
        psi[cell] = psi[cell + 1] + tiny
    message = _drop_message(prob, psi)
    assert f"in cell {cell} of" in message and kind.replace("negative", "rises") in message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(pl.ConvergenceError) as refused:
            pl.minimize_energy(prob, initial=psi, tol=math.inf)
    assert str(refused.value) == message


def test_a_nan_past_the_first_block_is_not_dropped():
    # the blocks' results are combined by np.min and np.max, which keep a
    # NaN: a NaN drop is refused, and a NaN energy, flux or node error in the
    # second block reaches the result
    from pinchlab.variational import _TERM_BLOCK, _cell_terms

    prob = _problem("flat", 1.5, n=3 * _TERM_BLOCK + 7)
    sol = pl.minimize_energy(prob)
    psi = sol.psi.copy()
    psi[_TERM_BLOCK + 123] = np.nan
    with pytest.raises(pl.ConvergenceError, match=f"drop nan in cell {_TERM_BLOCK + 122} of"):
        _cell_terms(prob, psi, certify=True)
    assert all(math.isnan(x) for x in _cell_terms(prob, psi, certify=False))
    report = pl.cross_validate(sol._replace(psi=psi), pl.solve_radial(prob.model, 1.5, 1.0))
    assert math.isnan(report.max_node_error) and not report.passed


def _unblocked_route(prob, pot):
    # the route's formulas over whole arrays: the profile, its energy and
    # certificate, and the node error against the potential
    p = prob.p.value
    log_dx = np.log(prob.dx)
    log_drops = (log_dx - np.log(prob.weights)) / (p - 1.0) + log_dx
    drops = np.exp(log_drops - log_drops.max())
    drops /= drops.sum()
    psi = np.empty(drops.size + 1)
    np.cumsum(drops[::-1], out=psi[-2::-1])
    psi[-1] = 0.0
    psi /= psi[0]
    psi[0] = 1.0
    terms, flux = _whole_terms(prob, psi)
    lo, hi = p * flux.min(), p * flux.max()
    node_error = np.abs(pot.flux_integral_at(prob.mesh) / pot.normalizer - psi).max()
    energy = float(terms.sum())
    cap_energy = (1.0 / (4.0 * math.pi)) * ((p - 1.0) / (3.0 - p)) ** (p - 1.0) * energy
    cap_quad = pl.capacity(pot, 0.0)
    return psi, energy, (hi - lo) / max(1.0, lo), float(node_error), (cap_energy - cap_quad) / cap_quad


@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("name", sorted(KEPT))
def test_blocked_route_has_the_bits_of_whole_arrays(name, p):
    # on 3 * 16384 + 7 cells, where the last block is partial and numpy's
    # pairwise sum of the whole terms splits at 12288-cell nodes, not at
    # multiples of 16384: the profile, certificate, node error and capacity
    # gap have the bits of the whole-array formulas.  The energy's budget is
    # 0 ulps: its blocks are nodes of that pairwise split (variational.
    # _pairwise_sum), so it makes the same additions in the same order
    from pinchlab.variational import _TERM_BLOCK

    model = pl.library()[name]
    r0, r_cut = KEPT[name]
    prob = pl.discretize(model, p, r0, 3 * _TERM_BLOCK + 7, r_cut)
    pot = pl.solve_radial(model, p, r0)
    sol = pl.minimize_energy(prob)
    report = pl.cross_validate(sol, pot)
    psi, energy, grad_norm, node_error, gap = _unblocked_route(prob, pot)
    assert sol.psi.tobytes() == psi.tobytes()
    assert sol.grad_norm == grad_norm
    assert report.max_node_error == node_error
    assert sol.energy == energy == pl.energy(prob, sol.psi)
    assert report.capacity_gap == gap


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
