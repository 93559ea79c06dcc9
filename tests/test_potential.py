"""Radial capacitary potential: closed forms, first integral, level geometry.

On h = r^(alpha/2) with inner radius 1 the solution is fully explicit:
    u(r) = r^(1 - q),  q = 2/(p-1) (alpha = 2 gives flat space)
    w(r) = -(p-1) log u = (q - 1)(p - 1) log r
    h^2 |u'|^(p-1) is the conserved radial flux of the p-Laplacian.
These exact forms are the oracles for every assertion here.
"""

import gc
import math
import weakref

import numpy as np
import pytest

import pinchlab as pl

P_VALUES = (1.2, 1.5, 1.8)


# ---------------------------------------------------------------------------
# exponent validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [0.5, 1.0, 2.0, 2.5, float("inf"), float("nan")])
def test_p_exponent_rejected(bad):
    with pytest.raises(pl.DomainError, match=r"\(1, 2\)"):
        pl.as_p(bad)


def test_as_p_idempotent():
    p = pl.as_p(1.5)
    assert pl.as_p(p) is p
    assert p.value == 1.5


# ---------------------------------------------------------------------------
# flat closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", P_VALUES)
def test_flat_nodes_match_closed_form(solved, p):
    pot = solved("flat", p)
    m = 3.0 - p
    exact = pot.grid ** (-m / (p - 1.0))
    assert np.max(np.abs(pot.u / exact - 1.0)) < 1e-12
    # w = m log r / ... : w = (p-1) log(1/u) = m log r
    assert np.max(np.abs(pot.w - m * np.log(pot.grid))) < 1e-10 * (1.0 + pot.w[-1])


def test_flat_specific_values(solved):
    pot = solved("flat", 1.5)
    s = pot.state_at(2.0)
    assert abs(s.u - 0.125) < 1e-13  # 2^(-m/(p-1)) = 2^-3
    assert abs(pot.state_at(math.e).w - 1.5) < 1e-12  # w = m log r
    assert abs(pl.radius_of_level(pot, 3.0) - math.e**2) < 1e-9
    # normalized capacity of the inner sphere is exactly 1 in flat space
    assert abs(pl.capacity(pot, 0.0) - 1.0) < 1e-12


@pytest.mark.parametrize("p", P_VALUES)
def test_first_integral_is_constant(solved, p):
    # h^2 |u'|^(p-1) is the flux first integral; it must be grid-constant.
    for name in ("flat", "power_warp"):
        pot = solved(name, p)
        h, _, _ = pot.model.warp(pot.grid)
        flux = h**2 * np.abs(pot.u_prime) ** (p - 1.0)
        assert np.max(flux) / np.min(flux) - 1.0 < 1e-12


def test_w_satisfies_radial_ode(solved):
    # (p-1) w'' = w'(w' - H) along the radial direction; check the stored
    # profile against a second-order finite difference of w'.
    p = 1.5
    pot = solved("power_warp", p, n_grid=16384)
    grid = pot.grid
    h, h1, _ = pot.model.warp(grid)
    H = 2.0 * h1 / h
    w2_exact = pot.w_prime * (pot.w_prime - H) / (p - 1.0)
    w2_fd = np.gradient(pot.w_prime, grid)
    inner = slice(grid.size // 4, 3 * grid.size // 4)
    rel = np.abs(w2_fd[inner] - w2_exact[inner]) / np.max(np.abs(w2_exact[inner]))
    assert np.max(rel) < 1e-5


# ---------------------------------------------------------------------------
# capacity law
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["flat", "cone", "power_warp"])
def test_capacity_grows_exponentially(solved, name, rng):
    pot = solved(name, 1.5)
    cap0 = pl.capacity(pot, 0.0)
    for t in rng.uniform(0.1, 0.8 * pot.t_max, 12):
        ratio = pl.capacity(pot, float(t)) / (cap0 * math.exp(t))
        assert abs(ratio - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# solver guards
# ---------------------------------------------------------------------------


def test_divergent_tail_refused():
    # Volume growth r^(1+alpha) with alpha <= p - 1 leaves no decaying
    # potential; the solver must refuse instead of silently truncating.
    model = pl.power_warp_model(0.6)
    with pytest.raises(pl.ConvergenceError, match="needs alpha > p - 1"):
        pl.solve_radial(model, 1.8, 1.0)


def test_solver_input_validation():
    flat = pl.flat_model()
    cone = pl.cone_model(0.8)
    with pytest.raises(pl.DomainError):
        pl.solve_radial(flat, 1.5, 0.0)
    with pytest.raises(pl.DomainError):
        pl.solve_radial(cone, 1.5, 1e-5)  # inside the excluded core
    with pytest.raises(pl.DomainError):
        pl.solve_radial(flat, 1.5, 1.0, r_max=2e4)  # beyond the model domain
    with pytest.raises(pl.DomainError):
        pl.solve_radial(flat, 1.5, 5.0, r_max=2.0)
    with pytest.raises(pl.DomainError):
        pl.solve_radial(flat, 1.5, 1.0, n_grid=8)


def test_boundary_model_starts_at_inner_sphere(solved):
    pot = solved("cone", 1.5, 1e-4)
    s = pot.state_at(pot.r0)
    assert s.u == 1.0
    assert s.w == 0.0
    assert pl.radius_of_level(pot, 0.0) == pot.r0
    assert np.all(np.diff(pot.w) > 0.0)


# ---------------------------------------------------------------------------
# accessors
# ---------------------------------------------------------------------------


def test_level_radius_roundtrip(solved, rng):
    pot = solved("flat", 1.8)
    for t in rng.uniform(0.05, 0.9 * pot.t_max, 10):
        r = pl.radius_of_level(pot, float(t))
        assert abs(pot.state_at(r).w - t) < 1e-10 * (1.0 + t)


def test_level_inversion_keeps_no_reference_cycle():
    # the potential must be freed by reference counting alone once dropped
    gc.disable()
    try:
        pot = pl.solve_radial(pl.flat_model(), 1.5, 1.0, n_grid=256)
        pl.radius_of_level(pot, 0.5 * pot.t_max + 1e-7)  # between nodes: runs brentq
        ref = weakref.ref(pot)
        del pot
        assert ref() is None
    finally:
        gc.enable()


def test_level_beyond_truncation_rejected(solved):
    pot = solved("flat", 1.5)
    with pytest.raises(pl.DomainError, match="beyond truncation"):
        pl.radius_of_level(pot, pot.t_max + 1.0)
    with pytest.raises(pl.DomainError):
        pot.state_at(pot.r_trunc * 2.0)


def test_monotone_profiles(solved):
    pot = solved("cone", 1.2)
    assert np.all(np.diff(pot.u) < 0.0)
    assert pot.u[0] == 1.0
    assert np.all(pot.w_prime > 0.0)


# ---------------------------------------------------------------------------
# decay bound
# ---------------------------------------------------------------------------


def test_decay_check_flat(solved):
    pot = solved("flat", 1.5)
    report = pl.decay_check(pot, 2.0)
    assert report.passed
    # u r^((alpha+1-p)/(p-1)) is exactly 1 in flat space
    assert abs(report.K - 1.0) < 1e-9
    assert abs(report.exponent - 3.0) < 1e-14
    assert abs(report.tail_slope) < 1e-9


def test_decay_check_rejects_wrong_alpha(solved):
    pot = solved("flat", 1.5)
    with pytest.raises(pl.DomainError, match="inconsistent"):
        pl.decay_check(pot, 1.5)
