"""Radial capacitary potential: closed forms, first integral, level geometry.

On h = r^(alpha/2) with inner radius 1 the solution is fully explicit:
    u(r) = r^(1 - q),  q = 2/(p-1) (alpha = 2 gives flat space)
    w(r) = -(p-1) log u = (q - 1)(p - 1) log r
    h^2 |u'|^(p-1) is the conserved radial flux of the p-Laplacian.
These exact forms are the oracles for every assertion here.
"""

import dataclasses
import functools
import gc
import json
import math
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinchlab as pl
from pinchlab import functionals
from conftest import w_prime_at
from pinchlab.potential import (
    LEVEL_NEWTON_RTOL,
    LEVEL_RESIDUAL_ULPS,
    LEVEL_STEP_ULPS,
    _hermite_start,
    _level_at,
)

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
    assert np.max(np.abs(pot.suffix / pot.normalizer / exact - 1.0)) < 1e-12
    # w = m log r / ... : w = (p-1) log(1/u) = m log r
    assert np.max(np.abs(pot.w - m * np.log(pot.grid))) < 1e-10 * (1.0 + pot.w[-1])


def test_flat_specific_values(solved):
    pot = solved("flat", 1.5)
    u = pot.flux_integral_at(2.0)[0] / pot.normalizer
    assert abs(u - 0.125) < 1e-13  # 2^(-m/(p-1)) = 2^-3
    assert abs(_level_at(pot, math.e)[0] - 1.5) < 1e-12  # w = m log r
    assert abs(pl.radius_of_level(pot, 3.0) - math.e**2) < 1e-9
    # normalized capacity of the inner sphere is exactly 1 in flat space
    assert abs(pl.capacity(pot, 0.0) - 1.0) < 1e-12


@pytest.mark.parametrize("p", P_VALUES)
def test_first_integral_is_constant(solved, p):
    # h^2 |u'|^(p-1) is the flux first integral; it must be grid-constant.
    # u = I / I(r0) and |u'| = w' u / (p-1)
    for name in ("flat", "power_warp"):
        pot = solved(name, p)
        h, _, _ = pot.model.warp(pot.grid)
        u_prime = w_prime_at(pot, pot.grid) * pot.suffix / ((p - 1.0) * pot.normalizer)
        flux = h**2 * u_prime ** (p - 1.0)
        assert np.max(flux) / np.min(flux) - 1.0 < 1e-12


def test_w_satisfies_radial_ode(solved):
    # (p-1) w'' = w'(w' - H) along the radial direction; check the stored
    # profile against a second-order finite difference of w'.
    p = 1.5
    pot = solved("power_warp", p, n_grid=16384)
    grid = pot.grid
    h, h1, _ = pot.model.warp(grid)
    H = 2.0 * h1 / h
    wp = w_prime_at(pot, grid)
    w2_exact = wp * (wp - H) / (p - 1.0)
    w2_fd = np.gradient(wp, grid)
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
    # potential; the solver must refuse instead of silently truncating.  The
    # message says "fitted" only when beta was fitted, not known exactly.
    from pinchlab import geometry

    model = pl.power_warp_model(0.6)
    with pytest.raises(pl.ConvergenceError, match="needs alpha > p - 1") as exact:
        pl.solve_radial(model, 1.8, 1.0)
    assert "beta = 0.3000" in str(exact.value) and "fitted" not in str(exact.value)
    knots = np.geomspace(0.1, 100.0, 12)
    spline = pl.ManifoldModel(geometry.spline_warp(knots, knots**0.3), 0.1, 100.0)
    with pytest.raises(pl.ConvergenceError, match=r"fitted warp exponent beta = 0\.29"):
        pl.solve_radial(spline, 1.8, 1.0)


def _windowed_model(inside):
    """h = r^0.1 on [1, 100], except h = ``inside`` on 2 < r < 2.5.  The window
    misses the 16 radii ManifoldModel checks h at and holds whole cells of a
    256-node grid, so only the flux quadrature sees it."""
    from pinchlab import geometry

    def h(r):
        return np.where((r > 2.0) & (r < 2.5), inside, r**0.1)

    def ev(r):
        return h(r), 0.1 * r**-0.9, -0.09 * r**-1.9

    return pl.ManifoldModel(geometry.WarpFunction("custom", {}, False, ev, h), 1.0, 100.0)


@pytest.mark.parametrize("inside", [float("nan"), 1e200, 0.0], ids=["nan", "zero", "inf"])
def test_bad_cells_are_refused_before_the_tail(inside):
    # h^(-q) is NaN, underflows to 0 or is +inf on the window, so some cells
    # are NaN, zero or +inf.  The fitted tail of r^0.1 diverges at p = 1.5
    # (q beta = 0.4), so the cell check must come first to be the one raised
    solve = functools.partial(pl.solve_radial, p=1.5, r0=1.0, r_max=100.0, n_grid=256)
    with np.errstate(divide="ignore"):
        with pytest.raises(pl.ConvergenceError, match="non-positive or non-finite cells"):
            solve(_windowed_model(inside))
    with pytest.raises(pl.ConvergenceError, match="fitted warp exponent beta = 0.1000"):
        solve(_windowed_model(1.0))


def test_overflowing_power_law_scale_is_refused():
    # h = 1e-4 r on [1e4, 1e5] keeps h^(-q) in [1e-80, 1] at p = 1.025 (q = 80),
    # but the scale c^(-q) = 1e320 of h = c r overflows.  A fitted scale can
    # overflow too: h = (r/100)^15 on [80, 100] fits c = 1e-30, and q = 20
    from pinchlab import geometry

    cone = pl.cone_model(1e-4, r_min=1.0, r_max=1e6)
    with pytest.raises(
        pl.ConvergenceError, match=r"c\^\(-q\) overflows: c = h\(1\) = 0\.0001, q = 2/\(p-1\) = 80\.0"
    ):
        pl.solve_radial(cone, 1.025, 1e4, r_max=1e5, n_grid=256)
    knots = np.linspace(80.0, 100.0, 40)
    spline = pl.ManifoldModel(geometry.spline_warp(knots, (knots / 100.0) ** 15), 80.0, 100.0)
    with pytest.raises(pl.ConvergenceError, match=r"c\^\(-q\) overflows: fitted log c = -69\.07"):
        pl.solve_radial(spline, 1.1, 85.0, r_max=100.0, n_grid=256)


def test_overflowing_closed_form_is_refused():
    # flat space at p = 1.01 from r0 = 1e-3: I(r0) = r0^(-199)/199 passes the
    # float range while the tail I(10) = 10^(-199)/199 does not underflow
    overflow = r"I\(r0\) overflows: I\(r0\) = inf with the tail I\(r_max\) = 5\.02"
    with np.errstate(over="ignore"):
        with pytest.raises(pl.ConvergenceError, match=overflow):
            pl.solve_radial(pl.flat_model(), 1.01, 1e-3)


def test_underflowing_power_law_scale_and_tail_are_refused():
    # h = 30 r on [0.01, 0.1] keeps h^(-q) in [1e-153, 1e167] at p = 1.00625
    # (q = 320), but the scale 30^(-320) of h = c r underflows to 0.0, which
    # would make 0 * inf cells.  A fitted tail can underflow too: h ~ (r/10)^15
    # on the outer decade of [1, 100] gives c^(-q) ~ 1e300 times 100^(-299)
    from pinchlab import geometry

    cone = pl.cone_model(30.0, r_min=0.01, r_max=1.0)
    scale = r"c\^\(-q\) underflows to 0\.0: c = h\(1\) = 30\.0, q = 2/\(p-1\) = 319\.99"
    with pytest.raises(pl.ConvergenceError, match=scale):
        pl.solve_radial(cone, 1.00625, 0.01, r_max=0.1, n_grid=256)
    k = np.geomspace(1.0, 100.0, 80)
    warp = geometry.spline_warp(k, np.maximum(1.0, (k / 10.0) ** 15))
    tail = r"tail integral .* underflows to 0\.0: .* fitted beta = 14\.99"
    with pytest.raises(pl.ConvergenceError, match=tail):
        pl.solve_radial(pl.ManifoldModel(warp, 1.0, 100.0), 1.1, 1.0, r_max=100.0, n_grid=256)


def test_solver_input_validation():
    flat = pl.flat_model()
    cone = pl.cone_model(0.8)
    with pytest.raises(pl.DomainError, match="inner radius r0 must be a positive finite number"):
        pl.solve_radial(flat, 1.5, 0.0)
    with pytest.raises(pl.DomainError):
        pl.solve_radial(cone, 1.5, 1e-5)  # inside the excluded core
    with pytest.raises(pl.DomainError):
        pl.solve_radial(flat, 1.5, 1.0, r_max=2e4)  # beyond the model domain
    with pytest.raises(pl.DomainError):
        pl.solve_radial(flat, 1.5, 5.0, r_max=2.0)
    with pytest.raises(pl.DomainError):
        pl.solve_radial(flat, 1.5, 1.0, n_grid=8)
    # a non-finite radius is refused by name, not as a failed r0 < r_max
    for bad in (float("nan"), float("inf")):
        with pytest.raises(pl.DomainError, match="inner radius r0 must be a positive finite number"):
            pl.solve_radial(flat, 1.5, bad)
        with pytest.raises(pl.DomainError, match="truncation radius r_max must be a finite number"):
            pl.solve_radial(flat, 1.5, 1.0, r_max=bad)
    # the node count is an integer by operator.index, as discretize's n_cells:
    # 300.7 would solve on 300 nodes, NaN and inf would escape as ValueError
    # and OverflowError
    for bad in (300.7, 4096.0, float("nan"), float("inf"), "4096"):
        with pytest.raises(pl.DomainError, match="n_grid must be an integer"):
            pl.solve_radial(flat, 1.5, 1.0, n_grid=bad)
    pot = pl.solve_radial(flat, 1.5, 1.0, n_grid=np.int64(64))
    assert type(pot.n_grid) is int and pot.n_grid == pot.grid.size == 64


@pytest.mark.parametrize("factory", [pl.flat_model, pl.cone_model, pl.power_warp_model])
def test_strict_decrease_is_refused_where_the_nodes_fail_it(factory):
    # 4096 nodes on [1, 1 + 1e-13] lie closer than the floats near 1, so I
    # repeats; on [1, 1 + 1e-10] it decreases.  Between, the closed form
    # certifies the decrease or the node arrays are built and checked, and
    # the refusal falls exactly where the arrays of the formulas repeat
    model = factory()
    with pytest.raises(pl.ConvergenceError, match="strictly decreasing"):
        pl.solve_radial(model, 1.5, 1.0, r_max=1 + 1e-13, n_grid=4096)
    assert np.all(np.diff(pl.solve_radial(model, 1.5, 1.0, r_max=1 + 1e-10, n_grid=4096).suffix) < 0)
    outcomes = set()
    for delta in np.geomspace(1e-14, 1e-8, 31):
        for p in (1.05, 1.5, 1.95):
            suffix = _reference_solve(model, p, 1.0, 4096, r_max=1.0 + delta)[1]
            try:
                pot = pl.solve_radial(model, p, 1.0, r_max=1.0 + delta, n_grid=4096)
            except pl.ConvergenceError as exc:
                assert "strictly decreasing" in str(exc)
                assert np.any(suffix[1:] >= suffix[:-1])
                outcomes.add("refused")
            else:
                assert np.all(suffix[1:] < suffix[:-1])
                outcomes.add("checked" if "suffix" in vars(pot) else "certified")
    assert outcomes == {"refused", "checked", "certified"}


def test_boundary_model_starts_at_inner_sphere(solved):
    pot = solved("cone", 1.5, 1e-4)
    assert pot.flux_integral_at(pot.r0)[0] / pot.normalizer == 1.0
    assert _level_at(pot, pot.r0)[0] == 0.0
    assert pl.radius_of_level(pot, 0.0) == pot.r0
    assert np.all(np.diff(pot.w) > 0.0)


# ---------------------------------------------------------------------------
# accessors
# ---------------------------------------------------------------------------


def test_level_radius_roundtrip(solved, rng):
    pot = solved("flat", 1.8)
    for t in rng.uniform(0.05, 0.9 * pot.t_max, 10):
        r = pl.radius_of_level(pot, float(t))
        assert abs(_level_at(pot, r)[0] - t) < 1e-10 * (1.0 + t)


# h = c r^beta for the three noncompact library models (fixture names)
POWER_LAWS = {"flat": 1.0, "cone": 1.0, "power_warp": 0.75}


@pytest.mark.parametrize("name", sorted(POWER_LAWS))
@pytest.mark.parametrize("p", [1.1, 1.5, 1.9])
def test_batched_radii_equal_single_calls_bitwise(solved, name, p):
    pot = solved(name, p)
    levels = np.linspace(0.0, pot.t_max, 41)
    batch = pl.radius_of_level(pot, levels)
    assert batch.shape == levels.shape
    assert [float(r) for r in batch] == [pl.radius_of_level(pot, float(t)) for t in levels]


@pytest.mark.parametrize("name", sorted(POWER_LAWS))
def test_batched_radii_match_closed_form(solved, name):
    # r(t) = r0 exp(t / ((p-1)(q beta - 1))), q = 2/(p-1), with the rate
    # rounded once as 2 beta - (p-1), bit for bit on a 321-level batch
    # holding t = 0, t = t_max, 16 grid nodes and 303 levels between; t = 0
    # is r0 and t_max is pinned to r_trunc
    p = 1.5
    pot = solved(name, p)
    nodes = np.arange(0, pot.grid.size, 256)
    levels = np.concatenate(
        [[0.0, pot.t_max], pot.w[nodes], np.linspace(0.0, pot.t_max, 305)[1:-1]]
    )
    assert levels.size == 321
    radii = pl.radius_of_level(pot, levels)
    rate = 2.0 * POWER_LAWS[name] - (p - 1.0)
    exact = pot.r0 * np.exp(levels / rate)
    assert radii[0] == pot.r0
    assert radii[1] == pot.r_trunc
    assert radii[2:].tobytes() == exact[2:].tobytes()
    assert abs(exact[1] / pot.r_trunc - 1.0) < 1e-14
    assert np.max(np.abs(radii[2:18] / pot.grid[nodes] - 1.0)) < 1e-14


def test_interval_integrals_do_not_depend_on_the_batch(rng):
    # each interval's integral is summed in the same order whatever the batch
    # size, so a level's numbers do not depend on the batch it came in; the
    # batch spans more than two evaluation blocks and ends in a partial one
    from pinchlab.numerics import _BLOCK, interval_integrals

    n = 2 * _BLOCK + 321
    a = rng.uniform(1.0, 2.0, n)
    b = a + rng.uniform(0.0, 0.5, n)

    def f(x):
        return np.sin(7.0 * x) + x**-3

    batch = interval_integrals(f, a, b)
    single = [interval_integrals(f, a[i], b[i])[0] for i in range(n)]
    assert batch.tolist() == single


def test_interval_integrals_call_f_once_per_block():
    # one call of the integrand per block of intervals, never one per Gauss
    # node: the coarea slab check's integrand inverts levels on every call
    from pinchlab.numerics import _BLOCK, interval_integrals

    for n in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 321):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.exp(-x)

        a = np.linspace(0.0, 1.0, n)
        interval_integrals(f, a, a + 0.5)
        assert len(calls) == math.ceil(n / _BLOCK)
        assert sum(calls) == 12 * n


def test_interval_integrals_write_into_out(rng):
    # into a view of a larger array, with the bits of the allocating call
    from pinchlab.numerics import _BLOCK, interval_integrals

    n = _BLOCK + 321
    a = rng.uniform(1.0, 2.0, n)
    b = a + rng.uniform(0.0, 0.5, n)

    def f(x):
        return np.sin(7.0 * x) + x**-3

    buf = np.full(n + 1, -1.0)
    out = buf[:-1]
    assert interval_integrals(f, a, b, out=out) is out
    assert np.array_equal(out, interval_integrals(f, a, b))
    assert buf[-1] == -1.0
    with pytest.raises(pl.DomainError, match="out of"):
        interval_integrals(f, a, b, out=buf)


def test_geometric_grid_is_geomspace():
    from pinchlab.numerics import geometric_grid

    for start, stop in ((1.0, 1e4), (0.05, 0.45 * math.pi), (1e-4, 1e4), (3.0, 7.0), (1e3, 1.0)):
        for num in (2, 3, 16, 257, 4097, 2**17 + 1):
            assert np.array_equal(geometric_grid(start, stop, num), np.geomspace(start, stop, num))


# ---------------------------------------------------------------------------
# the Gauss rule and the closed forms
# ---------------------------------------------------------------------------

EPS = float(np.finfo(float).eps)
BOUND_MODELS = {
    "flat": pl.flat_model,
    "cone_0.8": lambda: pl.cone_model(0.8),
    "power_warp_1.5": pl.power_warp_model,
}


def _sample_cells(n_grid):
    """First, last and evenly spread cells of solve_radial's grid on [1, 1e4]."""
    grid = np.geomspace(1.0, 1e4, n_grid)
    idx = np.unique(np.concatenate([np.arange(8), np.linspace(0, n_grid - 2, 16).astype(int),
                                    np.arange(n_grid - 9, n_grid - 1)]))
    return grid[idx], grid[idx + 1]


def _rule_error(gamma, a, b):
    """Largest relative error over the cells [a_i, b_i] of the program's
    12-point rule for r^gamma, evaluated at 40 digits, against the closed-form
    integral."""
    from pinchlab.numerics import _NODES, _WEIGHTS

    worst = 0.0
    with mpmath.workdps(40):
        g = mpmath.mpf(gamma)
        for lo, hi in zip(a, b):
            lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
            mid, half = (lo + hi) / 2, (hi - lo) / 2
            rule = half * mpmath.fsum(w * (mid + half * x) ** g for x, w in zip(_NODES, _WEIGHTS))
            exact = (hi ** (g + 1) - lo ** (g + 1)) / (g + 1)
            worst = max(worst, abs(float(rule / exact - 1)))
    return worst


@pytest.mark.parametrize("n_grid", [256, 4096, 2**20])
@pytest.mark.parametrize("p", [1.05, 1.1, 1.5, 1.9])
@pytest.mark.parametrize("name", sorted(BOUND_MODELS))
def test_chosen_rule_is_exact_to_rounding_per_cell(name, p, n_grid):
    # the rule's own error (rounding of the integrand aside) on r^(-q beta),
    # which is h^(-q) up to a constant, stays within 4 eps on every sampled
    # cell: the one Gauss rule is exact to rounding for the integrand of I
    # whenever h is a power law it is not told about (as in
    # test_gauss_cells_agree_with_the_closed_form)
    model = BOUND_MODELS[name]()
    beta = model.warp.power_law
    assert np.allclose(model.warp.h([2.0, 3.0]), model.warp.h(1.0) * np.array([2.0, 3.0]) ** beta,
                       rtol=1e-15, atol=0.0)
    assert _rule_error(-2.0 / (p - 1.0) * beta, *_sample_cells(n_grid)) <= 4 * EPS


def test_gauss_rule_has_the_bits_of_leggauss():
    # the rule is tabulated, so numerics imports no numpy.polynomial module
    from numpy.polynomial.legendre import leggauss

    from pinchlab.numerics import _NODES, _WEIGHTS

    want_nodes, want_weights = leggauss(12)
    assert _NODES.tobytes() == want_nodes.tobytes()
    assert _WEIGHTS.tobytes() == want_weights.tobytes()
    assert not (_NODES.flags.writeable or _WEIGHTS.flags.writeable)


def test_log_log_fit_matches_least_squares(rng):
    # the closed-form centered fit against numpy's least-squares reference,
    # to 64 eps: on exact power laws over the tail window of a 2^20 grid, and
    # on scattered data
    from pinchlab.numerics import log_log_fit

    x = np.geomspace(1.0, 1e4, 2**20)
    x = x[x >= 1e3]
    for beta, c in ((1.0, 1.0), (0.75, 1.0), (1.0, 0.8)):
        slope, intercept = log_log_fit(x, c * x**beta)
        assert abs(slope - beta) <= 64 * EPS
        assert abs(intercept - math.log(c)) <= 64 * EPS
    x, y = rng.uniform(0.5, 50.0, 1000), rng.uniform(0.1, 10.0, 1000)
    reference = np.polyfit(np.log(x), np.log(y), 1)
    assert np.allclose(log_log_fit(x, y), reference, rtol=0.0, atol=64 * EPS)


def _line_fit_by_numpy_wrappers(x, y):
    """line_fit's closed form through numpy's Python-level np.ptp, mean and
    np.sum: the reference whose bits line_fit keeps."""
    if np.ptp(x) <= 0.0:
        raise pl.DomainError("line fit abscissae are degenerate (zero spread)")
    mx, my = x.mean(), y.mean()
    dx = x - mx
    slope = np.sum(dx * (y - my)) / np.sum(dx * dx)
    return float(slope), float(my - slope * mx)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    xy=st.integers(2, 40).flatmap(
        lambda n: st.tuples(*[st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))] * n)
    )
)
def test_line_fit_keeps_the_bits_of_numpys_wrappers(xy):
    from pinchlab.numerics import line_fit

    x, y = (np.array(column) for column in zip(*xy))
    # subnormal spreads square to 0.0, and both forms divide 0 by 0 alike
    with np.errstate(all="ignore"):
        try:
            expected = _line_fit_by_numpy_wrappers(x, y)
        except pl.DomainError:
            with pytest.raises(pl.DomainError, match="degenerate"):
                line_fit(x, y)
            return
        fitted = line_fit(x, y)
    assert np.array(fitted).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("x", [[2.0, 2.0], [-0.0, 0.0, 0.0], [5.0] * 7])
def test_line_fit_refuses_degenerate_abscissae(x):
    from pinchlab.numerics import line_fit

    with pytest.raises(pl.DomainError, match="degenerate"):
        line_fit(x, np.arange(len(x), dtype=float))
    with pytest.raises(pl.DomainError, match="at least two samples"):
        line_fit(x[:1], [1.0])


@pytest.mark.parametrize("name", ["positive_cap_1", "power_warp_1.5"])
@pytest.mark.parametrize("p", [1.15, 1.5, 1.85])
def test_line_fit_matches_a_30_digit_slope_on_the_decay_window(name, p):
    # the scenario's decay slope is line_fit of log F against t over its window;
    # the budget bounds the closed form's rounding error, from its operations
    from pinchlab.numerics import line_fit

    report = pl.run_contradiction_scenario(pl.library()[name], p)
    t = np.array([row["t"] for row in report.rows])
    F = np.array([row["F"] for row in report.rows])
    window = (t >= 0.6 * t[-1]) & (F > 0.0)
    x, y = t[window], np.log(F[window])
    slope = line_fit(x, y)[0]
    assert report.constants["decay_slope_measured"] == slope
    n, u = x.size, EPS / 2.0
    with mpmath.workdps(30):
        xs, ys = [mpmath.mpf(float(v)) for v in x], [mpmath.mpf(float(v)) for v in y]
        mx, my = mpmath.fsum(xs) / n, mpmath.fsum(ys) / n
        num = mpmath.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
        den = mpmath.fsum((a - mx) ** 2 for a in xs)
        # each computed mean is off by at most gamma_n times the mean modulus
        # (n - 1 additions and a division), with gamma_k = k u / (1 - k u)
        gamma = lambda k: k * u / (1 - k * u)
        dx = gamma(n) * mpmath.fsum(abs(a) for a in xs) / n
        dy = gamma(n) * mpmath.fsum(abs(b) for b in ys) / n
        # a centered term carries two subtractions and a product, and the
        # sum n - 1 additions: gamma_(n+2) of the sum of |terms| taken about
        # the computed means, which moves the exact sums by n dx dy and n dx^2
        abs_num = mpmath.fsum((abs(a - mx) + dx) * (abs(b - my) + dy) for a, b in zip(xs, ys))
        abs_den = mpmath.fsum((abs(a - mx) + dx) ** 2 for a in xs)
        e_num = (n * dx * dy + gamma(n + 2) * abs_num) / abs(num)
        e_den = (n * dx * dx + gamma(n + 2) * abs_den) / den
        # and the division rounds once
        budget = (e_num + e_den + u * (1 + e_num)) / (1 - e_den)
        error = abs(mpmath.mpf(slope) / (num / den) - 1)
        assert error <= budget, (float(error), float(budget))
    assert float(budget) < 128 * EPS


def _log_log_reference(x, y):
    """The log-log least-squares fit about the means, written out: the
    reference whose bits alpha_hat and the fitted tail_beta keep."""
    lx, ly = np.log(x), np.log(y)
    mx, my = lx.mean(), ly.mean()
    dx = lx - mx
    slope = np.sum(dx * (ly - my)) / np.sum(dx * dx)
    return float(slope), float(my - slope * mx)


@pytest.mark.parametrize("name", sorted(pl.library()))
def test_growth_and_tail_fits_keep_the_bits_of_the_closed_form(name):
    # alpha_hat and the fitted tail_beta go through line_fit
    from pinchlab import geometry

    model = pl.library()[name]
    for r_lo, r_hi in ((0.3, 0.45), (1.0, 3.0), (1.0, 5e3)):
        if r_lo <= model.r_min or r_hi > model.r_max:
            continue
        radii = np.geomspace(r_lo, r_hi, geometry.GROWTH_SAMPLES)
        slope = _log_log_reference(radii, pl.ball_volume(model, radii))[0]
        assert geometry.growth_exponent(model, r_lo, r_hi).alpha_hat == slope - 1.0
    if model.warp.power_law is None:
        r0 = LIBRARY_R0[name]
        for n_grid in (1000, 4096):
            pot = pl.solve_radial(model, 1.5, r0, n_grid=n_grid)
            grid = np.geomspace(r0, pot.r_trunc, n_grid)
            mask = grid >= grid[-1] / 10.0
            assert pot.tail_beta == _log_log_reference(grid[mask], model.warp.h(grid[mask]))[0]


def test_warps_without_power_law_keep_the_twelve_point_rule(rng):
    # an off-grid I is the suffix at the next node plus the partial panel by
    # the 12-point rule, bit for bit (the grid cells are checked in
    # test_solve_radial_has_the_bits_of_fresh_arrays)
    cap = pl.solve_radial(pl.positive_cap_model(1.0), 1.5, 1.0, n_grid=256)
    spline = pl.solve_radial(pl.spline_cap_model(0.5), 1.5, 0.05, n_grid=256)
    for pot in (cap, spline):
        assert pot.model.warp.power_law is None
        r = rng.uniform(pot.grid[0], pot.grid[-1], 64)
        j = np.searchsorted(pot.grid, r) - 1
        panels = [_reference_cells(pot.density, np.array([x, pot.grid[k + 1]]))[0]
                  for x, k in zip(r, j)]
        assert np.array_equal(pot.flux_integral_at(r), panels + pot.suffix[j + 1])


@pytest.mark.parametrize("name", sorted(BOUND_MODELS))
def test_fine_power_law_solve_integrates_nothing(name, monkeypatch):
    # a work count in place of a clock: a 2^20-node solve of a power law
    # evaluates the flux integrand on no point and runs no quadrature, h is
    # not evaluated at all (the warp declares c), and the tail is not fitted
    from pinchlab import geometry, potential

    points = []
    h_args = []
    density = potential._PowerLawPotential.density
    warp_h = geometry.WarpFunction.h

    def counting_density(self, s):
        points.append(s.size)
        return density(self, s)

    def counting_h(self, r):
        h_args.append(np.asarray(r, dtype=float).copy())
        return warp_h(self, r)

    def no_call(*args, **kwargs):
        raise AssertionError("a power-law solve neither integrates nor fits")

    model = BOUND_MODELS[name]()  # its domain check evaluates h before counting starts
    monkeypatch.setattr(potential._PowerLawPotential, "density", counting_density)
    monkeypatch.setattr(potential._CellFluxPotential, "density", no_call)
    monkeypatch.setattr(potential, "cell_integrals", no_call)
    monkeypatch.setattr(potential, "log_log_fit", no_call)
    monkeypatch.setattr(geometry.WarpFunction, "h", counting_h)
    pot = pl.solve_radial(model, 1.5, 1.0, n_grid=2**20)
    assert sum(points) == 0
    assert h_args == []
    assert pot.tail == pot.suffix[-1]


def test_flux_integral_at_lives_on_the_base_class_and_both_kinds_expose_grid(monkeypatch):
    # a class-level wrapper of RadialPotential.flux_integral_at (as the
    # benchmark's tracer installs) sees the calls of both kinds: neither
    # shadows it; and both answer grid, whose size the tracer counts
    from pinchlab import potential

    kinds = (potential._PowerLawPotential, potential._CellFluxPotential)
    assert "flux_integral_at" in vars(potential.RadialPotential)
    assert not any("flux_integral_at" in vars(kind) for kind in kinds)
    calls, inner = [], potential.RadialPotential.flux_integral_at
    monkeypatch.setattr(potential.RadialPotential, "flux_integral_at",
                        lambda pot, r: calls.append(type(pot)) or inner(pot, r))
    for model in (pl.flat_model(), pl.positive_cap_model(1.0)):
        pot = pl.solve_radial(model, 1.5, 1.0, n_grid=256)
        assert pot.grid.size == pot.n_grid == 256
        assert pot.flux_integral_at(pot.r0)[0] == pot.normalizer
    assert calls == list(kinds)


def test_a_warp_without_a_declared_power_law_takes_the_twelve_point_path(monkeypatch):
    # the kind name decides nothing: h = r built as a custom warp declares no
    # power law, so its solve, ball volumes and cell weights take the 12-point
    # rule; the flat warp renamed custom keeps its declaration and its closed forms
    import dataclasses

    from pinchlab import geometry, potential, variational

    flat = geometry.flat_warp()
    custom = geometry.WarpFunction("custom", {}, True, flat._evaluate, flat._value)
    renamed = dataclasses.replace(flat, kind="custom")
    assert custom.exact_power is None and custom.power_law is None
    assert renamed.exact_power == (1.0, 1.0) and renamed.power_law == 1.0

    def no_call(*args, **kwargs):
        raise AssertionError("the other path ran")

    for warp, kind, closed_form in ((custom, potential._CellFluxPotential, False),
                                    (renamed, potential._PowerLawPotential, True)):
        with monkeypatch.context() as patch:
            if closed_form:
                for module in (geometry, potential, variational):
                    patch.setattr(module, "cell_integrals", no_call)
            else:
                patch.setattr(geometry, "_power_law_volume", no_call)
                patch.setattr(variational, "_power_law_weights", no_call)
            model = pl.ManifoldModel(warp, 0.0, 1e4)
            assert type(pl.solve_radial(model, 1.5, 1.0, n_grid=256)) is kind
            assert pl.ball_volume(model, 10.0) > 0.0
            assert pl.discretize(model, 1.5, 1.0, 64, 1e3).weights.min() > 0.0


@pytest.mark.parametrize("factory", [pl.flat_model, pl.power_warp_model])
def test_gauss_cells_agree_with_the_closed_form(factory):
    # the quadrature oracle of the closed form: the same h declared without a
    # power law takes the 12-point Gauss cells and the fitted tail, and at
    # 2^20 nodes its I stays within 5e-14 of c^(-q) r^(1 - q beta) / (q beta - 1)
    import dataclasses

    model = factory()
    warp = dataclasses.replace(model.warp, kind="custom", exact_power=None)
    plain = pl.ManifoldModel(warp, model.r_min, model.r_max)
    assert plain.warp.power_law is None
    p, n = 1.5, 2**20
    exact = pl.solve_radial(model, p, 1.0, n_grid=n)
    quadrature = pl.solve_radial(plain, p, 1.0, n_grid=n)
    assert np.array_equal(quadrature.grid, exact.grid)
    assert np.max(np.abs(quadrature.suffix / exact.suffix - 1.0)) < 5e-14
    if factory is pl.flat_model:
        # I(r) = r^(1-q) / (q-1) on flat space, q = 4
        for pot in (exact, quadrature):
            assert np.max(np.abs(pot.suffix * 3.0 * pot.grid**3 - 1.0)) < 5e-14


@pytest.mark.parametrize("p", [1.05, 1.1, 1.5, 1.9])
@pytest.mark.parametrize("name", sorted(BOUND_MODELS))
def test_power_law_tail_is_exact(name, p):
    # h = c r^beta exactly: the tail is c^(-q) r_max^(1 - q beta) / (q beta - 1)
    # with beta = warp.power_law and c = h(1), not a fit
    model = BOUND_MODELS[name]()
    pot = pl.solve_radial(model, p, 1.0)
    q = 2.0 / (p - 1.0)
    beta = model.warp.power_law
    c = float(model.warp.h(1.0))
    assert pot.tail_beta == beta
    assert pot.tail == c**-q * pot.r_trunc ** (1.0 - q * beta) / (q * beta - 1.0)
    if name == "cone_0.8" and p <= 1.1:
        # I at every node against its closed form; a least-squares tail is off
        # by 3.7e-14 (p = 1.05) and 1.8e-14 (p = 1.1) here
        exact = c**-q * pot.grid ** (1.0 - q * beta) / (q * beta - 1.0)
        assert np.max(np.abs(pot.suffix / exact - 1.0)) <= 4e-15


@pytest.mark.parametrize("p", [1.05, 1.1, 1.5, 1.9])
@pytest.mark.parametrize("name", sorted(BOUND_MODELS))
def test_closed_form_flux_is_within_two_ulp(name, p, rng):
    # I = c^(-q) r^(1 - q beta) / (q beta - 1) at 64 sampled nodes and at 64
    # off-grid radii (flux_integral_at) against 40 digits, within 2 eps
    # relative.  The exponent is the program's own float q beta, as in the
    # cell test below: for beta = 0.75 the rounding of q beta alone moves I
    # by up to 74 eps at r = 1e4 and p = 1.05, the input's error, not the
    # evaluation's (1.14 eps at most over these cases)
    model = BOUND_MODELS[name]()
    pot = pl.solve_radial(model, p, 1.0)
    q = 2.0 / (p - 1.0)
    q_beta = q * model.warp.power_law
    c = float(model.warp.h(1.0))
    nodes = np.unique(np.linspace(0, pot.grid.size - 1, 64).astype(int))
    off_grid = rng.uniform(pot.grid[0], pot.grid[-1], 64)
    radii = np.concatenate([pot.grid[nodes], off_grid])
    values = np.concatenate([pot.suffix[nodes], pot.flux_integral_at(off_grid)])
    worst = 0.0
    with mpmath.workdps(40):
        scale, e = mpmath.mpf(c) ** -mpmath.mpf(q), mpmath.mpf(q_beta)
        for r, value in zip(radii, values):
            exact = scale * mpmath.mpf(r) ** (1 - e) / (e - 1)
            worst = max(worst, abs(float(mpmath.mpf(value) / exact - 1)))
    assert worst <= 2 * EPS


@pytest.mark.parametrize(
    "name, p",
    [(name, p) for name in ("flat", "cone_0.8") for p in (1.001, 1.01, 1.02)]
    + [("power_warp_1.5", 1.001), ("power_warp_1.5", 1.01)],
)
def test_p_near_one_is_refused_for_its_underflowing_tail(name, p):
    # the closed-form tail c^(-q) r_max^(1 - q beta) / (q beta - 1) at
    # r_max = 1e4 falls below the least subnormal double for these q = 2/(p-1):
    # the contradiction scenario names that cause in stage solve, and p = 1.03
    # still runs
    model = pl.library()[name]
    underflow = r"tail integral .* underflows to 0\.0"
    with pytest.raises(pl.ConvergenceError, match=underflow) as refused:
        pl.solve_radial(model, p, 1.0)
    assert "fitted" not in str(refused.value)
    with pytest.raises(pl.ConvergenceError, match=r"^stage 'solve': tail integral .* underflows"):
        pl.run_contradiction_scenario(model, p)
    assert pl.solve_radial(model, 1.03, 1.0).tail > 0.0


def test_power_law_cells_skip_the_rounding_of_h():
    # h^(-q) = c^(-q) r^(-q beta) takes one power per point, so q does not
    # amplify the rounding of h: 300 cells of power_warp_1.5 at p = 1.05 on
    # 4096 nodes are within 32 eps of the cell integral at 40 digits (the
    # exponent is the program's own float -q beta); (r^beta)^(-q) is off by
    # up to 87 eps.  Flat space keeps h(r)^(-q) = r^(-q) bit for bit
    from pinchlab import potential
    from pinchlab.numerics import interval_integrals

    p = 1.05
    exponent = -2.0 / (p - 1.0)
    flat = pl.solve_radial(pl.flat_model(), p, 1.0).density
    s = np.geomspace(1.0, 1e4, 1001)
    assert np.array_equal(flat(s), s**exponent)

    pot = pl.solve_radial(pl.power_warp_model(), p, 1.0, n_grid=4096)
    idx = np.linspace(0, pot.grid.size - 2, 300).astype(int)
    a, b = pot.grid[idx], pot.grid[idx + 1]
    cells = interval_integrals(pot.density, a, b)
    worst = 0.0
    with mpmath.workdps(40):
        g = mpmath.mpf(exponent * 0.75)
        for lo, hi, cell in zip(a, b, cells):
            exact = (mpmath.mpf(hi) ** (g + 1) - mpmath.mpf(lo) ** (g + 1)) / (g + 1)
            worst = max(worst, abs(float(mpmath.mpf(cell) / exact - 1)))
    assert worst <= 32 * EPS


def _reference_cells(f, edges):
    """The 12-point Gauss cells as a sum of fresh arrays, in one block: each
    cell's sum does not depend on its block."""
    nodes, weights = np.polynomial.legendre.leggauss(12)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    vals = f((half * nodes[:, None] + mid).reshape(-1)).reshape(12, -1) * weights[:, None]
    total = vals[0]
    for row in vals[1:]:
        total = total + row
    return half * total


def _reference_solve(model, p, r0, n_grid, r_max=None):
    """(grid, suffix, w, tail) of solve_radial from the formulas with fresh
    arrays: np.geomspace; for a power law h = c r^beta the closed form
    c^(-q) r^(1 - q beta) / (q beta - 1) at every node, else the 12-point
    cells, the fitted tail + the reversed cumulative sum; and
    (p-1)(log I0 - log I)."""
    from pinchlab.numerics import log_log_fit

    q = 2.0 / (p - 1.0)
    if r_max is None:
        r_max = min(1e4 * r0, model.r_max)
    grid = np.geomspace(r0, r_max, n_grid)
    beta = model.warp.power_law
    if beta is None:
        cells = _reference_cells(lambda s: model.warp.h(s) ** -q, grid)
        mask = grid >= grid[-1] / 10.0
        beta, log_c = log_log_fit(grid[mask], model.warp.h(grid[mask]))
        scale = math.exp(-q * log_c)
        tail = scale * r_max ** (1.0 - q * beta) / (q * beta - 1.0)
        suffix = np.append(tail + np.cumsum(cells[::-1])[::-1], tail)
    else:
        scale = float(model.warp.h(1.0)) ** -q
        suffix = scale * grid ** (1.0 - q * beta) / (q * beta - 1.0)
        tail = suffix[-1]
    w = (p - 1.0) * (math.log(suffix[0]) - np.log(suffix))
    return grid, suffix, w, tail


LIBRARY_R0 = {
    "flat": 1.0,
    "cone_0.8": 1.0,
    "power_warp_1.5": 1.0,
    "positive_cap_1": 0.05,
    "spline_cap_0.5": 0.05,
}


@pytest.mark.parametrize(
    "name, p, n_grid",
    [(name, p, n) for name in sorted(LIBRARY_R0) for p in (1.1, 1.5) for n in (256, 4096)]
    + [("flat", 1.5, 2**20)],
)
def test_solve_radial_has_the_bits_of_fresh_arrays(name, p, n_grid):
    # the in-place grid, cells, sums and logs round exactly as the formulas do
    model = pl.library()[name]
    pot = pl.solve_radial(model, p, LIBRARY_R0[name], n_grid=n_grid)
    grid, suffix, w, tail = _reference_solve(model, p, LIBRARY_R0[name], n_grid)
    assert np.array_equal(pot.grid, grid)
    assert np.array_equal(pot.suffix, suffix)
    assert np.array_equal(pot.w, w)
    assert pot.normalizer == suffix[0]
    assert pot.tail == tail
    # the solve's end levels, computed from I at the two ends alone, are w's
    assert (pot.w0, pot.t_max) == (w[0], w[-1])


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param({"kind": "flat"}, id="flat_model"),
        pytest.param({"kind": "power_warp", "alpha": 1.5}, id="power_warp_model"),
    ],
)
def test_solve_radial_peak_memory_is_bounded_by_its_result(spec, monkeypatch):
    # a power law's solve keeps scalars and builds no node array: a solve
    # scenario on 2^20 nodes with 8 levels stays within 1 MB.  The arrays are
    # built on first read, with the bits of the formulas and of the scalars
    from pinchlab import cli, rigidity

    pots = []

    def recording(*args, **kwargs):
        pots.append(solve(*args, **kwargs))
        return pots[-1]

    solve = rigidity.solve_radial
    monkeypatch.setattr(rigidity, "solve_radial", recording)
    config = pl.parse_config(json.dumps({"model": spec, "scenario": "solve", "p": 1.5}))
    cli.run(dataclasses.replace(config, n_grid=256, n_levels=8))  # first-call imports and caches
    config = dataclasses.replace(config, n_grid=2**20, n_levels=8)
    tracemalloc.start()
    try:
        cli.run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    pot = pots[-1]
    assert not {"grid", "suffix"} & set(vars(pot)) and "w" not in vars(pot)
    grid, suffix, w, tail = _reference_solve(pot.model, 1.5, 1.0, 2**20)
    assert np.array_equal(pot.grid, grid)
    assert np.array_equal(pot.suffix, suffix)
    assert np.array_equal(pot.w, w)
    assert (pot.r0, pot.r_trunc, pot.n_grid) == (grid[0], grid[-1], grid.size)
    assert (pot.normalizer, pot.tail, pot.w0, pot.t_max) == (suffix[0], tail, w[0], w[-1])


def test_fitted_solve_peak_memory_is_bounded_by_its_result():
    # without a power law a solve keeps grid and suffix, and peaks in the tail
    # fit over the grid's outer decade: its mask, the decade's radii and h,
    # and log_log_fit's four temporaries of that size (log r, log h and the
    # two centred logs) at once, a few kB of Python objects aside.  The
    # quadrature before it holds one block of scratch, three arrays of
    # 12 _BLOCK floats and two of _BLOCK, which is less.  Measured here (2^16
    # nodes, above the kept-grid cap, so the warp is called at the points):
    # the quadrature peaks 1 245 184 B of block scratch above grid + suffix,
    # the fit 2 232 928 B (the 65 536 B mask and 6 x 45 154 floats), each
    # with ~3 kB of objects.  So the 269 kB by which the peak once exceeded
    # grid + suffix + five 12 _BLOCK-float arrays is all tail-fit temporaries
    # (2 232 928 - 1 966 080 = 266 848 B); block scratch adds nothing to it
    model = pl.positive_cap_model(1.0)
    tracemalloc.start()
    try:
        pot = pl.solve_radial(model, 1.5, 0.05, n_grid=2**16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "w" not in vars(pot)
    decade = int(np.count_nonzero(pot.grid >= pot.grid[-1] / 10.0))
    fit = pot.grid.size + 6 * 8 * decade
    assert peak <= pot.grid.nbytes + pot.suffix.nbytes + fit + 16384


def test_a_solve_on_a_kept_grid_allocates_no_warp_values(monkeypatch):
    # at a new p on a kept grid of n = 4096 nodes a solve allocates its suffix
    # (n floats), one block of h^(-q) raised from the kept h at the Gauss
    # points (12 (n - 1) floats: the grid's 4095 cells fit one block), the
    # block's half-widths (n - 1 floats) and, while the rows are scaled by the
    # weights, numpy's 8192-float iterator buffer, a few kB of objects aside.
    # It calls no warp: h at the points alone would be 12 (n - 1) floats
    # more, and the points as many again
    from pinchlab import geometry

    model = pl.positive_cap_model(1.0)
    pl.solve_radial(model, 1.5, 1.0)
    calls = []
    warp_h = geometry.WarpFunction.h
    monkeypatch.setattr(
        geometry.WarpFunction, "h", lambda self, r: calls.append(np.size(r)) or warp_h(self, r)
    )
    tracemalloc.start()
    try:
        pot = pl.solve_radial(model, 1.8, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = pot.grid.size
    assert n == 4096 and pot.kept is not None and calls == []
    assert peak <= 8 * (n + 12 * (n - 1) + (n - 1) + 8192) + 16384, peak


def test_a_model_keeps_the_warp_of_its_last_grid_up_to_the_cap():
    # one grid is kept, read-only: at 4096 nodes the grid, h at its 12 x 4095
    # Gauss points and h at its nodes hold 458 656 B; a new grid replaces it,
    # a grid above WARP_GRID_MAX_NODES is not kept, and a power law keeps nothing
    from pinchlab.potential import WARP_GRID_MAX_NODES

    model = pl.positive_cap_model(1.0)
    kept = model._warp_grids
    pot = pl.solve_radial(model, 1.5, 1.0)
    pl.radius_of_level(pot, 0.5 * pot.t_max)  # reads h at the nodes
    key = (1.0, pot.r_trunc, 4096)
    assert list(kept) == [key] and pot.kept is kept[key] and pot.grid is kept[key].grid
    arrays = (kept[key].grid, kept[key].gauss, kept[key].nodes)
    assert sum(array.nbytes for array in arrays) == 458_656
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    assert pl.solve_radial(model, 1.2, 1.0).kept is kept[key]
    above = pl.solve_radial(model, 1.5, 1.0, n_grid=WARP_GRID_MAX_NODES + 1)
    assert above.kept is None and list(kept) == [key]
    at_cap = pl.solve_radial(model, 1.5, 1.0, n_grid=WARP_GRID_MAX_NODES)
    assert list(kept) == [(1.0, at_cap.r_trunc, WARP_GRID_MAX_NODES)]
    other = pl.solve_radial(model, 1.5, 0.05, n_grid=256)
    assert list(kept) == [(0.05, other.r_trunc, 256)]
    assert dataclasses.replace(model)._warp_grids == {}  # an equal model keeps its own
    flat = pl.flat_model()
    pl.solve_radial(flat, 1.5, 1.0)
    assert "_warp_grids" not in vars(flat)


@pytest.mark.parametrize("name", ["positive_cap_1", "spline_cap_0.5"])
def test_solves_on_a_kept_grid_have_the_bits_of_fresh_arrays(name, rng):
    # solves at other p read the kept h at the Gauss points and the nodes and
    # the kept tail fit, with the bits of the formulas on fresh arrays; a grid
    # above the cap calls the warp, with the same bits
    from pinchlab.potential import WARP_GRID_MAX_NODES

    model = pl.library()[name]
    r0 = LIBRARY_R0[name]
    for p, n_grid in ((1.2, 1024), (1.8, 1024), (1.5, WARP_GRID_MAX_NODES + 1), (1.5, 1024), (1.2, 1024)):
        pot = pl.solve_radial(model, p, r0, n_grid=n_grid)
        assert (pot.kept is None) == (n_grid > WARP_GRID_MAX_NODES)
        grid, suffix, w, tail = _reference_solve(model, p, r0, n_grid)
        assert [pot.grid.tobytes(), pot.suffix.tobytes(), pot.w.tobytes()] == [
            grid.tobytes(), suffix.tobytes(), w.tobytes()
        ]
        assert pot.tail == tail
        assert pot.node_density.tobytes() == pot.density(grid).tobytes()
        levels = rng.uniform(0.0, pot.t_max, 64)
        want = _reference_inversion(pot, levels, {"lower": 0, "upper": 0})
        assert [x.tobytes() for x in pot.levels(levels)] == [x.tobytes() for x in want]


@pytest.mark.parametrize("n_grid", [16, 4096, 2**20])
@pytest.mark.parametrize("p", [1.05, 1.5, 1.95])
@pytest.mark.parametrize("name", ["flat", "cone_0.8", "power_warp_1.5"])
def test_power_law_nodes_have_the_bits_of_the_arrays(name, p, n_grid):
    # a power law's node arrays are built on first read with the bits of the
    # formulas on fresh arrays, and the scalars its solve computed at the two
    # ends alone are their end values; the closed-form radii of the node
    # levels fall on the nodes to rounding
    pot = pl.solve_radial(pl.library()[name], p, 1.0, n_grid=n_grid)
    assert not {"grid", "suffix"} & set(vars(pot)) and "w" not in vars(pot)
    grid, suffix, w, tail = _reference_solve(pot.model, p, 1.0, n_grid)
    assert pot.grid.tobytes() == grid.tobytes()
    assert pot.suffix.tobytes() == suffix.tobytes()
    assert pot.w.tobytes() == w.tobytes()
    assert (pot.normalizer, pot.tail, pot.w0, pot.t_max) == (suffix[0], tail, w[0], w[-1])
    radii = pl.radius_of_level(pot, w)
    assert radii[0] == grid[0] and radii[-1] == grid[-1]
    assert np.max(np.abs(radii / grid - 1.0)) < 1e-14


@pytest.mark.parametrize("p", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("name", sorted(BOUND_MODELS))
def test_power_law_level_radii_against_forty_digits(name, p, rng):
    # r(t) = r0 exp(t / (2 beta - (p-1))) of h = c r^beta, at 40 digits from
    # the float inputs p and beta, on 400 levels below t_max: within 8 eps
    # relative (4.2 eps at most over these cases; the same rate rounded as
    # (p-1)(q beta - 1), through q and q beta, reads up to 11.8 eps)
    model = BOUND_MODELS[name]()
    pot = pl.solve_radial(model, p, 1.0)
    levels = np.concatenate([np.linspace(0.0, pot.t_max, 201)[:-1], rng.uniform(0.0, pot.t_max, 200)])
    radii = pl.radius_of_level(pot, levels)
    worst = 0.0
    with mpmath.workdps(40):
        rate = 2 * mpmath.mpf(model.warp.power_law) - (mpmath.mpf(p) - 1)
        for t, r in zip(levels, radii):
            exact = mpmath.mpf(pot.r0) * mpmath.exp(mpmath.mpf(t) / rate)
            worst = max(worst, abs(float(mpmath.mpf(r) / exact - 1)))
    assert worst <= 8 * EPS


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_levels_rejected(solved, bad):
    pot = solved("flat", 1.5)
    with pytest.raises(pl.DomainError, match="not a finite number"):
        pl.radius_of_level(pot, bad)
    with pytest.raises(pl.DomainError, match="not a finite number"):
        pl.radius_of_level(pot, np.array([1.0, bad]))
    for level_function in (pl.capacity, functionals._level):
        with pytest.raises(pl.DomainError, match="not a finite number"):
            level_function(pot, bad)


def _level_radius_to_30_digits(pot, h, breaks, t):
    """The radius of the level t of ``pot`` at 30 digits: Newton on w(r) = t in
    the bracket cell [grid[j-1], grid[j]], with I(r) = suffix[j] plus the
    integral of h^(-q) from r to grid[j] (h the mpmath warp, split at the
    radii ``breaks`` where it is C^2 only), from the float radius of the
    bracket's linear interpolation."""
    w, grid = pot.w, pot.grid
    j = int(np.searchsorted(w, t, side="left"))
    k, q = mpmath.mpf(pot.p_value) - 1, 2 / (mpmath.mpf(pot.p_value) - 1)
    log_i0, target = mpmath.log(mpmath.mpf(pot.normalizer)), mpmath.mpf(t)
    upper, suffix = mpmath.mpf(grid[j]), mpmath.mpf(pot.suffix[j])
    r = mpmath.mpf(grid[j - 1]) + (target - w[j - 1]) / (w[j] - w[j - 1]) * (upper - grid[j - 1])
    for _ in range(8):
        inside = [mpmath.mpf(x) for x in breaks if r < x < upper]
        flux = suffix + mpmath.quad(lambda s: h(s) ** -q, [r, *inside, upper])
        step = (k * (log_i0 - mpmath.log(flux)) - target) * flux / (k * h(r) ** -q)
        r -= step
        if abs(step) < mpmath.mpf(10) ** -26 * r:
            return r
    raise AssertionError(f"30-digit level {t!r} not converged")


def _mpmath_warp(model):
    """(h, knots) of a library cap model in mpmath: sin(sqrt(k) r)/sqrt(k)
    and no knots, or the spline's cubic pieces from its float coefficients
    and its knots."""
    if model.warp.kind == "positive_cap":
        s = mpmath.sqrt(mpmath.mpf(model.warp.params["k"]))
        return (lambda r: mpmath.sin(s * r) / s), ()
    knots = np.array(model.warp.params["knots"])
    pieces = pl.geometry._spline_pieces(knots, np.array(model.warp.params["values"]))

    def h(r):
        i = min(max(int(np.searchsorted(knots, float(r), side="right")) - 1, 0), knots.size - 2)
        d = r - mpmath.mpf(knots[i])
        return sum(mpmath.mpf(c[i]) * d ** (3 - m) for m, c in enumerate(pieces))

    return h, knots.tolist()


@pytest.mark.parametrize("n_grid", [256, 4096])
@pytest.mark.parametrize("name", ["positive_cap_1", "spline_cap_0.5"])
def test_level_query_returns_converged_radii_with_their_flux_and_density(name, n_grid, rng):
    # the contract of a cell flux's level query, on random levels, the levels
    # one ulp inside each cell, whose start may lie on a node, and levels on
    # nodes: I and
    # h^(-q) come back with the bits flux_integral_at and density give at the
    # radius; every radius meets the residual floor or the step rule, measured
    # afresh; and it lies within 5e-15 relative of the 30-digit radius
    model = pl.library()[name]
    pot = pl.solve_radial(model, 1.5, LIBRARY_R0[name], n_grid=n_grid)
    cells = np.arange(1, pot.grid.size)
    levels = np.concatenate([
        rng.uniform(0.0, pot.t_max, 256),
        np.nextafter(pot.w[cells - 1], np.inf),
        np.nextafter(pot.w[cells], -np.inf),
        pot.w[::17],
        [pot.t_max],
    ])
    radii, flux, density = pot.levels(levels)
    assert flux.tobytes() == pot.flux_integral_at(radii).tobytes()
    assert density.tobytes() == pot.density(radii).tobytes()

    k, log_i0 = pot.p_value - 1.0, math.log(pot.normalizer)
    log_flux = np.log(flux)
    resid = k * (log_i0 - log_flux) - levels
    floor = LEVEL_RESIDUAL_ULPS * EPS * (levels + k * (abs(log_i0) + np.abs(log_flux)))
    step = resid * flux / (k * density)
    assert np.all((np.abs(resid) <= floor) | (np.abs(step) <= LEVEL_NEWTON_RTOL * radii))

    # solved again, the potential builds w and the node density on its first
    # inversion, and radius_of_level reads the same query
    unread = pl.solve_radial(model, 1.5, LIBRARY_R0[name], n_grid=n_grid)
    assert "w" not in vars(unread) and "node_density" not in vars(unread)
    assert pl.radius_of_level(unread, levels).tobytes() == radii.tobytes()

    h, breaks = _mpmath_warp(model)
    inside = rng.choice(np.arange(256, levels.size), 16, replace=False)
    sample = np.concatenate([np.arange(16), inside])
    sample = sample[(levels[sample] > 0.0) & ~np.isin(levels[sample], pot.w)]
    worst = 0.0
    with mpmath.workdps(30):
        for i in sample:
            exact = _level_radius_to_30_digits(pot, h, breaks, float(levels[i]))
            worst = max(worst, abs(float(mpmath.mpf(radii[i]) / exact - 1)))
    assert worst <= 5e-15


def _reference_inversion(pot, t, on_node):
    """The level query with one flux_integral_at and one density call per
    Newton step, and one more of each at a level that takes its last step.

    Counts in ``on_node`` the iterates that sit on the lower and on the upper
    node of their bracket cell.
    """
    w, grid = pot.w, pot.grid
    j = np.searchsorted(w, t, side="left")
    radii = grid[j].copy()
    todo = np.flatnonzero((j > 0) & (w[j] != t))
    j, t = j[todo], t[todo]
    a, b = grid[j - 1], grid[j]
    k = pot.p_value - 1.0
    slope_a = pot.suffix[j - 1] / (k * pot.density(a))
    slope_b = pot.suffix[j] / (k * pot.density(b))
    x = _hermite_start(a, b, w[j - 1], w[j], t, slope_a, slope_b)
    log_i0 = math.log(pot.normalizer)
    active = np.arange(todo.size)
    while active.size:
        xa = x[active]
        on_node["lower"] += int(np.count_nonzero(xa == grid[j[active] - 1]))
        on_node["upper"] += int(np.count_nonzero(xa == grid[j[active]]))
        flux = pot.flux_integral_at(xa)
        log_flux = np.log(flux)
        resid = k * (log_i0 - log_flux) - t[active]
        a[active[resid < 0.0]] = xa[resid < 0.0]
        b[active[resid > 0.0]] = xa[resid > 0.0]
        lo, hi = a[active], b[active]
        step = resid * flux / (k * pot.density(xa))
        new = xa - step
        outside = ~((new >= lo) & (new <= hi))
        new[outside] = 0.5 * (lo[outside] + hi[outside])
        floor = LEVEL_RESIDUAL_ULPS * EPS * (t[active] + k * (abs(log_i0) + np.abs(log_flux)))
        at_floor = np.abs(resid) <= floor
        settled = at_floor & (np.abs(step) <= LEVEL_STEP_ULPS * EPS * xa)
        new[settled] = xa[settled]
        x[active] = new
        done = settled | at_floor | (np.abs(new - xa) <= LEVEL_NEWTON_RTOL * xa)
        active = active[~done]
    radii[todo] = x
    return radii, pot.flux_integral_at(radii), pot.density(radii)


@pytest.mark.parametrize("n_grid", [256, 4096])
@pytest.mark.parametrize("name", ["positive_cap_1", "spline_cap_0.5"])
def test_newton_steps_in_the_bracket_cell_keep_the_bits(name, n_grid, rng):
    # the iteration of a cell flux reads I in its bracket cell instead of
    # calling flux_integral_at; random levels, plus the levels one ulp inside
    # each cell, whose iterates may round onto the cell's lower or upper node
    model = pl.library()[name]
    pot = pl.solve_radial(model, 1.5, LIBRARY_R0[name], n_grid=n_grid)
    # solved again, the potential builds w for its first inversion, with the same bits
    unread = pl.solve_radial(model, 1.5, LIBRARY_R0[name], n_grid=n_grid)
    assert isinstance(unread, pl.potential._CellFluxPotential) and "w" not in vars(unread)
    cells = np.arange(1, pot.grid.size)
    levels = np.concatenate([
        rng.uniform(0.0, pot.t_max, 256),
        np.nextafter(pot.w[cells - 1], np.inf),
        np.nextafter(pot.w[cells], -np.inf),
    ])
    on_node = {"lower": 0, "upper": 0}
    want = _reference_inversion(pot, levels, on_node)
    assert on_node["lower"] > 0 and on_node["upper"] > 0, on_node
    for got in (pot.levels(levels), unread.levels(levels)):
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
    assert pl.radius_of_level(pot, levels).tobytes() == want[0].tobytes()
    assert "w" in vars(unread)


def test_level_inversion_keeps_no_reference_cycle():
    # the potential must be freed by reference counting alone once dropped
    gc.disable()
    try:
        pot = pl.solve_radial(pl.flat_model(), 1.5, 1.0, n_grid=256)
        pl.radius_of_level(pot, 0.5 * pot.t_max + 1e-7)  # between nodes: runs Newton
        ref = weakref.ref(pot)
        del pot
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["flat", "positive_cap_1"])
def test_levels_within_their_slack_take_np_clips_radii(name):
    # levels 1e-12 outside [0, t_max] are clamped to the ends as np.clip
    # clamped them, on the closed-form path (flat) and the Newton path
    pot = pl.solve_radial(pl.library()[name], 1.5, LIBRARY_R0[name], n_grid=256)
    t = np.array([-1e-12, -0.0, 0.0, 0.5 * pot.t_max, pot.t_max, pot.t_max + 1e-12])
    clipped = np.clip(t, 0.0, pot.t_max)
    for got, expected in zip(pot.levels(t), pot._invert(clipped)):
        assert got.tobytes() == expected.tobytes()
    radii = pot.levels(t)[0]
    assert radii[0] == radii[1] == radii[2] == pot.r0 and radii[-2] == radii[-1] == pot.r_trunc


def test_level_beyond_truncation_rejected(solved):
    pot = solved("flat", 1.5)
    with pytest.raises(pl.DomainError, match="beyond truncation"):
        pl.radius_of_level(pot, pot.t_max + 1.0)
    with pytest.raises(pl.DomainError, match="outside the solved range"):
        _level_at(pot, pot.r_trunc * 2.0)


def test_w_prime_at_the_nodes_reads_the_suffix():
    # a solve keeps grid, w and suffix alone; w' = (p-1) h^(-q) / I at the
    # nodes reads I where the suffix holds it
    pot = pl.solve_radial(pl.cone_model(0.8), 1.5, 1.0, n_grid=256)
    hq = pot.model.warp.h(pot.grid) ** -4.0
    assert np.array_equal(pot.flux_integral_at(pot.grid), pot.suffix)
    assert np.allclose(w_prime_at(pot, pot.grid), 0.5 * hq / pot.suffix, rtol=1e-14, atol=0.0)


def test_monotone_profiles(solved):
    pot = solved("cone", 1.2)
    u = pot.suffix / pot.normalizer
    assert np.all(np.diff(u) < 0.0)
    assert u[0] == 1.0
    assert np.all(w_prime_at(pot, pot.grid) > 0.0)


@pytest.mark.parametrize("name", ["flat", "positive_cap_1"])
def test_flux_integral_refuses_radii_outside_the_solved_range(name):
    # on the closed-form path (flat) and the Gauss path (positive_cap): a NaN
    # fails both comparisons with the range, so it is refused like any radius
    # outside it
    pot = pl.solve_radial(pl.library()[name], 1.5, LIBRARY_R0[name], n_grid=256)
    inside = 0.5 * (pot.grid[0] + pot.grid[-1])
    for bad in (float("nan"), pot.grid[0] * (1.0 - 1e-12), pot.grid[-1] * (1.0 + 1e-12), math.inf):
        with pytest.raises(pl.DomainError, match=r"requested at r = .*outside the solved range"):
            pot.flux_integral_at([inside, bad])
    assert np.all(np.isfinite(pot.flux_integral_at([inside, pot.grid[0], pot.grid[-1]])))
