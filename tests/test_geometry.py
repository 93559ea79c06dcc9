"""Curvature, level-set geometry, pinching and volume growth on the model library.

Expected values are closed forms of the warped metric dr^2 + h(r)^2 g_(S^2):
    Ric(d_r, d_r) = -2 h''/h
    Ric(tangent)  = -h''/h + (1 - h'^2)/h^2
    Scalar        = Ric_radial + 2 Ric_tangential
    area = 4 pi h^2,  H = 2 h'/h,  Sc^T = 2/h^2  (round sphere of radius h)
"""

import dataclasses
import math

import numpy as np
import pytest

import pinchlab as pl

FOUR_PI = 4.0 * math.pi
EIGHT_PI = 8.0 * math.pi


def _random_radii(model, rng, n=20):
    lo = model.r_min if model.r_min > 0.0 else 1e-6 * model.r_max
    return np.exp(rng.uniform(np.log(lo), np.log(model.r_max), n))


# ---------------------------------------------------------------------------
# curvature closed forms
# ---------------------------------------------------------------------------


def test_flat_curvature_vanishes(rng):
    model = pl.flat_model()
    for r in _random_radii(model, rng):
        c = pl.curvature(model, r)
        assert c.ric_radial == 0.0
        assert c.ric_tangential == 0.0
        assert c.scalar == 0.0


def test_cone_curvature_closed_form():
    model = pl.cone_model(0.8)
    c = pl.curvature(model, 2.0)
    # h = a r: h'' = 0, so the radial eigenvalue vanishes and the tangential
    # one is (1 - a^2)/(a^2 r^2) = 0.36/2.56.
    assert c.ric_radial == 0.0
    assert math.isclose(c.ric_tangential, 0.140625, rel_tol=1e-14)
    assert math.isclose(c.scalar, 0.28125, rel_tol=1e-14)


def test_power_warp_curvature_closed_form():
    model = pl.power_warp_model(1.5)
    c = pl.curvature(model, 4.0)
    # h = r^(3/4): Ric_rad = (3/8) r^-2, Ric_tan = r^(-3/2) - (3/8) r^-2.
    assert math.isclose(c.ric_radial, 3.0 / 128.0, rel_tol=1e-13)
    assert math.isclose(c.ric_tangential, 13.0 / 128.0, rel_tol=1e-13)
    assert math.isclose(c.scalar, 29.0 / 128.0, rel_tol=1e-13)


def test_positive_cap_is_space_form(rng):
    k = 1.0
    model = pl.positive_cap_model(k)
    for r in _random_radii(model, rng, n=10):
        c = pl.curvature(model, r)
        assert math.isclose(c.ric_radial, 2.0 * k, rel_tol=1e-12)
        # The tangential eigenvalue evaluates (1 - cos^2)/sin^2: near the pole
        # the numerator cancels at relative accuracy eps/r^2, so a uniform
        # 1e-8 tolerance is the honest float bound over the sampled range.
        assert math.isclose(c.ric_tangential, 2.0 * k, rel_tol=1e-8)
        assert math.isclose(c.scalar, 6.0 * k, rel_tol=1e-8)


def test_spline_cap_matches_its_target_curvature():
    # h = r - k r^3/6 is the Taylor profile of the curvature-k cap, so the
    # scalar curvature near the pole should approach 6k.
    model = pl.spline_cap_model(0.5)
    c = pl.curvature(model, 0.05)
    assert abs(c.scalar - 3.0) < 0.01


@pytest.mark.parametrize("params, name", [
    ({"n_knots": 40.5}, "n_knots"), ({"n_knots": True}, "n_knots"), ({"r_max": -1.0}, "r_max"),
    ({"r_max": math.inf}, "r_max"), ({"n_knots": 2**14 + 1}, "n_knots"), ({"n_knots": 10**300}, "n_knots"),
])
def test_spline_cap_refuses_its_inputs_before_building_knots(params, name, monkeypatch):
    monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: pytest.fail("knots were built"))
    with pytest.raises(pl.DomainError, match=f"^spline_cap {name} must be"):
        pl.spline_cap_model(**params)


def test_spline_cap_takes_knots_up_to_its_cap():
    cap = pl.geometry.SPLINE_MAX_KNOTS
    assert len(pl.spline_cap_model(n_knots=cap).warp.params["knots"]) == cap


# ---------------------------------------------------------------------------
# level sets
# ---------------------------------------------------------------------------


def test_levelset_flat_sphere():
    geo = pl.levelset_geometry(pl.flat_model(), 2.0)
    assert math.isclose(geo.area, 16.0 * math.pi, rel_tol=1e-15)
    assert math.isclose(geo.mean_curvature, 1.0, rel_tol=1e-15)
    assert math.isclose(geo.sff_norm_sq, 0.5, rel_tol=1e-15)
    assert geo.traceless_sff_norm_sq == 0.0
    assert math.isclose(geo.sc_tangential, 0.5, rel_tol=1e-15)
    assert geo.ric_normal == 0.0


def test_levelset_cone_sphere():
    geo = pl.levelset_geometry(pl.cone_model(0.8), 1.0)
    assert math.isclose(geo.area, FOUR_PI * 0.64, rel_tol=1e-14)
    assert math.isclose(geo.mean_curvature, 2.0, rel_tol=1e-14)
    assert math.isclose(geo.sc_tangential, 2.0 / 0.64, rel_tol=1e-14)


def test_umbilicity_everywhere(rng):
    # Distance spheres in a rotationally symmetric metric are totally
    # umbilic; the traceless second fundamental form must vanish identically.
    for model in pl.library().values():
        for r in _random_radii(model, rng, n=25):
            geo = pl.levelset_geometry(model, r)
            assert abs(geo.traceless_sff_norm_sq) <= 1e-12


def test_gauss_identity_residual_all_models(rng):
    # Gauss equation on each distance sphere, as a relative residual against
    # the largest constituent term.
    for model in pl.library().values():
        for r in _random_radii(model, rng, n=25):
            assert abs(pl.gauss_identity_residual(model, r)) <= 1e-12


# ---------------------------------------------------------------------------
# pinching
# ---------------------------------------------------------------------------


def test_pinching_flat_is_vacuous():
    report = pl.pinching_margin(pl.flat_model())
    assert report.nonneg_ricci
    assert report.margin == pytest.approx(1.0 / 3.0, abs=0.0)
    assert report.n_scalar_positive == 0


def test_pinching_cone_margin_zero():
    report = pl.pinching_margin(pl.cone_model(0.8))
    assert report.nonneg_ricci
    assert report.margin == 0.0


def test_pinching_power_warp_small_positive():
    report = pl.pinching_margin(pl.power_warp_model(1.5))
    assert report.nonneg_ricci
    assert 0.0 < report.margin < 0.01


def test_pinching_positive_cap_is_one_third():
    report = pl.pinching_margin(pl.positive_cap_model(1.0))
    assert report.nonneg_ricci
    assert abs(report.margin - 1.0 / 3.0) < 1e-4


def test_pinching_spline_cap_close_to_one_third():
    report = pl.pinching_margin(pl.spline_cap_model(0.5))
    assert report.nonneg_ricci
    assert abs(report.margin - 1.0 / 3.0) < 2e-3


def test_pinching_wide_cone_has_negative_ricci():
    report = pl.pinching_margin(pl.cone_model(1.2))
    assert not report.nonneg_ricci
    assert report.margin == 0.0


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------


def test_ball_volume_closed_forms():
    assert math.isclose(pl.ball_volume(pl.flat_model(), 2.0), 32.0 * math.pi / 3.0, rel_tol=1e-13)
    a = 0.8
    assert math.isclose(
        pl.ball_volume(pl.cone_model(a), 3.0),
        a * a * FOUR_PI * (27.0 - 1e-12) / 3.0,  # from the inner radius 1e-4
        rel_tol=1e-13,
    )
    # int_0^r sin^2 = r/2 - sin(2r)/4
    r = 1.0
    assert math.isclose(
        pl.ball_volume(pl.positive_cap_model(1.0), r),
        FOUR_PI * (r / 2.0 - math.sin(2.0 * r) / 4.0),
        rel_tol=1e-13,
    )
    # h = r^(alpha/2) from r_min: 4 pi (r^(1+alpha) - r_min^(1+alpha)) / (1+alpha)
    alpha, r_min = 1.5, 0.25
    for r in (0.25, 0.3, 7.0, 1e4):
        assert math.isclose(
            pl.ball_volume(pl.power_warp_model(alpha, r_min=r_min), r),
            FOUR_PI * (r ** (1.0 + alpha) - r_min ** (1.0 + alpha)) / (1.0 + alpha),
            rel_tol=1e-13,
            abs_tol=0.0 if r > r_min else 1e-300,
        )


@pytest.mark.parametrize("name", ["flat", "cone_0.8", "power_warp_1.5"])
def test_power_law_ball_volume_against_forty_digits(name, rng, monkeypatch):
    # 4 pi c^2 (r^g - r_min^g) / g, g = 2 beta + 1, at 40 digits from the float
    # inputs, within 4 eps relative: radii over the whole domain, thin shells
    # just above r_min and radii at both sides of 2 r_min, where the form
    # switches; no quadrature runs
    import mpmath

    from pinchlab import geometry

    def no_quadrature(*args, **kwargs):
        raise AssertionError("a power-law ball volume ran quadrature")

    monkeypatch.setattr(geometry, "cell_integrals", no_quadrature)
    monkeypatch.setattr(geometry, "interval_integrals", no_quadrature)
    model = pl.library()[name]
    a = model.r_min
    lo = a if a > 0.0 else 1e-9 * model.r_max
    radii = np.concatenate([
        np.exp(rng.uniform(math.log(lo), math.log(model.r_max), 200)),
        lo * (1.0 + np.exp(rng.uniform(-30.0, 0.7, 100))),
        [lo, np.nextafter(lo, math.inf), 2.0 * lo, np.nextafter(2.0 * lo, 0.0), model.r_max],
    ])
    radii = radii[radii <= model.r_max]
    volumes = pl.ball_volume(model, radii)
    worst = 0.0
    with mpmath.workdps(40):
        g = 2 * mpmath.mpf(model.warp.power_law) + 1
        scale = 4 * mpmath.pi * mpmath.mpf(float(model.warp.h(1.0))) ** 2 / g
        for r, volume in zip(radii.tolist(), volumes.tolist()):
            exact = scale * (mpmath.mpf(r) ** g - mpmath.mpf(a) ** g)
            if exact == 0:
                assert volume == 0.0
            else:
                worst = max(worst, abs(float(mpmath.mpf(volume) / exact - 1)))
    assert worst <= 4 * float(np.finfo(float).eps)


@pytest.mark.parametrize("name", ["flat", "cone_0.8", "power_warp_1.5", "positive_cap_1", "spline_cap_0.5"])
def test_ball_volume_array_matches_scalar_calls_bitwise(name):
    model = pl.library()[name]
    lo = model.r_min if model.r_min > 0.0 else 1e-12 * model.r_max
    radii = np.geomspace(lo, model.r_max, 37)[::-1].reshape(37, 1)
    volumes = pl.ball_volume(model, radii)
    assert volumes.shape == radii.shape
    scalars = [pl.ball_volume(model, float(r)) for r in radii.ravel()]
    assert all(isinstance(v, float) for v in scalars)
    assert volumes.ravel().tolist() == scalars
    assert np.all(np.diff(volumes.ravel()) < 0.0)


def test_ball_volume_of_no_radii_is_empty():
    # as radius_of_level(pot, []): an empty array of the input's shape, not
    # numpy's "zero-size array to reduction operation minimum"
    for radii in ([], np.empty((0, 3))):
        volumes = pl.ball_volume(pl.flat_model(), radii)
        assert volumes.shape == np.shape(radii) and volumes.dtype == float


def test_ball_volume_rejects_radii_outside_the_domain():
    with pytest.raises(pl.DomainError, match="outside the model domain"):
        pl.ball_volume(pl.flat_model(), 0.0)
    with pytest.raises(pl.DomainError, match="outside the model domain"):
        pl.ball_volume(pl.cone_model(0.8), [1.0, 2e4])
    with pytest.raises(pl.DomainError, match="outside the model domain"):
        pl.ball_volume(pl.power_warp_model(1.5), np.array([0.2, 1.0]))
    with pytest.raises(pl.DomainError, match="outside the model domain"):
        pl.ball_volume(pl.flat_model(), [1.0, math.nan])


def test_growth_exponent_flat():
    report = pl.growth_exponent(pl.flat_model(), 1.0, 100.0)
    assert abs(report.alpha_hat - 2.0) < 1e-10
    assert report.avr is not None and abs(report.avr - 1.0) < 1e-10


def test_growth_exponent_cone_avr():
    report = pl.growth_exponent(pl.cone_model(0.8), 1.0, 100.0)
    assert abs(report.alpha_hat - 2.0) < 1e-6
    assert report.avr is not None and abs(report.avr - 0.64) < 1e-6


def test_growth_exponent_power_warp():
    report = pl.growth_exponent(pl.power_warp_model(1.5), 10.0, 1e4)
    assert abs(report.alpha_hat - 1.5) < 0.01
    assert report.avr is None


def test_growth_exponent_window_validation():
    with pytest.raises(pl.DomainError):
        pl.growth_exponent(pl.flat_model(), 100.0, 1.0)
    with pytest.raises(pl.DomainError):
        pl.growth_exponent(pl.cone_model(0.8), 1e-5, 1.0)  # below r_min


def test_a_model_keeps_its_pinching_report_and_its_last_growth_fits():
    model = pl.positive_cap_model(1.0)
    assert pl.pinching_margin(model) is pl.pinching_margin(model)
    windows = [(0.01 * (i + 1), 1.0) for i in range(pl.geometry.GROWTH_FITS_KEPT + 1)]
    fits = [pl.growth_exponent(model, *window) for window in windows]
    assert list(model._growth_fits) == windows[1:]  # the oldest window was dropped
    assert pl.growth_exponent(model, *windows[-1]) is fits[-1]
    again = pl.growth_exponent(model, *windows[0])
    assert again == fits[0] and again is not fits[0]
    assert dataclasses.replace(model)._growth_fits == {}  # an equal model keeps its own


# ---------------------------------------------------------------------------
# model construction and domains
# ---------------------------------------------------------------------------


def test_factory_validation():
    with pytest.raises(pl.DomainError):
        pl.cone_model(0.0)
    with pytest.raises(pl.DomainError):
        pl.cone_model(0.8, r_min=0.0)
    with pytest.raises(pl.DomainError):
        pl.power_warp_model(2.5)
    with pytest.raises(pl.DomainError):
        pl.power_warp_model(0.0)
    with pytest.raises(pl.DomainError):
        pl.positive_cap_model(-1.0)
    with pytest.raises(pl.DomainError):
        # sin(sqrt(k) r) turns negative before r = 4: the warp must stay positive
        pl.positive_cap_model(1.0, r_max=4.0)


def test_spline_warp_positive_at_interior_minimum():
    # the spline dips to h = -3.04e-3 near r = 2.049, between the geometric samples
    warp = pl.geometry.spline_warp([0, 1, 2, 3, 4], [0, 1, 0.001, 1, 2])
    with pytest.raises(pl.DomainError, match="positive"):
        pl.ManifoldModel(warp, 1.0, 4.0)
    # the same dip outside the domain is harmless
    assert pl.ManifoldModel(warp, 2.5, 4.0).r_min == 2.5
    positive = pl.geometry.spline_warp([0, 1, 2, 3, 4], [0, 1, 0.5, 1, 2])
    assert pl.ManifoldModel(positive, 1.0, 4.0).r_max == 4.0


def test_spline_warp_matches_scipys_cubic_spline():
    # on 200 random knot sets, gaps down to ~1e-6 included: h, h' and h''
    # within 1e-13 of scipy's not-a-knot CubicSpline, relative to each one's
    # largest |value|, at the knots, between them and up to 0.5 beyond the
    # ends; and the same zeros of h', in the pieces and beyond the end knots
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(20261022)
    for _ in range(200):
        n = int(rng.integers(4, 301))
        knots = np.sort(rng.uniform(0.0, 5.0, n))
        values = rng.uniform(0.5, 2.0, n)
        warp, spline = pl.geometry.spline_warp(knots, values), CubicSpline(knots, values)
        r = np.concatenate([knots, rng.uniform(knots[0] - 0.5, knots[-1] + 0.5, 512)])
        for ours, theirs in zip(warp(r), (spline(r), spline(r, 1), spline(r, 2))):
            assert np.abs(ours - theirs).max() <= 1e-13 * np.abs(theirs).max()
        roots = [root for root in spline.derivative().roots() if math.isfinite(root)]
        np.testing.assert_allclose(warp.critical_radii, np.sort(roots), rtol=1e-13, atol=1e-13)


def test_spline_warp_reproduces_a_cubic():
    # not-a-knot reproduces a cubic: on random non-uniform knots (neighbouring
    # gaps within a factor 9), h, h' and h'' at the knots and between them are
    # the cubic's to rounding, 64 eps max|y| / min(gap)^k for the k-th derivative
    rng = np.random.default_rng(20261023)
    eps = np.finfo(float).eps
    for _ in range(100):
        n = int(rng.integers(4, 301))
        gaps = rng.uniform(0.2, 1.8, n - 1)
        knots = np.concatenate([[0.0], np.cumsum(gaps)]) * (5.0 / gaps.sum())
        c3, c2, c1, c0 = rng.uniform(-2.0, 2.0, 4)
        r = np.concatenate([knots, rng.uniform(0.0, 5.0, 512)])
        exact = (((c3 * r + c2) * r + c1) * r + c0, (3.0 * c3 * r + 2.0 * c2) * r + c1,
                 6.0 * c3 * r + 2.0 * c2)
        values = ((c3 * knots + c2) * knots + c1) * knots + c0
        scale = 64.0 * eps * np.abs(values).max()
        for k, (ours, theirs) in enumerate(zip(pl.geometry.spline_warp(knots, values)(r), exact)):
            assert np.abs(ours - theirs).max() <= scale / np.diff(knots).min() ** k


@pytest.mark.parametrize("knots, values, message", [
    ([0, 1, 2], [1, 1, 1], "needs at least 4 knots"),
    ([[0, 1], [2, 3]], [[1, 1], [1, 1]], "needs at least 4 knots"),
    ([0, 1, 2, 3], [1, 1, 1], "must have equal length"),
    ([0, 1, 2, math.nan], [1, 1, 1, 1], "must be finite"),
    ([0, 1, 2, 3], [1, 1, math.inf, 1], "must be finite"),
    ([0, 1, 1, 3], [1, 1, 1, 1], "strictly increasing"),
])
def test_spline_warp_refuses_its_knots_by_name(knots, values, message):
    with pytest.raises(pl.DomainError, match=f"^custom_spline .*{message}"):
        pl.geometry.spline_warp(knots, values)


def test_warp_h_alone_equals_the_triple_bitwise(rng):
    warps = [model.warp for model in pl.library().values()]
    warps.append(pl.geometry.spline_warp([0, 1, 2, 3, 4], [0.2, 1, 0.5, 1, 2]))
    radii = rng.uniform(0.05, 1.4, 257)
    for warp in warps:
        h = warp.h(radii)
        assert h.shape == radii.shape
        assert h.tobytes() == warp(radii)[0].tobytes()
        assert float(warp.h(0.7)) == float(warp(0.7)[0])


def test_require_radius_bounds():
    flat = pl.flat_model()
    with pytest.raises(pl.DomainError):
        pl.levelset_geometry(flat, 0.0)
    with pytest.raises(pl.DomainError):
        pl.levelset_geometry(flat, 2e4)
    cone = pl.cone_model(0.8)
    geo = pl.levelset_geometry(cone, cone.r_min)  # inner boundary sphere included
    assert geo.area > 0.0
    with pytest.raises(pl.DomainError):
        pl.levelset_geometry(cone, cone.r_min / 2.0)


def test_library_contents():
    lib = pl.library()
    assert set(lib) == {"flat", "cone_0.8", "power_warp_1.5", "positive_cap_1", "spline_cap_0.5"}
    noncompact = pl.potential_library()
    assert set(noncompact) == {"flat", "cone_0.8", "power_warp_1.5"}
    for name, model in noncompact.items():
        assert lib[name].describe() == model.describe()


def test_describe_is_plain_data():
    desc = pl.cone_model(0.8).describe()
    assert desc["kind"] == "cone"
    assert desc["params"] == {"a": 0.8}
    assert desc["r_min"] == 1e-4


@pytest.mark.parametrize("warp", [
    pl.geometry.flat_warp(),
    *(pl.geometry.cone_warp(a) for a in (0.3, 0.8, 1.0)),
    *(pl.geometry.power_warp(alpha) for alpha in (0.5, 1.5, 2.0)),
], ids=lambda warp: f"{warp.kind}{dict(warp.params)}")
def test_declared_power_law_is_h_at_one_and_beta_bit_for_bit(warp):
    # the factories declare (c, beta); c is h(1) and beta the family's
    # exponent (1 for flat and cones, alpha/2 for power warps), bit for bit
    c, beta = warp.exact_power
    expected = 0.5 * warp.params["alpha"] if warp.kind == "power_warp" else 1.0
    assert (c.hex(), beta.hex()) == (float(warp.h(1.0)).hex(), expected.hex())
    assert warp.power_law == beta
