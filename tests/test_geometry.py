"""Curvature, level-set geometry, pinching and volume growth on the model library.

Expected values are closed forms of the warped metric dr^2 + h(r)^2 g_(S^2):
    Ric(d_r, d_r) = -2 h''/h
    Ric(tangent)  = -h''/h + (1 - h'^2)/h^2
    Scalar        = Ric_radial + 2 Ric_tangential
    area = 4 pi h^2,  H = 2 h'/h,  Sc^T = 2/h^2  (round sphere of radius h)
"""

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
