"""Monotone quantities, derivative audit, divergence identities, inequalities.

The power-law model h = r^(3/4) with p = 3/2 is fully explicit and is the
oracle workhorse:
    w = log r,  w' = 1/r,  H = 3/(2r),  m = 3 - p = 3/2
    F(t) = (20 pi / 9) e^(-t/2)      G(t) = (16 pi / 9) e^(-t/2)
    dF/dt = -F/2
    div X = w'^2 (2 w' - m H)/(p-1)  -> at r = 5: -0.004
    div Y = -[Ric(nu,nu) w' + w' (m/(2(p-1)))(H - 2w'/m)^2] -> at r = 5: -1/300
The variant of div X with a bare mean-curvature term evaluates to -0.148 at
r = 5 and must be visibly rejected by the audit.
"""

import gc
import math
import weakref

import numpy as np
import pytest

import pinchlab as pl
from pinchlab import functionals

FOUR_PI = 4.0 * math.pi
EIGHT_PI = 8.0 * math.pi
SIXTEEN_PI = 16.0 * math.pi


# ---------------------------------------------------------------------------
# F and G values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
def test_flat_F_G_are_4pi(solved, p):
    pot = solved("flat", p)
    for t in (0.5, 2.0, 5.0):
        assert abs(pl.value_F(pot, t) - FOUR_PI) < 1e-10
        assert abs(pl.value_G(pot, t) - FOUR_PI) < 1e-10


def test_cone_F_G_are_4pi_a_squared(solved):
    pot = solved("cone", 1.5)
    expected = FOUR_PI * 0.64
    for t in (0.5, 2.0, 5.0):
        assert abs(pl.value_F(pot, t) / expected - 1.0) < 1e-10
        assert abs(pl.value_G(pot, t) / expected - 1.0) < 1e-10


def test_power_warp_decay_law(solved):
    pot = solved("power_warp", 1.5)
    for t in (0.2, 1.0, 3.0, 7.0):
        f = pl.value_F(pot, t)
        g = pl.value_G(pot, t)
        assert abs(f / ((20.0 * math.pi / 9.0) * math.exp(-t / 2.0)) - 1.0) < 1e-9
        assert abs(g / f - 0.8) < 1e-10


def test_value_level_guards(solved):
    pot = solved("flat", 1.5)
    with pytest.raises(pl.DomainError):
        pl.value_F(pot, -0.5)
    with pytest.raises(pl.DomainError):
        pl.value_G(pot, pot.t_max + 1.0)


# ---------------------------------------------------------------------------
# derivatives and the constants audit
# ---------------------------------------------------------------------------


def test_monotone_sample_derivatives_agree(solved):
    pot = solved("power_warp", 1.5)
    for t in (1.0, 3.0):
        s = pl.monotone_sample(pot, t)
        assert abs(s.dF_fd / s.dF_cf - 1.0) < 1e-6
        assert abs(s.dG_fd / s.dG_cf - 1.0) < 1e-6
        # closed form of the decay law: dF/dt = -F/2
        assert abs(s.dF_cf / (-0.5 * s.F) - 1.0) < 1e-8


def test_monotone_levels_spacing(solved):
    pot = solved("flat", 1.5)
    samples = pl.monotone_levels(pot, 16)
    assert len(samples) == 16
    ts = [s.t for s in samples]
    assert all(b > a for a, b in zip(ts, ts[1:]))
    with pytest.raises(pl.DomainError):
        pl.monotone_levels(pot, 1)


def test_level_window_guard(solved):
    pot = solved("flat", 1.5)
    with pytest.raises(pl.DomainError, match="level range"):
        pl.monotone_sample(pot, pot.t_max)  # no room for the centered stencil


@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
def test_audit_constants(p):
    aud = pl.audit_constants(p)
    m = 3.0 - p
    # F's closed-form derivative needs no correction; G's carries 1/(3-p)^2.
    assert abs(aud.c_F - 1.0) < 1e-8
    assert abs(aud.c_G * m * m - 1.0) < 1e-8
    assert aud.c_G_expected == 1.0 / (m * m)
    assert aud.c_F_spread < 1e-9
    assert aud.c_G_spread < 1e-9
    assert aud.div_x_mismatch < 1e-9
    assert aud.div_y_mismatch < 1e-9
    # the variant with a bare mean-curvature term is wildly off and rejected
    assert aud.div_x_inhomogeneous_mismatch > 1.0
    assert any("rejected" in note for note in aud.notes)


def test_audit_constants_cached():
    assert pl.audit_constants(1.5) is pl.audit_constants(1.5)


# ---------------------------------------------------------------------------
# divergence identities
# ---------------------------------------------------------------------------


def test_div_fields_oracle(solved):
    pot = solved("power_warp", 1.5)
    s = pl.div_fields(pot, 5.0)
    assert not s.near_edge
    # closed forms at r = 5: w' = 0.2, H = 0.3
    assert abs(s.claim_x - (-0.004)) < 1e-15
    assert abs(s.claim_y - (-1.0 / 300.0)) < 1e-15
    assert abs(s.claim_x_inhomogeneous - (-0.148)) < 1e-15
    # spline-route divergences agree with the homogeneous claims
    assert abs(s.div_x / s.claim_x - 1.0) < 1e-5
    assert abs(s.div_y / s.claim_y - 1.0) < 1e-5
    # and visibly reject the inhomogeneous variant
    assert abs(s.div_x - s.claim_x_inhomogeneous) > 0.1


# ---------------------------------------------------------------------------
# total curvature
# ---------------------------------------------------------------------------


def test_gauss_bonnet_quantized(solved, rng):
    for name in ("flat", "cone", "power_warp"):
        pot = solved(name, 1.5)
        for t in rng.uniform(0.0, 0.9 * pot.t_max, 10):
            gb = pl.gauss_bonnet(pot, float(t))
            assert abs(gb.integral - EIGHT_PI) < 1e-8
            assert gb.nearest_multiple == 1


# ---------------------------------------------------------------------------
# pinching inequalities
# ---------------------------------------------------------------------------


def test_pinched_inequality_flat_tight(solved):
    rep = pl.pinched_inequalities(solved("flat", 1.5), 1.0, 1.0 / 3.0)
    assert rep.satisfied
    assert abs(rep.slack) < 1e-12
    assert abs(rep.willmore_integral - SIXTEEN_PI) < 1e-10


def test_pinched_inequality_cone_fails(solved):
    # The cone has Ric(nu,nu) = 0 but a genuine Willmore deficit, so the
    # sphere-branch inequality fails by exactly eps * 16 pi (1 - a^2).
    eps = 0.05
    rep = pl.pinched_inequalities(solved("cone", 1.5), 2.0, eps)
    assert not rep.satisfied
    assert abs(rep.slack - (-eps * SIXTEEN_PI * 0.36)) < 1e-10


def test_pinched_inequality_power_warp_holds_at_its_margin(solved):
    pot = solved("power_warp", 1.5)
    margin = pl.pinching_margin(pot.model).margin
    rep = pl.pinched_inequalities(pot, 1.0, max(margin, 1e-3))
    assert rep.satisfied
    assert rep.slack > 0.0


def test_pinched_inequality_eps_guard(solved):
    with pytest.raises(pl.DomainError):
        pl.pinched_inequalities(solved("flat", 1.5), 1.0, 0.5)


def test_high_genus_branch_formula():
    assert pl.high_genus_branch_slack(1.0, 0.25, 2.0) == 0.5
    assert pl.high_genus_branch_slack(0.0, 0.0, 1.0) == -1.0


# ---------------------------------------------------------------------------
# interpolation chain
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["flat", "cone", "power_warp"])
def test_holder_chain_is_equality(solved, name):
    # |grad w| is constant on radial level sets, so the interpolation upper
    # bound collapses to equality with the capacity.
    pot = solved(name, 1.5)
    for t in (0.3, 1.5, 4.0):
        s = pl.holder_chain(pot, t)
        assert abs(s.lhs / s.mid - 1.0) < 1e-9
        assert abs(s.equality_gap) < 1e-10 * (1.0 + abs(s.mid))


# ---------------------------------------------------------------------------
# one inversion per level
# ---------------------------------------------------------------------------


def _count_inversions(monkeypatch):
    """The number of levels of each radius_of_level call made through functionals."""
    calls = []
    inner = functionals.radius_of_level

    def counting(pot, t):
        calls.append(int(np.size(t)))
        return inner(pot, t)

    monkeypatch.setattr(functionals, "radius_of_level", counting)
    return calls


def test_level_rows_invert_each_level_once(solved, monkeypatch):
    pot = solved("cone", 1.5)
    pl.audit_constants(1.5)  # warm: count the rows' own levels only
    calls = _count_inversions(monkeypatch)
    functionals.level_rows(pot, 64)
    # t, t +- dt and t +- dt/2 per row, plus cap(0), all in one batch
    assert sum(calls) == 5 * 64 + 1
    assert len(calls) == 1


def test_cold_audit_inverts_each_level_once(monkeypatch):
    calls = _count_inversions(monkeypatch)
    functionals._audit_constants_cached.__wrapped__(1.5)
    assert sum(calls) == 17 * 5
    assert len(calls) == 1


def test_audit_frees_its_potential(monkeypatch):
    # the audit's 16384-node potential must die with the audit, by reference
    # counting alone: nothing (no cache of splines) may keep it alive
    refs = []
    inner = functionals.solve_radial

    def recording(*args, **kwargs):
        pot = inner(*args, **kwargs)
        refs.append(weakref.ref(pot))
        return pot

    monkeypatch.setattr(functionals, "solve_radial", recording)
    gc.disable()
    try:
        pl.audit_constants(1.4321)
        assert len(refs) == 1
        assert refs[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["flat", "cone", "power_warp"])
def test_rows_match_holder_chain_and_capacity_bitwise(solved, name):
    pot = solved(name, 1.5)
    rows, _, _ = functionals.level_rows(pot, 8)
    for row in rows:
        assert pl.holder_chain(pot, row["t"]).equality_gap == row["holder_gap"]
        assert pl.capacity(pot, row["t"]) == row["cap"]


# ---------------------------------------------------------------------------
# Willmore energy and the small-sphere expansion
# ---------------------------------------------------------------------------


def test_willmore_values():
    assert abs(pl.willmore(pl.flat_model(), 3.0) - SIXTEEN_PI) < 1e-12
    assert abs(pl.willmore(pl.cone_model(0.8), 3.0) - SIXTEEN_PI * 0.64) < 1e-12


def test_small_sphere_expansion_positive_cap():
    rep = pl.small_sphere_expansion(pl.positive_cap_model(1.0))
    assert abs(rep.expected - (EIGHT_PI / 3.0) * 6.0) < 1e-12
    assert rep.relative_deviation < 0.02


def test_small_sphere_expansion_spline_cap():
    rep = pl.small_sphere_expansion(pl.spline_cap_model(0.5))
    assert abs(rep.expected - (EIGHT_PI / 3.0) * 3.0) < 1e-12
    assert rep.relative_deviation < 0.02


def test_small_sphere_expansion_flat_is_exact_zero():
    rep = pl.small_sphere_expansion(pl.flat_model())
    assert rep.expected == 0.0
    assert abs(rep.coefficient) < 1e-8


def test_small_sphere_expansion_needs_smooth_pole():
    with pytest.raises(pl.DomainError, match="smooth pole"):
        pl.small_sphere_expansion(pl.cone_model(0.8))
