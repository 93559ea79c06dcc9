"""The level table, the constants audit, divergence identities, inequalities.

The power-law model h = r^(3/4) with p = 3/2 is fully explicit and is the
oracle workhorse:
    w = log r,  w' = 1/r,  H = 3/(2r),  m = 3 - p = 3/2
    F(t) = (20 pi / 9) e^(-t/2)      G(t) = (16 pi / 9) e^(-t/2)
    dF/dt = -F/2
    div X = w'^2 (2 w' - m H)/(p-1)  -> at r = 5: -0.004
    div Y = -[Ric(nu,nu) w' + w' (m/(2(p-1)))(H - 2w'/m)^2] -> at r = 5: -1/300
The variant of div X with a bare mean-curvature term evaluates to -0.148 at
r = 5 and must be visibly rejected by the audit.  Every per-level quantity is
read off ``functionals.level_table`` or ``geometry.levelset_geometry``; the
audit and ``div_fields`` are the oracles of ``conftest``.
"""

import gc
import json
import math
import weakref

import numpy as np
import pytest

import conftest
import pinchlab as pl
from conftest import audit_constants, div_fields
from pinchlab import functionals, rigidity

FOUR_PI = 4.0 * math.pi
EIGHT_PI = 8.0 * math.pi
SIXTEEN_PI = 16.0 * math.pi


def _rows(table):
    """The rows of a level table as dicts of Python floats (cap_0 left out)."""
    columns = [name for name in table if name != "cap_0"]
    return [dict(zip(columns, row)) for row in zip(*(table[c].tolist() for c in columns))]


# ---------------------------------------------------------------------------
# F and G values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
def test_flat_F_G_are_4pi(solved, p):
    pot = solved("flat", p)
    for row in _rows(functionals.level_table(pot, [0.5, 2.0, 5.0])):
        assert abs(row["F"] - FOUR_PI) < 1e-10
        assert abs(row["G"] - FOUR_PI) < 1e-10


def test_cone_F_G_are_4pi_a_squared(solved):
    pot = solved("cone", 1.5)
    expected = FOUR_PI * 0.64
    for row in _rows(functionals.level_table(pot, [0.5, 2.0, 5.0])):
        assert abs(row["F"] / expected - 1.0) < 1e-10
        assert abs(row["G"] / expected - 1.0) < 1e-10


def test_power_warp_decay_law(solved):
    pot = solved("power_warp", 1.5)
    for row in _rows(functionals.level_table(pot, [0.2, 1.0, 3.0, 7.0])):
        f, g = row["F"], row["G"]
        assert abs(f / ((20.0 * math.pi / 9.0) * math.exp(-row["t"] / 2.0)) - 1.0) < 1e-9
        assert abs(g / f - 0.8) < 1e-10


def test_value_level_guards(solved):
    pot = solved("flat", 1.5)
    with pytest.raises(pl.DomainError):
        functionals.level_table(pot, [-0.5])
    with pytest.raises(pl.DomainError):
        functionals.level_table(pot, [1.0, pot.t_max + 1.0])


def test_level_table_refuses_levels_of_two_dimensions(solved):
    # a scalar and a 1-D sequence are the level inputs; a 2-D array is named
    # by its shape, not passed on to the batch's concatenation
    pot = solved("flat", 1.5)
    with pytest.raises(pl.DomainError, match=r"1-D sequence, got shape \(1, 2\)"):
        functionals.level_table(pot, [[1.0, 2.0]])
    scalar, row = functionals.level_table(pot, 1.0), functionals.level_table(pot, [1.0])
    assert all(np.array_equal(scalar[k], row[k]) for k in row)


# ---------------------------------------------------------------------------
# derivatives and the constants audit
# ---------------------------------------------------------------------------


def test_monotone_sample_derivatives_agree(solved):
    pot = solved("power_warp", 1.5)
    for s in _rows(functionals.level_table(pot, [1.0, 3.0])):
        assert abs(s["dF_fd"] / s["dF_cf"] - 1.0) < 1e-6
        assert abs(s["dG_fd"] / s["dG_cf"] - 1.0) < 1e-6
        # closed form of the decay law: dF/dt = -F/2
        assert abs(s["dF_cf"] / (-0.5 * s["F"]) - 1.0) < 1e-8


def test_monotone_levels_spacing(solved):
    pot = solved("flat", 1.5)
    ts = functionals.level_table(pot, functionals._table_levels(pot, 16))["t"].tolist()
    assert len(ts) == 16
    assert all(b > a for a, b in zip(ts, ts[1:]))
    with pytest.raises(pl.DomainError):
        functionals._table_levels(pot, 1)
    # an integer by operator.index: 8.9 is refused, not rounded down to 8
    for bad in (2.5, 8.9, 16.0, float("nan"), "16"):
        with pytest.raises(pl.DomainError, match="n_levels must be an integer"):
            functionals._table_levels(pot, bad)
    assert functionals._table_levels(pot, np.int64(16)).size == 16


def test_level_window_guard(solved):
    pot = solved("flat", 1.5)
    with pytest.raises(pl.DomainError, match="level range"):
        functionals.level_table(pot, [pot.t_max])  # no room for the centered stencil


@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
def test_audit_constants(p):
    aud = audit_constants(p)
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
    assert audit_constants(1.5) is audit_constants(1.5)


# ---------------------------------------------------------------------------
# divergence identities
# ---------------------------------------------------------------------------


def test_div_fields_oracle(solved):
    pot = solved("power_warp", 1.5)
    s = div_fields(pot, 5.0)
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
        table = functionals.level_table(pot, rng.uniform(0.0, 0.9 * pot.t_max, 10))
        for gb in table["gb"].tolist():
            assert abs(gb - EIGHT_PI) < 1e-8
            assert round(gb / EIGHT_PI) == 1


# ---------------------------------------------------------------------------
# pinching inequalities
# ---------------------------------------------------------------------------


def _sphere_branch(pot, t, eps):
    """(slack, lhs, Willmore integral) of the sphere-branch pinching inequality
    2 integral Ric(nu,nu) >= eps (16 pi - integral H^2) on the level set at t."""
    geo = pl.levelset_geometry(pot.model, pl.radius_of_level(pot, t))
    willmore = geo.mean_curvature**2 * geo.area
    lhs = 2.0 * geo.ric_normal * geo.area
    return lhs - eps * (SIXTEEN_PI - willmore), lhs, willmore


def _satisfied(slack, lhs):
    return slack >= -1e-10 * (1.0 + abs(lhs))


def test_pinched_inequality_flat_tight(solved):
    slack, lhs, willmore = _sphere_branch(solved("flat", 1.5), 1.0, 1.0 / 3.0)
    assert _satisfied(slack, lhs)
    assert abs(slack) < 1e-12
    assert abs(willmore - SIXTEEN_PI) < 1e-10


def test_pinched_inequality_cone_fails(solved):
    # The cone has Ric(nu,nu) = 0 but a genuine Willmore deficit, so the
    # sphere-branch inequality fails by exactly eps * 16 pi (1 - a^2).
    eps = 0.05
    slack, lhs, _ = _sphere_branch(solved("cone", 1.5), 2.0, eps)
    assert not _satisfied(slack, lhs)
    assert abs(slack - (-eps * SIXTEEN_PI * 0.36)) < 1e-10


def test_pinched_inequality_power_warp_holds_at_its_margin(solved):
    pot = solved("power_warp", 1.5)
    margin = pl.pinching_margin(pot.model).margin
    slack, lhs, _ = _sphere_branch(pot, 1.0, max(margin, 1e-3))
    assert _satisfied(slack, lhs)
    assert slack > 0.0


def test_pinched_inequality_eps_guard():
    with pytest.raises(pl.DomainError, match=r"pinching constant must lie in \(0, 1/3\]"):
        rigidity._check_eps(0.5)


# ---------------------------------------------------------------------------
# interpolation chain
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["flat", "cone", "power_warp"])
def test_holder_chain_is_equality(solved, name):
    # |grad w| is constant on radial level sets, so the interpolation upper
    # bound collapses to equality with the capacity.
    pot = solved(name, 1.5)
    table = functionals.level_table(pot, [0.3, 1.5, 4.0])
    for row in _rows(table):
        lhs, mid = math.exp(row["t"]) * table["cap_0"], row["cap"]
        assert abs(lhs / mid - 1.0) < 1e-9
        assert abs(row["holder_gap"]) < 1e-10 * (1.0 + abs(mid))


# ---------------------------------------------------------------------------
# one inversion per level
# ---------------------------------------------------------------------------


def test_level_table_inverts_each_level_once(solved, monkeypatch):
    pot = solved("cone", 1.5)
    calls = conftest.count_level_queries(monkeypatch)
    functionals.level_table(pot, functionals._table_levels(pot, 64))
    # t, t +- dt and t +- dt/2 per row, plus cap(0), all in one batch
    assert sum(calls) == 5 * 64 + 1
    assert len(calls) == 1


def test_cold_audit_inverts_each_level_once(monkeypatch):
    calls = conftest.count_level_queries(monkeypatch)
    conftest._audit_constants_cached.__wrapped__(1.5)
    assert sum(calls) == 17 * 5
    assert len(calls) == 1


def test_audit_frees_its_potential(monkeypatch):
    # the audit's 16384-node potential must die with the audit, by reference
    # counting alone: nothing (no cache of splines) may keep it alive
    refs = []
    inner = conftest.solve_radial

    def recording(*args, **kwargs):
        pot = inner(*args, **kwargs)
        refs.append(weakref.ref(pot))
        return pot

    monkeypatch.setattr(conftest, "solve_radial", recording)
    gc.disable()
    try:
        audit_constants(1.4321)
        assert len(refs) == 1
        assert refs[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["flat", "cone", "power_warp"])
def test_rows_match_holder_chain_and_capacity_bitwise(solved, name):
    # every row of the level table has the bits of its single-level query,
    # and exp and the Hölder bound's powers round as math.exp and ** on floats
    pot = solved(name, 1.5)
    table = functionals.level_table(pot, functionals._table_levels(pot, 64))
    assert table["cap_0"] == pl.capacity(pot, 0.0)
    config = {"model": {"kind": name}, "scenario": "solve", "p": 1.5}
    report = pl.run(pl.parse_config(json.dumps(config)))
    assert report.constants["cap_0"] == pl.capacity(pot, 0.0)
    for t, row in zip(table["t"].tolist(), _rows(table)):
        single = functionals.level_table(pot, [t])
        assert set(single) == set(table)
        assert _rows(single) == [row]
        assert single["cap_0"] == table["cap_0"]
        assert row["cap"] == pl.capacity(pot, t)
        assert row["cap_ratio_to_exp_t"] == row["cap"] / (table["cap_0"] * math.exp(t))
        area, wp = row["area"], row["grad_w"]
        constant = (1.0 / (4.0 * math.pi)) * 1.5 ** (1.0 - 1.5)  # p = m = 3 - p = 1.5
        assert row["holder_rhs"] == constant * (wp * wp * area) ** 0.5 * (area / wp) ** 0.5
        assert row["holder_gap"] == row["holder_rhs"] - row["cap"]


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
