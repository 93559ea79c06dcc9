"""Threshold algebra, the decay dichotomy ODE, ordering, and the full scenario.

Frozen closed forms used as oracles:
  * threshold(3/2, 2): f(p) = 8/7, exponents (10/3, 2), contradiction possible.
  * contradiction_possible is algebraically equivalent to alpha > 4/(5-p).
  * dichotomy constant 8 pi eps/(2+2eps) equals pi exactly at eps = 1/3.
  * linear-branch crossing time (m/(2 eps)) log((4pi - Fd)/(4pi - F0)).
  * the comparison ODE integrated independently by DOP853 (conftest).
  * ordering proportionality dG/dt = (G-F)/(p-1), audited constant 1/(3-p)^2.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinchlab as pl

from conftest import count_level_queries, integrate_dichotomy, sampled_envelope

FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def test_threshold_explicit_example():
    rep = pl.threshold(1.5, 2.0)
    assert rep.f_p == pytest.approx(8.0 / 7.0, abs=1e-15)
    assert rep.lhs_exponent == pytest.approx(10.0 / 3.0, abs=1e-14)
    assert rep.rhs_exponent == 2.0
    assert rep.contradiction_possible


def test_threshold_subcritical_growth():
    rep = pl.threshold(1.5, 1.1)
    assert not rep.contradiction_possible
    assert rep.rhs_exponent > rep.lhs_exponent


def test_threshold_unsolvable_exterior_problem():
    # alpha <= p - 1: no decaying potential at all; encoded as rhs = +inf.
    rep = pl.threshold(1.8, 0.5)
    assert math.isinf(rep.rhs_exponent)
    assert not rep.contradiction_possible


def test_threshold_alpha_validation():
    with pytest.raises(pl.DomainError):
        pl.threshold(1.5, 0.0)
    with pytest.raises(pl.DomainError):
        pl.threshold(1.5, 2.5)


def test_pinching_threshold_endpoint():
    assert abs(pl.pinching_threshold(2.0) - 4.0 / 3.0) < 1e-12
    with pytest.raises(pl.DomainError):
        pl.pinching_threshold(1.0)
    with pytest.raises(pl.DomainError):
        pl.pinching_threshold(2.1)


def test_pinching_threshold_monotone():
    ps = np.linspace(1.01, 2.0, 50)
    vals = [pl.pinching_threshold(p) for p in ps]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[0] > 1.0  # tends to 1 from above as p -> 1


def test_threshold_equivalence_ten_thousand_pairs():
    # The exponent comparison must reproduce alpha > 4/(5-p) exactly.
    rng = np.random.default_rng(20260819)
    ps = 1.0 + 0.001 + rng.random(10_000) * 0.998
    alphas = 0.001 + rng.random(10_000) * 1.999
    mismatches = sum(
        pl.threshold(p, a).contradiction_possible != (a > 4.0 / (5.0 - p))
        for p, a in zip(ps, alphas)
    )
    assert mismatches == 0


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(min_value=1.001, max_value=1.999),
    alpha=st.floats(min_value=0.001, max_value=2.0),
)
def test_threshold_equivalence_property(p, alpha):
    rep = pl.threshold(p, alpha)
    boundary = 4.0 / (5.0 - p)
    if abs(alpha - boundary) > 1e-9:  # stay off the float knife edge
        assert rep.contradiction_possible == (alpha > boundary)


def test_select_p_examples():
    assert pl.select_p(2.0, 0.5).value == 1.5
    assert abs(pl.select_p(1.2, 0.1).value - 1.6) < 1e-12
    with pytest.raises(pl.DomainError, match="alpha > 1"):
        pl.select_p(1.0, 0.5)
    with pytest.raises(pl.DomainError):
        pl.select_p(2.0, 0.0)
    with pytest.raises(pl.DomainError):
        pl.select_p(2.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    alpha=st.floats(min_value=1.01, max_value=2.0),
    margin=st.floats(min_value=0.01, max_value=0.99),
)
def test_select_p_is_always_admissible(alpha, margin):
    p = pl.select_p(alpha, margin)
    assert 1.0 < p.value < 2.0
    assert pl.threshold(p, min(alpha, 2.0)).contradiction_possible


# ---------------------------------------------------------------------------
# decay dichotomy
# ---------------------------------------------------------------------------


def test_dichotomy_constant_is_pi_at_extremal_eps():
    traj = pl.decay_dichotomy(1.5, 1.0 / 3.0, 2.0 * math.pi)
    assert abs(traj.dichotomy_constant - math.pi) < 1e-12


def test_dichotomy_crossing_matches_closed_form():
    eps, f0 = 0.1, 3.9 * math.pi
    traj = pl.decay_dichotomy(1.5, eps, f0, horizon=40.0)
    assert traj.branch == "decay"
    m = 1.5
    fd = traj.dichotomy_constant
    closed = (m / (2.0 * eps)) * math.log((FOUR_PI - fd) / (FOUR_PI - f0))
    assert abs(traj.crossing_time_linear - closed) < 1e-15
    # the closed-form envelope and crossing against an independent DOP853
    # integration of the comparison ODE, over a grid of exponents and data
    for p in (1.1, 1.37, 1.5, 1.9):
        for eps in (0.02, 0.1, 1.0 / 3.0):
            for f0 in (math.pi / 2.0, 2.0 * math.pi, 3.5 * math.pi, 3.9 * math.pi):
                traj = pl.decay_dichotomy(p, eps, f0, horizon=40.0)
                times, envelope = sampled_envelope(traj, 40.0)
                env, crossing = integrate_dichotomy(p, eps, f0, times[::50])
                assert np.max(np.abs(envelope[::50] - env)) <= 1e-10 * f0, (p, eps, f0)
                assert (crossing is None) == (traj.crossing_time is None), (p, eps, f0)
                if crossing is not None:
                    assert abs(traj.crossing_time - crossing) <= 1e-10, (p, eps, f0)


def test_dichotomy_starts_below_constant():
    traj = pl.decay_dichotomy(1.5, 1.0 / 3.0, math.pi / 2.0)
    assert traj.branch == "decay"
    assert traj.crossing_time == 0.0
    assert traj.crossing_time_linear == 0.0


def test_dichotomy_stuck_within_short_horizon():
    # Tiny eps: the linear branch is slow, the crossing lies far beyond the
    # horizon; the trajectory must say so instead of extrapolating.
    traj = pl.decay_dichotomy(1.5, 0.01, 3.9 * math.pi, horizon=20.0)
    assert traj.branch == "stuck"
    assert traj.crossing_time is None
    assert traj.crossing_time_linear > 20.0


@pytest.mark.parametrize(
    "F0, horizon, where",
    [(3.9 * math.pi, 600.0, "horizon t = 600"), (FOUR_PI - 5.64, 700.0, "crossing time t = 600.1")],
    ids=["stuck", "decay"],
)
def test_dichotomy_constant_past_the_float_range_is_refused(F0, horizon, where):
    # 2t/(3-p) = 800 at the horizon (stuck branch) or at the crossing (decay
    # branch): e^800 is not a float, so K cannot be reported
    with pytest.raises(pl.DomainError, match=f"float range at the {where}"):
        pl.decay_dichotomy(1.5, 0.001, F0, horizon=horizon)


def test_dichotomy_envelope_bound():
    traj = pl.decay_dichotomy(1.5, 0.2, 3.5 * math.pi, horizon=30.0)
    times, envelope = sampled_envelope(traj, 30.0)
    assert np.all(np.diff(envelope) <= 0.0)
    m = 1.5
    tail = times >= traj.crossing_time
    bound = traj.K * np.exp(-2.0 * times[tail] / m)
    assert np.all(envelope[tail] <= bound * (1.0 + 1e-9))


@pytest.mark.parametrize(
    "p, eps, F0, horizon",
    [(1.5, 0.01, 3.9 * math.pi, 20.0), (1.5, 0.2, 3.5 * math.pi, 30.0),
     (1.37, 1.0 / 3.0, math.pi / 2.0, 20.0), (1.9, 0.02, 2.0 * math.pi, 40.0)],
    ids=["stuck", "decay", "below", "late"],
)
def test_scenario_reads_the_crossing_without_the_samples(p, eps, F0, horizon):
    # K, read at the crossing (or at the rounded horizon when stuck), is the
    # largest F e^(2t/m) over the envelope sampled every ODE_STEP
    traj = pl.decay_dichotomy(p, eps, F0, horizon=horizon)
    times, envelope = sampled_envelope(traj, horizon)
    assert (traj.crossing_time is None) == (traj.crossing_time_linear > times[-1])
    largest = float(np.max(envelope * np.exp(2.0 * times / (3.0 - p))))
    assert abs(largest / traj.K - 1.0) <= 1e-12


def test_dichotomy_input_validation():
    with pytest.raises(pl.DomainError, match="Willmore"):
        pl.decay_dichotomy(1.5, 0.1, FOUR_PI)
    with pytest.raises(pl.DomainError):
        pl.decay_dichotomy(1.5, 0.1, 0.0)
    with pytest.raises(pl.DomainError):
        pl.decay_dichotomy(1.5, 0.5, math.pi)  # eps beyond 1/3
    # a horizon must be finite and above one step: NaN and inf once escaped as
    # ValueError and OverflowError
    for horizon in (0.0, float("nan"), float("inf")):
        with pytest.raises(pl.DomainError, match="need step < horizon < inf"):
            pl.decay_dichotomy(1.5, 0.1, math.pi, horizon=horizon)


# ---------------------------------------------------------------------------
# ordering of G below F
# ---------------------------------------------------------------------------


def test_ordering_power_warp(solved):
    pot = solved("power_warp", 1.5)
    rep = pl.ordering_check(pot, pl.functionals.level_table(pot, np.linspace(0.5, 6.0, 16)))
    assert rep.ordering_ok
    assert all(0.0 <= g <= f for f, g in zip(rep.F_values, rep.G_values))
    assert abs(rep.proportionality_constant - 4.0 / 9.0) < 1e-6
    assert rep.proportionality_expected == 4.0 / 9.0
    assert rep.proportionality_max_dev < 1e-6
    assert rep.tail_F > rep.tail_G > 0.0


def test_ordering_flat_degenerate(solved):
    # G == F identically: every proportionality sample is skipped and the
    # fitted constant is NaN by construction, but the ordering still holds.
    pot = solved("flat", 1.5)
    rep = pl.ordering_check(pot, pl.functionals.level_table(pot, [0.5, 1.0, 2.0]))
    assert rep.ordering_ok
    assert math.isnan(rep.proportionality_constant)
    assert rep.proportionality_max_dev == 0.0


@pytest.mark.parametrize("tol, ok", [(1e-9, False), (1e-7, True)])
def test_ordering_honours_its_tolerance(solved, tol, ok):
    # G above F by 1e-8 relative: outside a 1e-9 slack, inside a 1e-7 one.  The
    # report and the monotone scenario's ordering verdict share this predicate
    pot = solved("power_warp", 1.5)
    levels = np.linspace(0.5, 6.0, 16)
    F = np.linspace(12.0, 8.0, 16)
    G = F * (1.0 + 1e-8)
    rep = pl.ordering_check(pot, {"t": levels, "F": F, "G": G, "dG_fd": G - F}, tol)
    assert rep.ordering_ok is ok
    assert pl.rigidity._ordered(F, G, tol) is ok


def test_ordering_level_validation(solved):
    pot = solved("flat", 1.5)
    with pytest.raises(pl.DomainError, match="at least one level"):
        pl.ordering_check(pot, pl.functionals.level_table(pot, []))
    with pytest.raises(pl.DomainError, match="level range violation"):
        pl.ordering_check(pot, pl.functionals.level_table(pot, [pot.t_max + 1.0]))


# ---------------------------------------------------------------------------
# the contradiction scenario
# ---------------------------------------------------------------------------

GATE_LABELS = {"initial-willmore-deficit", "pinching", "superquadratic-growth"}


@pytest.fixture(scope="module")
def scenario_reports():
    return {
        name: pl.run_contradiction_scenario(model, 1.5)
        for name, model in pl.potential_library().items()
    }


def test_scenario_always_names_a_hypothesis(scenario_reports):
    for name, report in scenario_reports.items():
        assert report.failed_hypothesis in GATE_LABELS, name
        for v in report.verdicts:
            assert v.status in ("pass", "fail", "not-applicable")
            assert v.reason


def test_scenario_flat_fails_willmore_gate(scenario_reports):
    report = scenario_reports["flat"]
    assert report.failed_hypothesis == "initial-willmore-deficit"
    assert report.verdict("initial-willmore-gate").status == "fail"
    # flat has genuinely nonnegative (zero) Ricci: pinching gate passes
    assert report.verdict("ricci-pinching-gate").status == "pass"
    assert report.constants["eps_used"] == pytest.approx(1.0 / 3.0)


def test_scenario_cone_and_power_warp_fail_pinching(scenario_reports):
    for name in ("cone_0.8", "power_warp_1.5"):
        report = scenario_reports[name]
        assert report.failed_hypothesis == "pinching", name
        assert report.verdict("ricci-pinching-gate").status == "fail"
        assert report.verdict("initial-willmore-gate").status == "pass"


def test_scenario_no_numerical_contradiction(scenario_reports):
    # The theorem is consistent: the volume bounds can never actually cross.
    for name, report in scenario_reports.items():
        v = report.verdict("volume-growth-consistency")
        assert v.status == "pass", (name, v.reason)
        assert report.constants["slab_lower_bound"] <= report.constants["slab_upper_bound"] * (
            1.0 + 1e-9
        )


def test_scenario_slab_gap_and_exact_constants(scenario_reports):
    reason = scenario_reports["power_warp_1.5"].verdict("slab-volume-consistency").reason
    gap = float(re.search(r"relative gap ([-+.e0-9]+)", reason).group(1))
    assert gap <= 1e-13, reason
    for name, report in scenario_reports.items():
        assert report.constants["c_F"] == 1.0, name
        assert report.constants["c_G"] == 1.0 / 1.5**2, name


def test_scenario_capacity_and_holder_always_verify(scenario_reports):
    for name, report in scenario_reports.items():
        assert report.verdict("capacity-law").status == "pass", name
        assert report.verdict("holder-chain").status == "pass", name
        assert report.constants["capacity_law_deviation"] <= 1e-6


def test_scenario_decay_diagnostics_conditional(scenario_reports):
    # With a failed gate the decay rate is reported, not enforced.
    for name in ("flat", "cone_0.8", "power_warp_1.5"):
        v = scenario_reports[name].verdict("pinched-decay-rate")
        assert v.status == "not-applicable", name
    slope_pw = scenario_reports["power_warp_1.5"].constants["decay_slope_measured"]
    assert abs(slope_pw - (-0.5)) < 0.02
    slope_flat = scenario_reports["flat"].constants["decay_slope_measured"]
    assert abs(slope_flat) < 0.02


def test_scenario_eps_floor(scenario_reports):
    # The cone's measured margin is exactly 0; the scenario substitutes the
    # documented hypothetical floor instead of a degenerate eps.
    assert scenario_reports["cone_0.8"].constants["eps_used"] == pytest.approx(1e-3)


def test_scenario_rows_follow_schema(scenario_reports):
    for report in scenario_reports.values():
        assert report.columns == pl.ROW_COLUMNS
        assert len(report.rows) == 64
        for row in (report.rows[0], report.rows[-1]):
            assert set(row) == set(pl.ROW_COLUMNS)


def test_scenario_boundary_cone_run():
    report = pl.run_contradiction_scenario(pl.cone_model(0.8), 1.5, {"r0": 1e-4})
    assert report.failed_hypothesis == "pinching"
    assert report.verdict("volume-growth-consistency").status == "pass"


def test_scenario_slab_check_on_a_neck():
    # h dips to ~28 near r = 700, so at p = 1.1 w is nearly flat in r over
    # hundreds of units: level inversion meets its rounding floor there, and
    # r(t) is too steep for equal steps in t
    knots = [0, 1, 2, 4, 8, 16, 100, 1000]
    values = [0, 1, 1.8, 3.0, 5.0, 9.0, 40.0, 300.0]
    model = pl.ManifoldModel(pl.geometry.spline_warp(knots, values), 0.0, 1000.0)
    report = pl.run_contradiction_scenario(model, 1.1)
    assert report.verdict("slab-volume-consistency").status == "pass"
    assert report.failed_hypothesis == "pinching"


def test_scenario_flat_dichotomy_status_does_not_depend_on_p():
    # flat space has F = 4 pi exactly: the comparison ODE hypothesis F < 4 pi
    # must not switch on and off with the last bit of F as p varies
    statuses = {
        p: pl.run_contradiction_scenario(pl.flat_model(), p, {"n_levels": 16})
        .verdict("decay-dichotomy")
        .status
        for p in (1.1, 1.2, 1.37, 1.5, 1.75, 1.9)
    }
    assert set(statuses.values()) == {"not-applicable"}, statuses


@pytest.mark.parametrize("name", ["flat", "cone_0.8", "power_warp_1.5", "positive_cap_1"])
def test_scenario_inverts_and_sums_volumes_in_two_calls_each(name, monkeypatch):
    # the slab's end levels t0, t1 join the level table's batch, and the K_vol
    # fit and the slab's two balls share one ball_volume call; R_T1, K_vol, the
    # slab integral and the direct volume keep the bits of the scalar calls
    from pinchlab import geometry, potential, rigidity

    model = pl.library()[name]
    volume_calls, pots, slab_cells = [], [], []
    ball_volume = geometry.ball_volume
    solve, cell_integrals = rigidity.solve_radial, rigidity.cell_integrals

    def recording_ball_volume(model, r):
        volume_calls.append((np.array(r, dtype=float), ball_volume(model, r)))
        return volume_calls[-1][1]

    def recording_solve(*args, **kwargs):
        pots.append(solve(*args, **kwargs))
        return pots[-1]

    def recording_cells(f, edges):
        slab_cells.append(cell_integrals(f, edges))
        return slab_cells[-1]

    inversions = count_level_queries(monkeypatch)
    monkeypatch.setattr(geometry, "ball_volume", recording_ball_volume)
    monkeypatch.setattr(rigidity, "solve_radial", recording_solve)
    monkeypatch.setattr(rigidity, "cell_integrals", recording_cells)
    report = pl.run_contradiction_scenario(model, 1.5, {"n_levels": 64})
    monkeypatch.undo()

    assert inversions == [1 + 5 * 64 + 2, 12 * rigidity.SLAB_CELLS]
    assert [radii.size for radii, _ in volume_calls] == [geometry.GROWTH_SAMPLES, 16 + 2]
    pot, t_hi = pots[0], report.rows[-1]["t"]
    t0, t1 = 0.2 * t_hi, 0.8 * t_hi
    r_t0, r_t1 = pl.radius_of_level(pot, t0), pl.radius_of_level(pot, t1)
    assert report.constants["R_T1"] == r_t1

    growth_radii = volume_calls[0][0]
    fit = np.geomspace(growth_radii[0], max(growth_radii[-1], r_t1), 16)
    alpha = min(max(report.constants["alpha_hat"], 1e-6), 2.0)
    k_vol = float(np.max(pl.ball_volume(model, fit) / fit ** (1.0 + alpha)))
    assert report.constants["K_vol"] == k_vol
    direct = pl.ball_volume(model, r_t1) - pl.ball_volume(model, r_t0)
    volumes = volume_calls[1][1]
    assert float(volumes[-1] - volumes[-2]) == direct

    def coarea_at(t):
        level = pl.functionals._level(pot, t)
        return level.geo.area / level.wp

    radii = np.geomspace(r_t0, r_t1, rigidity.SLAB_CELLS + 1)[1:-1]
    edges = np.concatenate([[t0], potential._level_at(pot, radii), [t1]])
    integral = float(np.sum(cell_integrals(coarea_at, edges)))
    assert float(np.sum(slab_cells[0])) == integral
    assert report.verdict("slab-volume-consistency").reason.startswith(
        f"coarea integral {integral:.12g} vs direct volume difference {direct:.12g} "
    )


@pytest.mark.parametrize("name", ["flat", "positive_cap_1"])
def test_the_slab_integrand_reads_the_level_query_and_h_alone(name, monkeypatch):
    # the coarea slab's Gauss levels take r, I and h^(-q) from the level
    # query and h from warp.h: only the level table's batch goes through
    # functionals._level, which builds the geometry, F, G and derivatives
    from pinchlab import functionals, rigidity

    sizes, level = [], functionals._level

    def recording_level(pot, t):
        sizes.append(int(np.size(t)))
        return level(pot, t)

    inversions = count_level_queries(monkeypatch)
    monkeypatch.setattr(functionals, "_level", recording_level)
    pl.run_contradiction_scenario(pl.library()[name], 1.5, {"n_levels": 64})
    monkeypatch.undo()
    assert sizes == [1 + 5 * 64 + 2]
    assert inversions == [1 + 5 * 64 + 2, 12 * rigidity.SLAB_CELLS]


def test_a_cell_flux_contradict_reads_one_panel_per_inverted_level(monkeypatch):
    # at 4096 nodes the Hermite start of every level between two nodes is
    # converged: each such level reads one 12-point panel of h^(-q) through
    # _CellFlux.flux, and _level takes I and h^(-q) from the level query, never
    # from flux_integral_at; only the slab's cell edges read that
    from pinchlab import functionals, potential, rigidity

    radii, inverted, reads, inside_level = [], [], [], []
    flux, levels = potential._CellFlux.flux, potential._CellFlux.levels
    flux_integral_at, level = potential.RadialPotential.flux_integral_at, functionals._level

    def counting_flux(law, r, j=None):
        radii.append(np.size(r))
        return flux(law, r, j)

    def counting_levels(law, pot, t):
        j = np.searchsorted(pot.w, t, side="left")
        inverted.append(int(np.count_nonzero((j > 0) & (pot.w[j] != t))))
        return levels(law, pot, t)

    def recording_flux_integral_at(pot, r):
        reads.append((bool(inside_level), np.size(r)))
        return flux_integral_at(pot, r)

    def flagged_level(pot, t):
        inside_level.append(True)
        try:
            return level(pot, t)
        finally:
            inside_level.pop()

    monkeypatch.setattr(potential._CellFlux, "flux", counting_flux)
    monkeypatch.setattr(potential._CellFlux, "levels", counting_levels)
    monkeypatch.setattr(potential.RadialPotential, "flux_integral_at", recording_flux_integral_at)
    monkeypatch.setattr(functionals, "_level", flagged_level)
    model = pl.library()["positive_cap_1"]
    pl.run_contradiction_scenario(model, 1.5, {"n_levels": 64, "n_grid": 4096})
    monkeypatch.undo()

    edges = rigidity.SLAB_CELLS - 1
    assert len(inverted) == 2 and sum(inverted) > 12 * rigidity.SLAB_CELLS
    assert reads == [(False, edges)]
    assert sum(radii) == sum(inverted) + edges


@pytest.mark.parametrize("option", ["bogus", "dt", "eps_threshold", "ode_step", "ode_horizon"])
def test_scenario_option_validation(option):
    with pytest.raises(pl.DomainError, match="unknown scenario options"):
        pl.run_contradiction_scenario(pl.flat_model(), 1.5, {option: 1})


def test_scenario_stage_labels_errors():
    with pytest.raises(pl.DomainError, match="stage 'solve'"):
        pl.run_contradiction_scenario(pl.cone_model(0.8), 1.5, {"r0": 1e-5})
    # sizes are refused, not rounded: 300.7 nodes and 8.9 levels would run
    # on 300 and 8, and a NaN escaped as a ConvergenceError from int()
    for bad in (300.7, float("nan")):
        with pytest.raises(pl.DomainError, match="stage 'solve': n_grid must be an integer"):
            pl.run_contradiction_scenario(pl.flat_model(), 1.5, {"n_grid": bad})
    for bad in (8.9, float("nan")):
        with pytest.raises(pl.DomainError, match="stage 'level-sampling': n_levels must be an integer"):
            pl.run_contradiction_scenario(pl.flat_model(), 1.5, {"n_levels": bad})
