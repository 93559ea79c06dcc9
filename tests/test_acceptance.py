"""Acceptance gate: ten binding criteria, one printed pass/fail line each.

Every criterion is a self-contained measurement against a pinned tolerance;
the printed line carries the measured number so a red line is directly
actionable.  Run with ``pytest tests/test_acceptance.py -v`` (output capture
is disabled project-wide so the lines always show).
"""

import math
import time

import numpy as np

import pinchlab as pl
from pinchlab import functionals

from conftest import _solve, audit_constants, integrate_dichotomy, sampled_envelope

FOUR_PI = 4.0 * math.pi
EIGHT_PI = 8.0 * math.pi
P_GRID = (1.2, 1.5, 1.8)
NONCOMPACT = ("flat", "cone", "power_warp")


def _verdict(num: int, label: str, ok: bool, detail: str):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_flat_exactness():
    start = time.perf_counter()
    worst_fg = worst_u = 0.0
    for p in P_GRID:
        pot = pl.solve_radial(pl.flat_model(), p, 1.0)  # deliberately uncached: timed
        m = 3.0 - p
        worst_u = max(worst_u, float(np.max(np.abs(pot.suffix / pot.normalizer * pot.grid ** (m / (p - 1.0)) - 1.0))))
        table = functionals.level_table(pot, np.linspace(1e-3, pot.t_max - 1e-3, 64))
        worst_fg = max(
            worst_fg,
            float(np.max(np.abs(table["F"] - FOUR_PI))),
            float(np.max(np.abs(table["G"] - FOUR_PI))),
        )
    elapsed = time.perf_counter() - start
    ok = worst_fg <= 1e-8 and worst_u <= 1e-8 and elapsed < 1.0
    _verdict(
        1,
        "flat-space exactness",
        ok,
        f"max |F-4pi|,|G-4pi| = {worst_fg:.3e} (tol 1e-8), max potential error = "
        f"{worst_u:.3e} (tol 1e-8), elapsed {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_capacity_law():
    worst = 0.0
    for name in NONCOMPACT:
        # the power-law warp needs a deeper truncation to reach level t = 10
        pot = _solve(name, 1.5, r_max=1e5) if name == "power_warp" else _solve(name, 1.5)
        cap0 = pl.capacity(pot, 0.0)
        for t in np.linspace(0.0, 10.0, 41):
            worst = max(worst, abs(pl.capacity(pot, float(t)) / (cap0 * math.exp(t)) - 1.0))
    flat_cap0_err = abs(pl.capacity(_solve("flat", 1.5), 0.0) - 1.0)
    ok = worst <= 1e-6 and flat_cap0_err <= 1e-8
    _verdict(
        2,
        "exponential capacity law",
        ok,
        f"max |cap(t)/(cap(0) e^t) - 1| = {worst:.3e} over t in [0,10] x 3 models (tol 1e-6); "
        f"flat cap(0) error {flat_cap0_err:.3e} (tol 1e-8)",
    )


def test_criterion_3_variational_agreement():
    factories = {"flat": pl.flat_model, "cone": pl.cone_model, "power_warp": pl.power_warp_model}
    details, ok = [], True
    for name in NONCOMPACT:
        start = time.perf_counter()
        reference = pl.capacity(_solve(name, 1.5), 0.0)
        errs = []
        for n in (2048, 4096, 8192):
            prob = pl.discretize(factories[name](), 1.5, 1.0, n, 1e3)
            sol = pl.minimize_energy(prob, initial=pl.constant_flux_profile(prob))
            errs.append(abs(pl.capacity_from_energy(sol) / reference - 1.0))
        elapsed = time.perf_counter() - start
        ratios = [b / a for a, b in zip(errs, errs[1:])]
        ok_model = (
            errs[0] <= 5e-3 and errs[2] <= 5e-4 and all(r <= 0.6 for r in ratios) and elapsed < 10.0
        )
        ok = ok and ok_model
        details.append(
            f"{name}: err(2048) = {errs[0]:.2e}, err(8192) = {errs[2]:.2e}, "
            f"ratios {ratios[0]:.2f}/{ratios[1]:.2f}, {elapsed:.1f}s"
        )
    _verdict(
        3,
        "variational cross-check",
        ok,
        "; ".join(details) + " (tols 5e-3 / 5e-4 / ratio 0.6 / 10s per model)",
    )


def test_criterion_4_monotonicity():
    worst = -math.inf
    for name in NONCOMPACT:
        for p in P_GRID:
            pot = _solve(name, p)
            table = functionals.level_table(pot, functionals._table_levels(pot, 64))
            F, G = table["F"].tolist(), table["G"].tolist()
            for i in range(len(F) - 1):
                tol_f = 1e-9 * (1.0 + abs(F[i]))
                worst = max(worst, (F[i + 1] - F[i]) / tol_f, (G[i + 1] - G[i]) / tol_f)
    ok = worst <= 1.0
    _verdict(
        4,
        "monotone decay of F and G",
        ok,
        f"max normalized increment = {worst:.3e} over 9 runs x 64 levels "
        f"(<= 1 means every increment within 1e-9 (1+|F|))",
    )


def test_criterion_5_derivative_audit():
    ok = True
    details = []
    for p in P_GRID:
        aud = audit_constants(p)
        m = 3.0 - p
        deriv_ok = (
            abs(aud.c_F - 1.0) <= 1e-4
            and abs(aud.c_G * m * m - 1.0) <= 1e-4
            and aud.c_F_spread <= 1e-4
            and aud.c_G_spread <= 1e-4
        )
        div_ok = aud.div_x_mismatch <= 1e-5 and aud.div_y_mismatch <= 1e-5
        documented = aud.div_x_inhomogeneous_mismatch > 1e-2 and any(
            "rejected" in n for n in aud.notes
        )
        ok = ok and deriv_ok and div_ok and documented
        details.append(
            f"p={p}: |c_F-1| = {abs(aud.c_F - 1.0):.1e}, |c_G (3-p)^2 - 1| = "
            f"{abs(aud.c_G * m * m - 1.0):.1e}, div mismatches {aud.div_x_mismatch:.1e}/"
            f"{aud.div_y_mismatch:.1e}, rejected variant off by {aud.div_x_inhomogeneous_mismatch:.1f}"
        )
    _verdict(
        5,
        "derivative and divergence audit",
        ok,
        "; ".join(details) + " (tols 1e-4 / 1e-5; discrepancy documented)",
    )


def test_criterion_6_identity_suite():
    rng = np.random.default_rng(20260819)
    worst_gauss = worst_umb = worst_gb = 0.0
    for model in pl.library().values():
        lo = model.r_min if model.r_min > 0.0 else 1e-6 * model.r_max
        radii = np.exp(rng.uniform(np.log(lo), np.log(model.r_max), 100))
        for r in radii:
            geo = pl.levelset_geometry(model, float(r))
            worst_gauss = max(worst_gauss, abs(pl.gauss_identity_residual(model, float(r))))
            worst_umb = max(worst_umb, abs(geo.traceless_sff_norm_sq))
            worst_gb = max(worst_gb, abs(geo.sc_tangential * geo.area - EIGHT_PI))
    ok = worst_gauss < 1e-10 and worst_umb <= 1e-12 and worst_gb <= 1e-8
    _verdict(
        6,
        "curvature identity suite",
        ok,
        f"5 models x 100 random radii: gauss residual {worst_gauss:.3e} (tol 1e-10), "
        f"umbilicity {worst_umb:.3e} (tol 1e-12), total curvature vs 8 pi {worst_gb:.3e} (tol 1e-8)",
    )


def test_criterion_7_threshold_equivalence():
    rng = np.random.default_rng(123456789)
    ps = 1.0 + 0.001 + rng.random(10_000) * 0.998
    alphas = 0.001 + rng.random(10_000) * 1.999
    mismatches = sum(
        pl.threshold(p, a).contradiction_possible != (a > 4.0 / (5.0 - p))
        for p, a in zip(ps, alphas)
    )
    endpoint_err = abs(pl.pinching_threshold(2.0) - 4.0 / 3.0)
    ok = mismatches == 0 and endpoint_err <= 1e-12
    _verdict(
        7,
        "growth threshold",
        ok,
        f"{mismatches} mismatches out of 10000 random (p, alpha) pairs vs alpha > 4/(5-p); "
        f"endpoint |f(2) - 4/3| = {endpoint_err:.1e} (tol 1e-12)",
    )


def test_criterion_8_decay_dichotomy():
    eps, f0 = 0.1, 3.9 * math.pi
    traj = pl.decay_dichotomy(1.5, eps, f0, horizon=40.0)
    times, envelope = sampled_envelope(traj, 40.0)
    env, crossing = integrate_dichotomy(1.5, eps, f0, times)
    crossing_err = abs(traj.crossing_time - crossing)
    env_err = float(np.max(np.abs(envelope - env))) / f0
    const_err = abs(pl.decay_dichotomy(1.5, 1.0 / 3.0, math.pi).dichotomy_constant - math.pi)
    ok = traj.branch == "decay" and max(crossing_err, env_err) <= 1e-6 and const_err <= 1e-12
    _verdict(
        8,
        "decay dichotomy",
        ok,
        f"DOP853-integrated vs closed-form crossing time differ by {crossing_err:.3e}, "
        f"envelopes by {env_err:.3e} relative (tol 1e-6); "
        f"dichotomy constant at eps = 1/3 off pi by {const_err:.1e} (tol 1e-12)",
    )


def test_criterion_9_small_sphere_expansion():
    cap = pl.small_sphere_expansion(pl.positive_cap_model(1.0))
    spl = pl.small_sphere_expansion(pl.spline_cap_model(0.5))
    flat = pl.small_sphere_expansion(pl.flat_model())
    ok = (
        cap.relative_deviation <= 0.02
        and spl.relative_deviation <= 0.02
        and abs(flat.coefficient) <= 1e-8
    )
    _verdict(
        9,
        "small-sphere Willmore expansion",
        ok,
        f"relative deviation {cap.relative_deviation:.2e} (positive_cap), "
        f"{spl.relative_deviation:.2e} (spline_cap) vs tol 2e-2; "
        f"flat coefficient {abs(flat.coefficient):.1e} (tol 1e-8)",
    )


def test_criterion_10_contradiction_scenario():
    expected = {"flat": "initial-willmore-deficit", "cone_0.8": "pinching", "power_warp_1.5": "pinching"}
    results = {}
    consistent = True
    for name, model in pl.potential_library().items():
        report = pl.run_contradiction_scenario(model, 1.5)
        results[name] = report.failed_hypothesis
        consistent = consistent and report.verdict("volume-growth-consistency").status == "pass"
        consistent = consistent and all(v.reason for v in report.verdicts)
    boundary = pl.run_contradiction_scenario(pl.cone_model(0.8), 1.5, {"r0": 1e-4})
    consistent = consistent and boundary.verdict("volume-growth-consistency").status == "pass"
    ok = results == expected and boundary.failed_hypothesis == "pinching" and consistent
    _verdict(
        10,
        "scenario names the broken hypothesis",
        ok,
        f"{results} + boundary cone -> {boundary.failed_hypothesis}; "
        f"volume consistency never fails: {consistent}",
    )
