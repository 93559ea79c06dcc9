"""Proof-level machinery: exponent thresholds, the decay dichotomy, and the
end-to-end contradiction scenario.

The rigidity argument this laboratory shadows runs: on a Ricci-pinched model
with boundary Willmore energy below 16 pi and volume growth r^(1+alpha) with
alpha in (1, 2], the monotone quantity F decays like e^(-2t/(3-p)), which
through the capacity law and the coarea formula forces sublevel-set volumes
to grow like e^((9-p)t/(3-p)^2) — eventually exceeding the K r^(1+alpha)
volume bound whenever alpha > 4/(5-p).  The contradiction proves no such
non-flat model exists.

:func:`run_contradiction_scenario` executes that chain numerically on a given
model and reports which hypothesis breaks (one always does — that is the
theorem).  The runner never asserts the rigidity conclusion itself; it
verifies the mechanics of each link, labels the first broken gate, and
judges the chain's consequences (``pinched-decay-rate``, ``decay-dichotomy``,
``coarea-envelope``) only when every gate passed.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

import numpy as np

from . import functionals, geometry
from .errors import ConvergenceError, DomainError, PinchLabError
from .numerics import cell_integrals, geometric_grid, line_fit
from .potential import (
    PExponent,
    RadialPotential,
    _level_at,
    as_p,
    solve_radial,
)
from .report import (
    DEFAULT_TOLERANCES,
    SCENARIO_DEFAULTS,
    ScenarioReport,
    StageVerdict,
    table_rows,
)

__all__ = [
    "ThresholdReport",
    "DichotomyTrajectory",
    "OrderingReport",
    "pinching_threshold",
    "threshold",
    "select_p",
    "decay_dichotomy",
    "ordering_check",
    "run_contradiction_scenario",
]

FOUR_PI = 4.0 * math.pi
ODE_STEP = 1e-3  # the horizon is rounded up to whole steps of this size; nothing is sampled
ODE_HORIZON = 20.0  # default horizon of the comparison ODE
SLAB_CELLS = 128  # cells of the level partition the coarea slab integral uses


# ---------------------------------------------------------------------------
# threshold algebra
# ---------------------------------------------------------------------------


class ThresholdReport(NamedTuple):
    """Growth-exponent bookkeeping of the volume-vs-capacity contradiction.

    ``lhs_exponent`` drives the coarea lower bound e^(lhs * t); the model's
    actual volume bound caps sublevel volumes by R_t^(1+alpha) with
    R_t ~ e^(t/(alpha+1-p)), i.e. growth e^(rhs * t).  A contradiction is
    possible exactly when lhs > rhs.  When alpha <= p - 1 the exterior
    problem itself is unsolvable (no decaying potential), recorded here as
    rhs_exponent = +inf so that contradiction_possible is uniformly
    lhs_exponent > rhs_exponent.
    """

    p: float
    alpha: float
    f_p: float
    lhs_exponent: float
    rhs_exponent: float
    contradiction_possible: bool


def pinching_threshold(p: float) -> float:
    """The critical growth exponent f(p) = 4/(5-p), defined up to p = 2.

    Strictly increasing in p, tending to 1 as p -> 1+; the endpoint value
    f(2) = 4/3 is the threshold of the harmonic (p = 2) argument that this
    machinery strengthens.
    """
    p = float(p)
    if not 1.0 < p <= 2.0:
        raise DomainError(f"threshold evaluator needs p in (1, 2], got {p}")
    return 4.0 / (5.0 - p)


def threshold(p, alpha: float) -> ThresholdReport:
    """Compare the contradiction exponents for exponent p and growth alpha."""
    p = as_p(p)
    alpha = float(alpha)
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"volume growth exponent alpha must lie in (0, 2], got {alpha}")
    pv = p.value
    m = 3.0 - pv
    lhs = (9.0 - pv) / (m * m)
    gamma = alpha + 1.0 - pv  # radius growth rate: R_t ~ e^(t/gamma)
    rhs = (1.0 + alpha) / gamma if gamma > 0.0 else math.inf
    return ThresholdReport(
        p=pv,
        alpha=alpha,
        f_p=pinching_threshold(pv),
        lhs_exponent=lhs,
        rhs_exponent=rhs,
        contradiction_possible=bool(lhs > rhs),
    )


def select_p(alpha: float, margin: float) -> PExponent:
    """Pick p in (1, 2) with alpha strictly above the threshold f(p).

    Walks the fraction (1 - margin) of the way from 1 to the largest
    admissible exponent min(2, 5 - 4/alpha); margin near 1 returns p near 1
    (safest), margin near 0 returns p near the critical value.
    """
    alpha = float(alpha)
    margin = float(margin)
    if alpha <= 1.0:
        raise DomainError(
            f"no admissible exponent: the contradiction needs volume growth alpha > 1, got {alpha}"
        )
    if not 0.0 < margin < 1.0:
        raise DomainError(f"margin must lie in (0, 1), got {margin}")
    p = as_p(1.0 + (1.0 - margin) * min(1.0, (5.0 - 4.0 / alpha) - 1.0))
    if not threshold(p, min(alpha, 2.0)).contradiction_possible:
        raise ConvergenceError(
            f"internal threshold check failed: alpha = {alpha} not above f({p.value}) "
            f"= {pinching_threshold(p.value)}"
        )
    return p


# ---------------------------------------------------------------------------
# decay dichotomy (comparison ODE)
# ---------------------------------------------------------------------------


class DichotomyTrajectory(NamedTuple):
    """The dichotomy data of F under the comparison ODE.

    The envelope solves F' = max(-2F/(3-p), -(eps/(3-p))(8 pi - 2F)): above
    the dichotomy constant 8 pi eps/(2+2eps) the linear branch governs, below
    it the pure exponential branch takes over.  From any F0 < 4 pi the linear
    branch crosses the constant in the finite closed-form time stored in
    ``crossing_time_linear``, so the 'stuck' branch is impossible given
    enough horizon; after the crossing the envelope equals K e^(-2t/(3-p)).
    The envelope is piecewise exponential in closed form and is not stored.
    """

    p: float
    eps: float
    F0: float
    dichotomy_constant: float
    branch: str  # "decay" | "stuck"
    crossing_time: float | None
    crossing_time_linear: float
    K: float


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not 0.0 < eps <= 1.0 / 3.0:
        raise DomainError(f"pinching constant must lie in (0, 1/3], got {eps}")
    return eps


def decay_dichotomy(
    p, eps: float, F0: float, *, horizon: float = ODE_HORIZON
) -> DichotomyTrajectory:
    """Solve the comparison ODE for F in closed form and locate the dichotomy crossing.

    Both branches of the right-hand side are linear in F and meet at the
    dichotomy constant f_d, so the envelope is piecewise exponential:
    4 pi - (4 pi - F0) e^(2 eps t/m) up to the crossing time T, then
    f_d e^(-2(t-T)/m), with m = 3-p (from F0 <= f_d, T = 0 and the envelope is
    F0 e^(-2t/m)).  The horizon, finite and above ODE_STEP, is rounded up to
    whole steps, and the branch is 'stuck' when T lies past it.  K is the
    largest F e^(2t/m) up to the rounded horizon: that grows along the linear
    branch and is constant after the crossing, so K is read at the crossing,
    or at the rounded horizon when the branch is stuck.  Nothing is sampled.
    A K past the float range raises DomainError.
    """
    p = as_p(p)
    eps = _check_eps(eps)
    F0 = float(F0)
    if not 0.0 < F0 < FOUR_PI:
        raise DomainError(
            f"initial value F0 = {F0} violates the boundary Willmore hypothesis: need 0 < F0 < 4 pi"
        )
    step = ODE_STEP
    horizon = float(horizon)
    if not step < horizon < math.inf:
        raise DomainError(f"need step < horizon < inf, got step = {step}, horizon = {horizon}")
    m = 3.0 - p.value
    f_d = 8.0 * math.pi * eps / (2.0 + 2.0 * eps)
    n_steps = int(math.ceil(horizon / step))
    # the horizon rounded up to whole steps
    last = np.array([n_steps * step])

    if F0 <= f_d:
        crossing_linear = 0.0
    else:
        crossing_linear = (m / (2.0 * eps)) * math.log((FOUR_PI - f_d) / (FOUR_PI - F0))
    crossing = crossing_linear if crossing_linear <= last[-1] else None
    traj = DichotomyTrajectory(
        p=p.value,
        eps=eps,
        F0=F0,
        dichotomy_constant=f_d,
        branch="decay" if crossing is not None else "stuck",
        crossing_time=crossing,
        crossing_time_linear=crossing_linear,
        K=math.nan,
    )
    try:
        with np.errstate(over="raise"):
            if crossing is not None:
                k_fit = float(min(F0, f_d) * np.exp(2.0 * crossing / m))
            else:
                k_fit = float(_envelope(traj, last)[-1] * np.exp(2.0 * last[-1] / m))
    except FloatingPointError:
        where, t_k = ("crossing time", crossing) if crossing is not None else ("horizon", last[-1])
        raise DomainError(
            f"K = F e^(2t/(3-p)) passes the float range at the {where} t = {t_k:.6g} "
            f"(p = {p.value}, eps = {eps})"
        ) from None
    return traj._replace(K=k_fit)


def _envelope(traj: DichotomyTrajectory, times: np.ndarray) -> np.ndarray:
    """The comparison envelope of ``traj`` at the given times."""
    m = 3.0 - traj.p
    F0, crossing_linear = traj.F0, traj.crossing_time_linear
    f_cross = min(F0, traj.dichotomy_constant)
    # both exponents are clamped to their own branch, so neither can overflow
    rate = 2.0 * traj.eps / m
    linear = F0 - (FOUR_PI - F0) * np.expm1(rate * np.minimum(times, crossing_linear))
    decay = f_cross * np.exp(-(2.0 / m) * np.maximum(times - crossing_linear, 0.0))
    return np.where(times < crossing_linear, linear, decay)


# ---------------------------------------------------------------------------
# ordering of G below F
# ---------------------------------------------------------------------------


class OrderingReport(NamedTuple):
    """Ordering 0 <= G <= F across levels, with the derivative proportionality fit.

    The exact radial identity dG/dt = (G - F)/(p-1) is fitted as
    dG_fd = c * [(3-p)^2/(p-1)](G - F); the fitted constant c must come out
    as (3-p)^(-2), the exact c_G of the functionals module.
    """

    levels: tuple
    F_values: tuple
    G_values: tuple
    ordering_ok: bool
    proportionality_constant: float
    proportionality_expected: float
    proportionality_max_dev: float
    tail_F: float
    tail_G: float


def ordering_check(
    pot: RadialPotential, rows, tol: float = DEFAULT_TOLERANCES["monotone"]
) -> OrderingReport:
    """Verify 0 <= G <= F at the rows of a level table and fit the dG/dt proportionality.

    ``rows`` holds the ``t``, ``F``, ``G`` and ``dG_fd`` columns of
    :func:`functionals.level_table`, or any selection of its rows, with at
    least one row.  The ordering is 0 <= G <= F at every row, to tol (1 + |F|).
    """
    levels, F, G, dG = (rows[name] for name in ("t", "F", "G", "dG_fd"))
    if not levels.size:
        raise DomainError("ordering_check needs at least one level")
    p = pot.p_value
    m = 3.0 - p
    f_vals, g_vals = F.tolist(), G.tolist()
    # flat/cone equality case G = F: the proportionality is 0 = 0, skipped
    unequal = ~(np.abs(G - F) <= 1e-12 * (1.0 + np.abs(F)))
    ratios = dG[unequal] / ((m * m / (p - 1.0)) * (G - F)[unequal])
    if ratios.size:
        constant = _median(ratios)
        # the spread about a zero, NaN or subnormal constant is inf or NaN, not a fault
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            max_dev = float(np.abs(ratios / constant - 1.0).max())
    else:
        constant = math.nan
        max_dev = 0.0
    order = levels.argsort()
    slack = tol * (1.0 + np.abs(F))
    return OrderingReport(
        levels=tuple(levels.tolist()),
        F_values=tuple(f_vals),
        G_values=tuple(g_vals),
        ordering_ok=bool(((-slack <= G) & (G <= F + slack)).all()),
        proportionality_constant=constant,
        proportionality_expected=1.0 / (m * m),
        proportionality_max_dev=max_dev,
        tail_F=f_vals[order[-1]],
        tail_G=g_vals[order[-1]],
    )


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-D float array, bit for bit, from one sort:
    the mean of the middle value or two, summed and divided as np.mean does
    (so a zero median is +0.0), and NaN when a value is NaN (np.sort puts NaN
    last)."""
    ordered = np.sort(values)
    if ordered[-1] != ordered[-1]:
        return math.nan
    half = ordered.size // 2
    middle = ordered[half - 1 + ordered.size % 2 : half + 1]
    return float(np.add.reduce(middle) / middle.size)


# ---------------------------------------------------------------------------
# the contradiction scenario
# ---------------------------------------------------------------------------

EPS_THRESHOLD = 0.01  # smallest pinching margin the pinching gate accepts

WILLMORE_GATE = "initial-willmore-gate"
PINCHING_GATE = "ricci-pinching-gate"
GROWTH_GATE = "superquadratic-growth-gate"

_GATE_LABELS = {
    WILLMORE_GATE: "initial-willmore-deficit",
    PINCHING_GATE: "pinching",
    GROWTH_GATE: "superquadratic-growth",
}


def _run_stage(name: str, fn):
    try:
        return fn()
    except PinchLabError as exc:
        raise type(exc)(f"stage '{name}': {exc}") from exc
    except Exception as exc:  # pragma: no cover - defensive
        raise ConvergenceError(f"stage '{name}': {exc}") from exc


def _solved_table(model, p, r0, n_grid, r_max, n_levels, slab=()):
    """The potential (stage 'solve'), then from one batch (stage 'level-sampling')
    its level table at n_levels levels and the radii of the levels slab * t_hi,
    t_hi the table's last level."""
    pot = _run_stage("solve", lambda: solve_radial(model, p, r0, n_grid=n_grid, r_max=r_max))
    ts = _run_stage("level-sampling", lambda: functionals._table_levels(pot, n_levels))
    extra = np.multiply(slab, ts[-1])
    return (pot, *_run_stage("level-sampling", lambda: functionals._table(pot, ts, extra)))


def _growth_fit(model: geometry.ManifoldModel, r0: float, r_trunc: float):
    """(alpha_hat, alpha_hat clamped to [1e-6, 2], r_lo, r_hi): the growth fit on [r_lo, r_hi]
    for a potential from r0 truncated at r_trunc, r_hi = r_trunc / 2 and r_lo = max(r_hi / 100,
    r0), or the geometric mean of r_hi and max(r_min, 1e-12 r_hi) if that reaches r_hi."""
    r_hi = 0.5 * r_trunc
    r_lo = max(r_hi / 100.0, r0)
    if r_lo >= r_hi:
        r_lo = math.sqrt(max(model.r_min, 1e-12 * r_hi) * r_hi)
    alpha_hat = geometry.growth_exponent(model, r_lo, r_hi).alpha_hat
    return alpha_hat, min(max(alpha_hat, 1e-6), 2.0), r_lo, r_hi


def run_contradiction_scenario(
    model: geometry.ManifoldModel, p, config: Mapping | None = None
) -> ScenarioReport:
    """Run the full hypothesis chain on one model and name the broken link.

    After the solve, each stage is one of three kinds.  A gate tests one of
    the theorem's hypotheses (Willmore deficit, Ricci pinching, growth), and
    ``failed_hypothesis`` names the first that fails.  A check (threshold,
    capacity law, Hölder chain, volume and slab consistency) passes or fails
    on its measurement.  A consequence (``pinched-decay-rate``,
    ``decay-dichotomy``, ``coarea-envelope``) is forced only under every
    hypothesis: it is judged when every gate passed, and is otherwise
    not-applicable, its numbers kept with the reason suffix " (hypothesis
    gate failed: <label>)".  No comparison ODE runs from F(0+) >= 4 pi.
    """
    opts = dict(SCENARIO_DEFAULTS)
    if config:
        unknown = set(config) - set(opts)
        if unknown:
            raise DomainError(f"unknown scenario options: {sorted(unknown)}")
        opts.update(config)
    p = as_p(p)
    m = 3.0 - p.value
    r0 = float(opts["r0"])

    verdicts: list[StageVerdict] = []
    constants: dict = {}
    failed: str | None = None

    def gate(name: str, passed: bool, reason: str):
        nonlocal failed
        check(name, passed, reason)
        if not passed and failed is None:
            failed = _GATE_LABELS[name]

    def check(name: str, passed: bool, reason: str):
        verdicts.append(StageVerdict.judge(name, passed, reason))

    def consequence(name: str, passed: bool | None, reason: str):
        # passed is None where the consequence has nothing to judge
        if failed is not None:
            passed, reason = None, f"{reason} (hypothesis gate failed: {failed})"
        if passed is None:
            verdicts.append(StageVerdict.not_applicable(name, reason))
        else:
            check(name, passed, reason)

    # the coarea slab's end levels t0 = 0.2 t_hi and t1 = 0.8 t_hi join the table's batch
    pot, table, slab_radii = _solved_table(
        model, p, r0, opts["n_grid"], opts["r_max"], opts["n_levels"], (0.2, 0.8)
    )
    constants["c_F"], constants["c_G"] = functionals._exact_constants(p.value)
    t, F = table["t"], table["F"]
    t_hi = float(t[-1])
    t0v, t1v = 0.2 * t_hi, 0.8 * t_hi
    r_t0, r_t1 = slab_radii.tolist()

    # --- hypothesis gates -------------------------------------------------
    w0 = _run_stage(WILLMORE_GATE, lambda: functionals.willmore(model, r0))
    gate(
        WILLMORE_GATE,
        w0 < functionals.SIXTEEN_PI * (1.0 - 1e-12),
        f"boundary Willmore energy {w0:.12g} vs 16 pi = {functionals.SIXTEEN_PI:.12g} "
        f"(hypothesis needs strict deficit)",
    )

    pinch = _run_stage(PINCHING_GATE, lambda: geometry.pinching_margin(model))
    if opts["eps"] is not None:
        eps_used = _check_eps(opts["eps"])
        eps_source = "explicit"
    else:
        eps_used = max(min(pinch.margin, 1.0 / 3.0), 1e-3)
        eps_source = "measured margin" if pinch.margin >= EPS_THRESHOLD else "hypothetical floor"
    pinching_ok = pinch.nonneg_ricci and pinch.margin >= EPS_THRESHOLD
    gate(
        PINCHING_GATE,
        pinching_ok,
        f"pinching margin {pinch.margin:.6g} (nonneg Ricci: {pinch.nonneg_ricci}, worst radius "
        f"{pinch.worst_radius:.6g}); eps used downstream: {eps_used:.6g} ({eps_source})",
    )
    constants["pinching_margin"] = pinch.margin
    constants["eps_used"] = eps_used

    alpha_hat, alpha_used, r_lo_fit, r_hi_fit = _run_stage(
        GROWTH_GATE, lambda: _growth_fit(model, r0, pot.r_trunc)
    )
    gate(
        GROWTH_GATE,
        1.0 + 1e-6 < alpha_hat <= 2.0 + 1e-2,
        f"fitted volume growth exponent alpha = {alpha_hat:.6g} over radii "
        f"[{r_lo_fit:.6g}, {r_hi_fit:.6g}] (hypothesis needs alpha in (1, 2])",
    )
    constants["alpha_hat"] = alpha_hat

    # --- exponent bookkeeping ---------------------------------------------
    thr = threshold(p, alpha_used)
    check(
        "exponent-threshold",
        thr.contradiction_possible,
        f"alpha = {alpha_used:.6g} vs f(p) = {thr.f_p:.6g}: volume exponent "
        f"{thr.rhs_exponent:.6g} vs coarea exponent {thr.lhs_exponent:.6g}",
    )
    constants["f_p"] = thr.f_p

    # --- capacity law and interpolation chain ------------------------------
    cap_ratio = table["cap_ratio_to_exp_t"][t <= 10.0 + functionals.FD_STEP]
    cap_dev = float(np.abs(cap_ratio - 1.0).max())
    check(
        "capacity-law",
        cap_dev <= float(opts["capacity_tol"]),
        f"max |cap(t) e^-t / cap(0) - 1| = {cap_dev:.3e} over sampled levels <= 10",
    )
    constants["capacity_law_deviation"] = cap_dev

    # a gap within tol (1 + |rhs|) also bounds the chain's inequality cap <= rhs
    holder_rhs = table["holder_rhs"]
    holder_dev = float((np.abs(table["holder_gap"]) / (1.0 + np.abs(holder_rhs))).max())
    check(
        "holder-chain",
        holder_dev <= float(opts["holder_tol"]),
        f"max relative equality gap {holder_dev:.3e} (radial chain should be an equality)",
    )

    # --- decay rate of F ----------------------------------------------------
    tail = (t >= 0.6 * t_hi) & (F > 0.0)
    slope_expected = -2.0 / m
    if np.count_nonzero(tail) >= 4:
        slope_measured = line_fit(t[tail], np.log(F[tail]))[0]
    else:
        slope_measured = math.nan
    consequence(
        "pinched-decay-rate",
        slope_measured <= slope_expected * (1.0 - 0.05),
        f"log F slope {slope_measured:.6g} vs pinched rate {slope_expected:.6g}",
    )
    constants["decay_slope_measured"] = slope_measured
    constants["decay_slope_pinched"] = slope_expected
    constants["K_envelope_measured"] = float((F * functionals._libm_exp(2.0 * t / m)).max())

    f_first = float(F[0])
    # relative margin: flat space has F = 4 pi exactly, up to last-bit rounding
    if f_first < FOUR_PI * (1.0 - 1e-12):
        traj = _run_stage("decay-dichotomy", lambda: decay_dichotomy(p, eps_used, f_first))
        constants["dichotomy_constant"] = traj.dichotomy_constant
        constants["K_envelope_ode"] = traj.K
        constants["ode_crossing_time"] = traj.crossing_time
        constants["ode_crossing_time_linear"] = traj.crossing_time_linear
        consequence(
            "decay-dichotomy",
            True,
            f"comparison ODE from F(0+) = {f_first:.6g} with eps = {eps_used:.6g}: "
            f"branch {traj.branch}, crossing {traj.crossing_time} "
            f"(linear closed form {traj.crossing_time_linear:.6g})",
        )
    else:
        consequence(
            "decay-dichotomy",
            None,
            f"first sampled F = {f_first:.12g} is not below 4 pi, so the comparison ODE "
            f"hypothesis is unavailable",
        )

    # --- coarea envelope ----------------------------------------------------
    envelope_exponent = (9.0 - p.value) / (m * m)

    window = (t0v <= t) & (t <= t1v)
    if not window.any():
        window[:] = True
    coarea = table["area"][window] / table["grad_w"][window]
    kappa = float((coarea * functionals._libm_exp(-envelope_exponent * t[window])).min())
    constants["kappa"] = kappa
    constants["envelope_exponent"] = envelope_exponent
    consequence(
        "coarea-envelope",
        True,
        f"coarea derivative vs kappa e^({envelope_exponent:.6g} t): fitted kappa = "
        f"{kappa:.6g} over the middle level window",
    )

    # --- volume growth consistency ------------------------------------------
    slab_lower = (
        kappa
        * (1.0 / envelope_exponent)
        * (math.exp(envelope_exponent * t1v) - math.exp(envelope_exponent * t0v))
    )
    fit_radii = geometric_grid(r_lo_fit, max(r_hi_fit, r_t1), 16)
    # one call for the fit and the slab's two balls: a radius's volume does not
    # depend on the other radii of its call
    volumes = geometry.ball_volume(model, np.concatenate([fit_radii, [r_t0, r_t1]]))
    k_vol = float((volumes[:-2] / fit_radii ** (1.0 + alpha_used)).max())
    slab_upper = k_vol * r_t1 ** (1.0 + alpha_used)
    contradiction = slab_lower > slab_upper * (1.0 + 1e-9)
    check(
        "volume-growth-consistency",
        not contradiction,
        f"envelope slab volume {slab_lower:.6g} vs volume bound K_vol R_T1^(1+alpha) = "
        f"{slab_upper:.6g} (K_vol = {k_vol:.6g}, R_T1 = {r_t1:.6g}): "
        + ("CONTRADICTION" if contradiction else "no numerical contradiction"),
    )
    constants["K_vol"] = k_vol
    constants["slab_lower_bound"] = slab_lower
    constants["slab_upper_bound"] = slab_upper
    constants["R_T1"] = r_t1

    # --- slab volume two-route check -----------------------------------------
    def coarea_at(t: np.ndarray) -> np.ndarray:
        # area / w' from the level query's r, I and h^(-q) and the warp alone,
        # by the expressions of geometry._levelset_data and functionals._level
        r, flux, density = pot.levels(t)
        h = pot.model.warp.h(r)
        return (4.0 * math.pi * h * h) / ((pot.p_value - 1.0) * density / flux)

    def slab_check():
        # cell edges at the levels w(r) of geometrically spaced radii: where w is
        # nearly flat in r, r(t) is steep, and equal steps in t would miss it
        radii = geometric_grid(r_t0, r_t1, SLAB_CELLS + 1)[1:-1]
        edges = np.concatenate([[t0v], _level_at(pot, radii), [t1v]])
        integral = float(cell_integrals(coarea_at, edges).sum())
        return integral, float(volumes[-1] - volumes[-2])

    integral, direct = _run_stage("slab-volume-consistency", slab_check)
    slab_rel = abs(integral - direct) / max(abs(direct), 1e-300)
    check(
        "slab-volume-consistency",
        slab_rel <= float(opts["slab_tol"]),
        f"coarea integral {integral:.12g} vs direct volume difference {direct:.12g} "
        f"(relative gap {slab_rel:.3e})",
    )

    config_echo = {
        "scenario": "contradict",
        "model": model.describe(),
        "model_name": model.name,
        "p": p.value,
        **{k: opts[k] for k in sorted(opts)},
    }
    return ScenarioReport(
        config=config_echo,
        rows=table_rows(table),
        verdicts=verdicts,
        constants=constants,
        failed_hypothesis=failed,
    )
