"""Configuration ingestion, scenario orchestration, and report emission.

A run is described by a JSON config (or built from command-line flags),
dispatched to one of five scenarios, and emitted as CSV (per-level rows, one
``gnuplot``-ready table) plus a sidecar JSON of verdicts and fitted
constants, or as a single JSON document.  Identical configs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import functionals, geometry, rigidity
from .errors import ConfigError, PinchLabError
from .potential import as_p, capacity, solve_radial
from .report import (
    DEFAULT_TOLERANCES,
    SCENARIO_DEFAULTS,
    SCENARIO_TOLERANCES,
    ScenarioReport,
    StageVerdict,
)

__all__ = [
    "RunConfig",
    "parse_config",
    "serialize",
    "build_model",
    "run",
    "emit",
    "main",
]

SCENARIOS = ("solve", "monotone", "contradict", "check-identities", "willmore-expansion")
FORMATS = ("csv", "json")
MODEL_KINDS = ("flat", "cone", "power_warp", "positive_cap", "spline_cap")

@dataclass(frozen=True)
class RunConfig:
    """Validated description of one scenario run."""

    model: dict
    scenario: str
    p: float | str = "auto"
    r0: float = SCENARIO_DEFAULTS["r0"]
    r_max: float | None = SCENARIO_DEFAULTS["r_max"]
    n_grid: int = SCENARIO_DEFAULTS["n_grid"]
    n_levels: int = SCENARIO_DEFAULTS["n_levels"]
    tolerances: dict = field(default_factory=dict)
    out: str | None = None
    format: str = "csv"
    seed: int = 0
    margin: float = 0.5
    eps: float | None = SCENARIO_DEFAULTS["eps"]

    def tolerance(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_MODEL_PARAMS = {
    "flat": {"r_max"},
    "cone": {"a", "r_min", "r_max"},
    "power_warp": {"alpha", "r_min", "r_max"},
    "positive_cap": {"k", "r_max"},
    "spline_cap": {"k", "r_max", "n_knots"},
}


def _expect(condition: bool, path: str, message: str):
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _check_number(value, path: str, *, integer: bool = False) -> float:
    ok = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    _expect(ok, path, f"expected a finite number, got {value!r}")
    if integer:
        _expect(float(value) == int(value), path, f"expected an integer, got {value!r}")
        return int(value)
    return float(value)


def _validate_model_spec(spec, path: str = "model") -> dict:
    _expect(isinstance(spec, dict), path, "expected an object with a 'kind' key")
    _expect("kind" in spec, path, "missing required key 'kind'")
    kind = spec["kind"]
    _expect(kind in _MODEL_PARAMS, f"{path}.kind", f"unknown model kind {kind!r}; choices: {MODEL_KINDS}")
    allowed = _MODEL_PARAMS[kind]
    unknown = set(spec) - allowed - {"kind"}
    _expect(not unknown, path, f"unknown parameters for kind {kind!r}: {sorted(unknown)}")
    out = {"kind": kind}
    for key in sorted(set(spec) - {"kind"}):
        value = spec[key]
        sub = f"{path}.{key}"
        out[key] = _check_number(value, sub, integer=(key == "n_knots"))
    return out


def parse_config(text: str) -> RunConfig:
    """Parse and validate a UTF-8 JSON run configuration."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    _expect(isinstance(raw, dict), "top-level", "expected a JSON object")
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    unknown = set(raw) - set(defaults)
    _expect(not unknown, "top-level", f"unknown keys: {sorted(unknown)}")
    _expect("model" in raw, "model", "missing required key")
    _expect("scenario" in raw, "scenario", "missing required key")

    model = _validate_model_spec(raw["model"])
    scenario = raw["scenario"]
    _expect(scenario in SCENARIOS, "scenario", f"unknown scenario {scenario!r}; choices: {SCENARIOS}")

    p = raw.get("p", defaults["p"])
    if p != "auto":
        p = _check_number(p, "p")
        try:
            as_p(p)
        except PinchLabError as exc:
            raise ConfigError(f"p: {exc}") from exc

    r0 = _check_number(raw.get("r0", defaults["r0"]), "r0")
    _expect(r0 > 0.0, "r0", f"must be positive, got {r0}")
    r_max = raw.get("r_max", defaults["r_max"])
    if r_max is not None:
        r_max = _check_number(r_max, "r_max")
        _expect(r_max > r0, "r_max", f"must exceed r0 = {r0}, got {r_max}")
    n_grid = _check_number(raw.get("n_grid", defaults["n_grid"]), "n_grid", integer=True)
    _expect(n_grid >= 16, "n_grid", f"needs at least 16 points, got {n_grid}")
    n_levels = _check_number(raw.get("n_levels", defaults["n_levels"]), "n_levels", integer=True)
    _expect(n_levels >= 2, "n_levels", f"needs at least 2 levels, got {n_levels}")
    seed = _check_number(raw.get("seed", defaults["seed"]), "seed", integer=True)
    _expect(seed >= 0, "seed", f"must be nonnegative, got {seed}")
    margin = _check_number(raw.get("margin", defaults["margin"]), "margin")
    _expect(0.0 < margin < 1.0, "margin", f"must lie in (0, 1), got {margin}")
    eps = raw.get("eps", defaults["eps"])
    if eps is not None:
        eps = _check_number(eps, "eps")
        _expect(0.0 < eps <= 1.0 / 3.0, "eps", f"must lie in (0, 1/3], got {eps}")

    tolerances = raw.get("tolerances", {})
    _expect(isinstance(tolerances, dict), "tolerances", "expected an object")
    cleaned = {}
    for key in sorted(tolerances):
        _expect(key in DEFAULT_TOLERANCES, f"tolerances.{key}",
                f"unknown tolerance; choices: {sorted(DEFAULT_TOLERANCES)}")
        value = _check_number(tolerances[key], f"tolerances.{key}")
        _expect(value > 0.0, f"tolerances.{key}", f"must be positive, got {value}")
        cleaned[key] = value

    out = raw.get("out", defaults["out"])
    if out is not None:
        _expect(isinstance(out, str) and out, "out", "expected a non-empty path string")
    fmt = raw.get("format", defaults["format"])
    _expect(fmt in FORMATS, "format", f"unknown format {fmt!r}; choices: {FORMATS}")

    return RunConfig(
        model=model,
        scenario=scenario,
        p=p,
        r0=r0,
        r_max=r_max,
        n_grid=n_grid,
        n_levels=n_levels,
        tolerances=cleaned,
        out=out,
        format=fmt,
        seed=seed,
        margin=margin,
        eps=eps,
    )


def serialize(config: RunConfig) -> str:
    """Canonical JSON form; parse_config(serialize(c)) == c."""
    return json.dumps(dataclasses.asdict(config), sort_keys=True, indent=2) + "\n"


def build_model(spec: dict) -> geometry.ManifoldModel:
    """Instantiate a library model from a validated spec dict."""
    spec = _validate_model_spec(spec)
    kind = spec["kind"]
    params = {k: v for k, v in spec.items() if k != "kind"}
    factory = {
        "flat": geometry.flat_model,
        "cone": geometry.cone_model,
        "power_warp": geometry.power_warp_model,
        "positive_cap": geometry.positive_cap_model,
        "spline_cap": geometry.spline_cap_model,
    }[kind]
    try:
        return factory(**params)
    except PinchLabError as exc:
        raise ConfigError(f"model: {exc}") from exc


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def _resolve_p(config: RunConfig, model: geometry.ManifoldModel):
    if config.p != "auto":
        return as_p(config.p)
    r_hi = 0.5 * min(config.r_max or 1e4 * config.r0, model.r_max)
    r_lo = max(r_hi / 100.0, config.r0)
    if r_lo >= r_hi:
        r_lo = 0.5 * r_hi
    growth = geometry.growth_exponent(model, r_lo, r_hi)
    alpha = min(max(growth.alpha_hat, 1e-6), 2.0)
    try:
        return rigidity.select_p(alpha, config.margin)
    except PinchLabError as exc:
        raise type(exc)(f"stage 'p-auto': {exc}") from exc


def _config_echo(config: RunConfig, p_value: float | None) -> dict:
    echo = dataclasses.asdict(config)
    echo["p_resolved"] = p_value
    return echo


def _scenario_solve(config: RunConfig, model: geometry.ManifoldModel) -> ScenarioReport:
    p = _resolve_p(config, model)
    pot = solve_radial(model, p, config.r0, n_grid=config.n_grid, r_max=config.r_max)
    rows, _, _ = functionals.level_rows(pot, config.n_levels)
    c_f, c_g = functionals._exact_constants(p.value)
    u0 = pot.state_at(pot.r0).u  # one value, not the node array of u
    boundary_ok = abs(u0 - 1.0) <= 1e-12 and abs(pot.w[0]) <= 1e-12
    cap_tol = config.tolerance("capacity")
    cap_dev = max(abs(row["cap_ratio_to_exp_t"] - 1.0) for row in rows)
    verdicts = [
        StageVerdict(
            "solve",
            "pass",
            f"potential on [{pot.grid[0]:.6g}, {pot.r_trunc:.6g}] with {pot.grid.size} nodes; "
            f"t_max = {pot.t_max:.6g}, tail exponent beta = {pot.tail_beta:.6g}",
        ),
        StageVerdict(
            "boundary-normalization",
            "pass" if boundary_ok else "fail",
            f"u(r0) = {u0!r}, w(r0) = {float(pot.w[0])!r}",
        ),
        StageVerdict(
            "capacity-law",
            "pass" if cap_dev <= cap_tol else "fail",
            f"max |cap(t) e^-t / cap(0) - 1| = {cap_dev:.3e} (tol {cap_tol:.1e})",
        ),
    ]
    return ScenarioReport(
        config=_config_echo(config, p.value),
        rows=rows,
        verdicts=verdicts,
        constants={"c_F": c_f, "c_G": c_g, "cap_0": capacity(pot, 0.0)},
    )


def _scenario_monotone(config: RunConfig, model: geometry.ManifoldModel) -> ScenarioReport:
    p = _resolve_p(config, model)
    pot = solve_radial(model, p, config.r0, n_grid=config.n_grid, r_max=config.r_max)
    rows, samples, holders = functionals.level_rows(pot, config.n_levels)
    c_f, c_g = functionals._exact_constants(p.value)
    tol_mono = config.tolerance("monotone")
    tol_deriv = config.tolerance("derivative")
    tol_holder = config.tolerance("holder")

    def non_increasing(values):
        worst = max(
            (values[i + 1] - values[i]) / (1.0 + abs(values[i])) for i in range(len(values) - 1)
        )
        return worst, worst <= tol_mono

    f_vals = [row["F"] for row in rows]
    g_vals = [row["G"] for row in rows]
    worst_f, ok_f = non_increasing(f_vals)
    worst_g, ok_g = non_increasing(g_vals)
    order_ok = all(
        -tol_mono * (1.0 + abs(f)) <= g <= f + tol_mono * (1.0 + abs(f))
        for f, g in zip(f_vals, g_vals)
    )
    dev_f = max(abs(s.dF_fd - s.dF_cf) / (1.0 + abs(s.dF_cf)) for s in samples)
    dev_g = max(abs(s.dG_fd - s.dG_cf) / (1.0 + abs(s.dG_cf)) for s in samples)
    holder_dev = max(abs(h.equality_gap) / (1.0 + abs(h.rhs)) for h in holders)
    verdicts = [
        StageVerdict(
            "monotone-F",
            "pass" if ok_f else "fail",
            f"max normalized increment of F = {worst_f:.3e} (tol {tol_mono:.1e})",
        ),
        StageVerdict(
            "monotone-G",
            "pass" if ok_g else "fail",
            f"max normalized increment of G = {worst_g:.3e} (tol {tol_mono:.1e})",
        ),
        StageVerdict(
            "ordering",
            "pass" if order_ok else "fail",
            f"0 <= G <= F across {len(rows)} levels (tol {tol_mono:.1e} relative)",
        ),
        StageVerdict(
            "derivative-match",
            "pass" if max(dev_f, dev_g) <= tol_deriv else "fail",
            f"max relative FD-vs-closed-form deviation: dF {dev_f:.3e}, dG {dev_g:.3e} "
            f"(tol {tol_deriv:.1e}); the closed forms carry c_F = 1 and c_G = (3-p)^-2 = "
            f"{c_g:.12g}, the normalization the raw dG/dt integrand omits",
        ),
        StageVerdict(
            "holder-chain",
            "pass" if holder_dev <= tol_holder else "fail",
            f"max relative interpolation-chain gap = {holder_dev:.3e} (tol {tol_holder:.1e})",
        ),
    ]
    # about 16 of the row levels, read off their samples: no level is inverted twice
    picked = samples[:: max(1, len(samples) // 16)]
    ordering = rigidity._ordering_report(
        pot,
        np.array([s.t for s in picked]),
        np.array([s.F for s in picked]),
        np.array([s.G for s in picked]),
        np.array([s.dG_fd for s in picked]),
    )
    constants = {
        "c_F": c_f,
        "c_G": c_g,
        "dG_proportionality": ordering.proportionality_constant,
        "dG_proportionality_expected": ordering.proportionality_expected,
    }
    return ScenarioReport(
        config=_config_echo(config, p.value), rows=rows, verdicts=verdicts, constants=constants
    )


def _scenario_check(config: RunConfig, model: geometry.ManifoldModel) -> ScenarioReport:
    rng = np.random.default_rng(config.seed)
    r_hi = model.r_max
    r_lo = model.r_min if model.r_min > 0.0 else 1e-6 * r_hi
    radii = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), size=100))
    tol_identity = config.tolerance("identity")
    tol_gb = config.tolerance("gauss_bonnet")
    tol_umb = config.tolerance("umbilicity")
    gauss_worst = 0.0
    gb_worst = 0.0
    umb_worst = 0.0
    for r in radii:
        r = float(r)
        gauss_worst = max(gauss_worst, abs(geometry.gauss_identity_residual(model, r)))
        geo = geometry.levelset_geometry(model, r)
        gb_worst = max(gb_worst, abs(geo.sc_tangential * geo.area - 8.0 * math.pi))
        umb_worst = max(umb_worst, abs(geo.traceless_sff_norm_sq))
    verdicts = [
        StageVerdict(
            "gauss-identity",
            "pass" if gauss_worst <= tol_identity else "fail",
            f"max residual {gauss_worst:.3e} over 100 seeded radii (tol {tol_identity:.1e})",
        ),
        StageVerdict(
            "gauss-bonnet",
            "pass" if gb_worst <= tol_gb else "fail",
            f"max |total tangential curvature - 8 pi| = {gb_worst:.3e} (tol {tol_gb:.1e})",
        ),
        StageVerdict(
            "umbilicity",
            "pass" if umb_worst <= tol_umb else "fail",
            f"max traceless second-fundamental-form norm {umb_worst:.3e} (tol {tol_umb:.1e})",
        ),
    ]
    pinch = geometry.pinching_margin(model)
    verdicts.append(
        StageVerdict(
            "pinching-survey",
            "pass" if pinch.nonneg_ricci else "fail",
            f"margin {pinch.margin:.6g}, nonneg Ricci {pinch.nonneg_ricci}, "
            f"worst radius {pinch.worst_radius:.6g}",
        )
    )
    constants = {
        "gauss_residual_max": gauss_worst,
        "gauss_bonnet_deviation_max": gb_worst,
        "pinching_margin": pinch.margin,
    }
    return ScenarioReport(
        config=_config_echo(config, None), rows=[], verdicts=verdicts, constants=constants
    )


def _scenario_willmore(config: RunConfig, model: geometry.ManifoldModel) -> ScenarioReport:
    try:
        rep = functionals.small_sphere_expansion(model)
    except PinchLabError as exc:
        raise type(exc)(f"stage 'willmore-expansion': {exc}") from exc
    tol = config.tolerance("willmore_coefficient")
    verdicts = [
        StageVerdict(
            "willmore-expansion",
            "pass" if rep.relative_deviation <= tol else "fail",
            f"fitted r^2 coefficient {rep.coefficient:.9g} vs (8 pi / 3) Sc(o) = "
            f"{rep.expected:.9g} (relative deviation {rep.relative_deviation:.3e}, tol {tol:.1e})",
        )
    ]
    constants = {
        "willmore_coefficient": rep.coefficient,
        "willmore_coefficient_expected": rep.expected,
        "willmore_deviation": rep.relative_deviation,
    }
    return ScenarioReport(
        config=_config_echo(config, None), rows=[], verdicts=verdicts, constants=constants
    )


def _scenario_contradict(config: RunConfig, model: geometry.ManifoldModel) -> ScenarioReport:
    p = _resolve_p(config, model)
    options = {f"{name}_tol": config.tolerance(name) for name in SCENARIO_TOLERANCES}
    options |= {key: getattr(config, key) for key in SCENARIO_DEFAULTS.keys() - options.keys()}
    report = rigidity.run_contradiction_scenario(model, p, options)
    report.config = _config_echo(config, p.value) | {"stage_options": report.config}
    return report


def run(config: RunConfig) -> ScenarioReport:
    """Execute the configured scenario; deterministic given the config."""
    model = build_model(config.model)
    dispatch = {
        "solve": _scenario_solve,
        "monotone": _scenario_monotone,
        "contradict": _scenario_contradict,
        "check-identities": _scenario_check,
        "willmore-expansion": _scenario_willmore,
    }
    return dispatch[config.scenario](config, model)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float):
        return None if not math.isfinite(value) else value
    if isinstance(value, StageVerdict):
        return {"name": value.name, "status": value.status, "reason": value.reason}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _csv_text(report: ScenarioReport) -> str:
    lines = [",".join(report.columns)]
    for row in report.rows:
        lines.append(",".join(format(float(row[c]), ".17g") for c in report.columns))
    return "\n".join(lines) + "\n"


def _verdicts_json(report: ScenarioReport) -> str:
    payload = _jsonable(
        {
            "config": report.config,
            "constants": report.constants,
            "failed_hypothesis": report.failed_hypothesis,
            "verdicts": report.verdicts,
        }
    )
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _report_json(report: ScenarioReport) -> str:
    payload = _jsonable(
        {
            "config": report.config,
            "columns": list(report.columns),
            "rows": report.rows,
            "constants": report.constants,
            "failed_hypothesis": report.failed_hypothesis,
            "verdicts": report.verdicts,
        }
    )
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def summary_text(report: ScenarioReport) -> str:
    """Human-readable one-screen summary of a scenario report."""
    cfg = report.config
    lines = [
        f"scenario: {cfg.get('scenario', '?')}  model: {cfg.get('model', {}).get('kind', '?')}"
        f"  p: {cfg.get('p_resolved', cfg.get('p', '?'))}"
    ]
    for verdict in report.verdicts:
        tag = {"pass": "PASS", "fail": "FAIL", "not-applicable": "N/A "}[verdict.status]
        lines.append(f"  [{tag}] {verdict.name}: {verdict.reason}")
    if report.failed_hypothesis is not None:
        lines.append(f"failed hypothesis: {report.failed_hypothesis}")
    if report.constants:
        lines.append("constants:")
        for key in sorted(report.constants):
            lines.append(f"  {key} = {report.constants[key]}")
    lines.append(f"rows: {len(report.rows)}")
    return "\n".join(lines) + "\n"


def emit(report: ScenarioReport, fmt: str = "csv", out: str | None = None):
    """Write the report; returns written paths, or the summary text if out is None."""
    if fmt not in FORMATS:
        raise ConfigError(f"format: unknown format {fmt!r}; choices: {FORMATS}")
    if out is None:
        return summary_text(report)
    path = Path(out)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path.write_bytes(_report_json(report).encode("utf-8"))
        return [str(path)]
    sidecar = path.with_suffix(".verdicts.json") if path.suffix == ".csv" else Path(str(path) + ".verdicts.json")
    path.write_bytes(_csv_text(report).encode("utf-8"))
    sidecar.write_bytes(_verdicts_json(report).encode("utf-8"))
    return [str(path), str(sidecar)]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

_SUBCOMMAND_SCENARIO = {
    "solve": "solve",
    "monotone": "monotone",
    "contradict": "contradict",
    "check": "check-identities",
    "willmore": "willmore-expansion",
    "report": None,  # keep the scenario named in the config
}


def _parse_tol_flag(entries) -> dict:
    tolerances = {}
    for entry in entries or []:
        if "=" not in entry:
            raise ConfigError(f"--tol: expected NAME=VALUE, got {entry!r}")
        name, _, value = entry.partition("=")
        try:
            tolerances[name.strip()] = float(value)
        except ValueError as exc:
            raise ConfigError(f"--tol {name}: expected a number, got {value!r}") from exc
    return tolerances


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="path to a JSON run configuration")
    common.add_argument("--out", help="output path (CSV or JSON); omit for a terminal summary")
    common.add_argument("--format", choices=FORMATS, help="output format (default csv)")
    common.add_argument("--grid-n", type=int, dest="grid_n", help="override the radial grid size")
    common.add_argument(
        "--tol",
        action="append",
        metavar="NAME=VALUE",
        help="override a named tolerance (repeatable)",
    )
    common.add_argument("--model", help="library model name (alternative to --config)")
    common.add_argument("--p", help='exponent in (1, 2), or "auto"')
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="pinchlab",
        description="Numerical laboratory for p-harmonic capacitary potentials on "
        "rotationally symmetric 3-manifolds.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_SCENARIO:
        sub.add_parser(
            name,
            help=f"run the {_SUBCOMMAND_SCENARIO[name] or 'configured'} scenario",
            parents=[common],
        )
    return parser


_LIBRARY_SPECS = {
    "flat": {"kind": "flat"},
    "cone_0.8": {"kind": "cone", "a": 0.8},
    "power_warp_1.5": {"kind": "power_warp", "alpha": 1.5},
    "positive_cap_1": {"kind": "positive_cap", "k": 1.0},
    "spline_cap_0.5": {"kind": "spline_cap", "k": 0.5},
}


def _config_from_args(args) -> RunConfig:
    config_path = getattr(args, "config", None)
    model_name = getattr(args, "model", None)
    if config_path is not None:
        text = Path(config_path).read_text(encoding="utf-8")
        config = parse_config(text)
    elif model_name is not None:
        if model_name not in _LIBRARY_SPECS:
            raise ConfigError(
                f"--model: unknown library model {model_name!r}; choices: {sorted(_LIBRARY_SPECS)}"
            )
        config = RunConfig(model=_LIBRARY_SPECS[model_name], scenario="solve")
    else:
        raise ConfigError("either --config or --model is required")

    updates = {}
    scenario = _SUBCOMMAND_SCENARIO[args.command]
    if scenario is not None:
        updates["scenario"] = scenario
    elif config_path is None:
        raise ConfigError("the 'report' subcommand needs --config naming a scenario")
    if getattr(args, "out", None) is not None:
        updates["out"] = args.out
    if getattr(args, "format", None) is not None:
        updates["format"] = args.format
    if getattr(args, "grid_n", None) is not None:
        updates["n_grid"] = args.grid_n
    p_flag = getattr(args, "p", None)
    if p_flag is not None:
        p = p_flag if p_flag == "auto" else float(p_flag)
        if p != "auto":
            try:
                as_p(p)
            except PinchLabError as exc:
                raise ConfigError(f"--p: {exc}") from exc
        updates["p"] = p
    tol = _parse_tol_flag(getattr(args, "tol", None))
    if tol:
        unknown = set(tol) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ConfigError(f"--tol: unknown tolerance names {sorted(unknown)}")
        updates["tolerances"] = {**config.tolerances, **tol}
    config = dataclasses.replace(config, **updates)
    # re-validate after flag overrides
    return parse_config(json.dumps(dataclasses.asdict(config)))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        report = run(config)
        result = emit(report, config.format, config.out)
    except PinchLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(result, str):
        sys.stdout.write(result)
    else:
        for path in result:
            print(f"wrote {path}")
        if report.failed_hypothesis is not None:
            print(f"failed hypothesis: {report.failed_hypothesis}")
    return 0
