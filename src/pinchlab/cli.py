"""Configuration ingestion, scenario orchestration, and report emission.

A run is described by a JSON config (or built from command-line flags),
dispatched to one of five scenarios, and emitted as CSV (per-level rows, one
``gnuplot``-ready table) plus a sidecar JSON of verdicts and fitted
constants, or as a single JSON document.  Identical configs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import inspect
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import functionals, geometry, rigidity
from .errors import ConfigError, PinchLabError
from .potential import as_p
from .report import (
    DEFAULT_TOLERANCES,
    ROW_COLUMNS,
    SCENARIO_DEFAULTS,
    SCENARIO_TOLERANCES,
    ScenarioReport,
    StageVerdict,
    table_rows,
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

FORMATS = ("csv", "json")

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

# model kind -> {parameter: integer?}, from its factory's signature (annotations are strings)
_FACTORY_PARAMS = {
    kind: {name: arg.annotation == "int" for name, arg in inspect.signature(factory).parameters.items()}
    for kind, factory in geometry.MODELS.items()
}


def _expect(condition: bool, path: str, message: str):
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _check_with(check, value, path: str):
    """Validate value with a library check, reporting its error as a ConfigError at path."""
    try:
        check(value)
    except PinchLabError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _check_number(value, path: str, *, integer: bool = False) -> float:
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    _expect(ok, path, f"expected a finite number, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        # beyond the float range: shown by its magnitude, not by its hundreds of digits
        shown = f"{'-' if value < 0 else ''}1e{round(math.log10(abs(value)))}"
        raise ConfigError(f"{path}: expected a finite number, got about {shown}")
    _expect(math.isfinite(value), path, f"expected a finite number, got {value!r}")
    if integer:
        _expect(float(value) == int(value), path, f"expected an integer, got {value!r}")
        return int(value)
    return float(value)


def _validate_model_spec(spec, path: str = "model") -> dict:
    _expect(isinstance(spec, dict), path, "expected an object with a 'kind' key")
    _expect("kind" in spec, path, "missing required key 'kind'")
    kind = spec["kind"]
    kinds = tuple(_FACTORY_PARAMS)
    _expect(kind in kinds, f"{path}.kind", f"unknown model kind {kind!r}; choices: {kinds}")
    integer = _FACTORY_PARAMS[kind]
    unknown = set(spec) - set(integer) - {"kind"}
    _expect(not unknown, path, f"unknown parameters for kind {kind!r}: {sorted(unknown)}")
    out = {"kind": kind}
    for key in sorted(set(spec) - {"kind"}):
        out[key] = _check_number(spec[key], f"{path}.{key}", integer=integer[key])
    return out


def parse_config(text: str) -> RunConfig:
    """Parse and validate a UTF-8 JSON run configuration."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past int()'s digit limit
        raise ConfigError(f"malformed JSON: {exc}") from exc
    _expect(isinstance(raw, dict), "top-level", "expected a JSON object")
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    unknown = set(raw) - set(defaults)
    _expect(not unknown, "top-level", f"unknown keys: {sorted(unknown)}")
    _expect("model" in raw, "model", "missing required key")
    _expect("scenario" in raw, "scenario", "missing required key")

    model = _validate_model_spec(raw["model"])
    scenario = raw["scenario"]
    choices = tuple(_SCENARIOS)
    _expect(scenario in choices, "scenario", f"unknown scenario {scenario!r}; choices: {choices}")

    p = raw.get("p", defaults["p"])
    if p != "auto":
        p = _check_number(p, "p")
        _check_with(as_p, p, "p")

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
        _check_with(rigidity._check_eps, eps, "eps")

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


_MODELS_KEPT = 8  # built models kept by spec, the oldest dropped first
_kept_models: dict[str, geometry.ManifoldModel] = {}


def build_model(spec: dict) -> geometry.ManifoldModel:
    """Instantiate a library model from a validated spec dict.

    An equal spec gives the same model, built once: a model is immutable and
    keeps its p-independent results, so a sweep over p builds, pinching-checks
    and growth-fits it once.  The last _MODELS_KEPT specs are kept.
    """
    spec = _validate_model_spec(spec)
    key = repr(spec)  # repr tells -0.0 from 0.0, as a model's name does and == does not
    model = _kept_models.get(key)
    if model is None:
        try:
            model = geometry._model_of(spec)
        except PinchLabError as exc:
            raise ConfigError(f"model: {exc}") from exc
        if len(_kept_models) == _MODELS_KEPT:
            del _kept_models[next(iter(_kept_models))]
        _kept_models[key] = model
    return model


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def _resolve_p(config: RunConfig, model: geometry.ManifoldModel):
    if config.p != "auto":
        return as_p(config.p)
    r_trunc = min(config.r_max or 1e4 * config.r0, model.r_max)  # as solve_radial will take it
    alpha = rigidity._run_stage("p-auto", lambda: rigidity._growth_fit(model, config.r0, r_trunc)[1])
    return rigidity._run_stage("p-auto", lambda: rigidity.select_p(alpha, config.margin))


def _config_echo(config: RunConfig, p_value: float | None) -> dict:
    # one level deep: the model spec and the tolerances, the config's only
    # containers, hold numbers alone
    echo = {key: dict(value) if isinstance(value, dict) else value for key, value in vars(config).items()}
    echo["p_resolved"] = p_value
    return echo


def _scenario_solve(config: RunConfig, model: geometry.ManifoldModel) -> ScenarioReport:
    p = _resolve_p(config, model)
    pot, table, _ = rigidity._solved_table(model, p, config.r0, config.n_grid, config.r_max, config.n_levels)
    c_f, c_g = functionals._exact_constants(p.value)
    u0 = float(pot.flux_integral_at(pot.r0)[0]) / pot.normalizer
    boundary_ok = abs(u0 - 1.0) <= 1e-12 and abs(pot.w0) <= 1e-12
    cap_tol = config.tolerance("capacity")
    cap_dev = float(np.abs(table["cap_ratio_to_exp_t"] - 1.0).max())
    verdicts = [
        StageVerdict.judge(
            "solve",
            True,
            f"potential on [{pot.r0:.6g}, {pot.r_trunc:.6g}] with {pot.n_grid} nodes; "
            f"t_max = {pot.t_max:.6g}, tail exponent beta = {pot.tail_beta:.6g}",
        ),
        StageVerdict.judge(
            "boundary-normalization",
            boundary_ok,
            f"u(r0) = {u0!r}, w(r0) = {pot.w0!r}",
        ),
        StageVerdict.judge(
            "capacity-law",
            cap_dev <= cap_tol,
            f"max |cap(t) e^-t / cap(0) - 1| = {cap_dev:.3e} (tol {cap_tol:.1e})",
        ),
    ]
    return ScenarioReport(
        config=_config_echo(config, p.value),
        rows=table_rows(table),
        verdicts=verdicts,
        constants={"c_F": c_f, "c_G": c_g, "cap_0": table["cap_0"]},
    )


def _scenario_monotone(config: RunConfig, model: geometry.ManifoldModel) -> ScenarioReport:
    p = _resolve_p(config, model)
    pot, table, _ = rigidity._solved_table(model, p, config.r0, config.n_grid, config.r_max, config.n_levels)
    c_f, c_g = functionals._exact_constants(p.value)
    tol_mono = config.tolerance("monotone")
    tol_deriv = config.tolerance("derivative")
    tol_holder = config.tolerance("holder")

    def non_increasing(values):
        worst = float(((values[1:] - values[:-1]) / (1.0 + np.abs(values[:-1]))).max())
        return worst, worst <= tol_mono

    def relative_gap(measured, reference):
        return float((np.abs(measured - reference) / (1.0 + np.abs(reference))).max())

    f_vals, g_vals = table["F"], table["G"]
    worst_f, ok_f = non_increasing(f_vals)
    worst_g, ok_g = non_increasing(g_vals)
    ordering = rigidity.ordering_check(pot, table, tol_mono)
    dev_f = relative_gap(table["dF_fd"], table["dF_cf"])
    dev_g = relative_gap(table["dG_fd"], table["dG_cf"])
    holder_dev = relative_gap(table["cap"], table["holder_rhs"])
    verdicts = [
        StageVerdict.judge(
            "monotone-F",
            ok_f,
            f"max normalized increment of F = {worst_f:.3e} (tol {tol_mono:.1e})",
        ),
        StageVerdict.judge(
            "monotone-G",
            ok_g,
            f"max normalized increment of G = {worst_g:.3e} (tol {tol_mono:.1e})",
        ),
        StageVerdict.judge(
            "ordering",
            ordering.ordering_ok,
            f"0 <= G <= F across {f_vals.size} levels (tol {tol_mono:.1e} relative)",
        ),
        StageVerdict.judge(
            "derivative-match",
            max(dev_f, dev_g) <= tol_deriv,
            f"max relative FD-vs-closed-form deviation: dF {dev_f:.3e}, dG {dev_g:.3e} "
            f"(tol {tol_deriv:.1e}); the closed forms carry c_F = 1 and c_G = (3-p)^-2 = "
            f"{c_g:.12g}, the normalization the raw dG/dt integrand omits",
        ),
        StageVerdict.judge(
            "holder-chain",
            holder_dev <= tol_holder,
            f"max relative interpolation-chain gap = {holder_dev:.3e} (tol {tol_holder:.1e})",
        ),
    ]
    constants = {
        "c_F": c_f,
        "c_G": c_g,
        "dG_proportionality": ordering.proportionality_constant,
        "dG_proportionality_expected": ordering.proportionality_expected,
    }
    return ScenarioReport(
        config=_config_echo(config, p.value),
        rows=table_rows(table),
        verdicts=verdicts,
        constants=constants,
    )


def _scenario_check(config: RunConfig, model: geometry.ManifoldModel) -> ScenarioReport:
    rng = np.random.default_rng(config.seed)
    r_hi = model.r_max
    r_lo = model.r_min if model.r_min > 0.0 else 1e-6 * r_hi
    radii = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), size=100))
    tol_identity = config.tolerance("identity")
    tol_gb = config.tolerance("gauss_bonnet")
    tol_umb = config.tolerance("umbilicity")

    def survey():
        gauss_worst = gb_worst = umb_worst = 0.0
        for r in radii.tolist():
            gauss_worst = max(gauss_worst, abs(geometry.gauss_identity_residual(model, r)))
            geo = geometry.levelset_geometry(model, r)
            gb_worst = max(gb_worst, abs(geo.sc_tangential * geo.area - 8.0 * math.pi))
            umb_worst = max(umb_worst, abs(geo.traceless_sff_norm_sq))
        return gauss_worst, gb_worst, umb_worst, geometry.pinching_margin(model)

    gauss_worst, gb_worst, umb_worst, pinch = rigidity._run_stage("check-identities", survey)
    verdicts = [
        StageVerdict.judge(
            "gauss-identity",
            gauss_worst <= tol_identity,
            f"max residual {gauss_worst:.3e} over 100 seeded radii (tol {tol_identity:.1e})",
        ),
        StageVerdict.judge(
            "gauss-bonnet",
            gb_worst <= tol_gb,
            f"max |total tangential curvature - 8 pi| = {gb_worst:.3e} (tol {tol_gb:.1e})",
        ),
        StageVerdict.judge(
            "umbilicity",
            umb_worst <= tol_umb,
            f"max traceless second-fundamental-form norm {umb_worst:.3e} (tol {tol_umb:.1e})",
        ),
        StageVerdict.judge(
            "pinching-survey",
            pinch.nonneg_ricci,
            f"margin {pinch.margin:.6g}, nonneg Ricci {pinch.nonneg_ricci}, "
            f"worst radius {pinch.worst_radius:.6g}",
        ),
    ]
    constants = {
        "gauss_residual_max": gauss_worst,
        "gauss_bonnet_deviation_max": gb_worst,
        "pinching_margin": pinch.margin,
    }
    return ScenarioReport(
        config=_config_echo(config, None), rows=[], verdicts=verdicts, constants=constants
    )


def _scenario_willmore(config: RunConfig, model: geometry.ManifoldModel) -> ScenarioReport:
    rep = rigidity._run_stage("willmore-expansion", lambda: functionals.small_sphere_expansion(model))
    tol = config.tolerance("willmore_coefficient")
    verdicts = [
        StageVerdict.judge(
            "willmore-expansion",
            rep.relative_deviation <= tol,
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


_SCENARIOS = {
    "solve": _scenario_solve,
    "monotone": _scenario_monotone,
    "contradict": _scenario_contradict,
    "check-identities": _scenario_check,
    "willmore-expansion": _scenario_willmore,
}


def run(config: RunConfig) -> ScenarioReport:
    """Execute the configured scenario; deterministic given the config."""
    return _SCENARIOS[config.scenario](config, build_model(config.model))


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
    lines = [",".join(ROW_COLUMNS)]
    for row in report.rows:
        lines.append(",".join(format(float(row[c]), ".17g") for c in ROW_COLUMNS))
    return "\n".join(lines) + "\n"


def _verdicts_json(report: ScenarioReport, **fields) -> str:
    payload = _jsonable(
        {
            "config": report.config,
            "constants": report.constants,
            "failed_hypothesis": report.failed_hypothesis,
            "verdicts": report.verdicts,
            **fields,
        }
    )
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _report_json(report: ScenarioReport) -> str:
    return _verdicts_json(report, columns=list(ROW_COLUMNS), rows=report.rows)


def summary_text(report: ScenarioReport) -> str:
    """Human-readable one-screen summary of a scenario report."""
    cfg = report.config
    lines = [
        f"scenario: {cfg.get('scenario', '?')}  model: {cfg.get('model', {}).get('kind', '?')}"
        f"  p: {cfg.get('p_resolved', cfg.get('p', '?'))}"
    ]
    for verdict in report.verdicts:
        lines.append(f"  [{verdict.tag}] {verdict.name}: {verdict.reason}")
    if report.failed_hypothesis is not None:
        lines.append(f"failed hypothesis: {report.failed_hypothesis}")
    if report.constants:
        lines.append("constants:")
        for key in sorted(report.constants):
            lines.append(f"  {key} = {report.constants[key]}")
    lines.append(f"rows: {len(report.rows)}")
    return "\n".join(lines) + "\n"


def _write_all(files: dict[Path, str]):
    """Write each file's text, opening every file before any is written.

    Opening truncates nothing, so a file that cannot be opened (a directory,
    under a regular file, not permitted) raises its OSError with every file as
    it was: the files this call created are removed first.
    """
    opened = []
    try:
        for target in files:
            created = not target.exists()
            opened.append((os.open(target, os.O_WRONLY | os.O_CREAT, 0o666), target, created))
    except OSError:
        for fd, target, created in opened:
            os.close(fd)
            if created:
                target.unlink()
        raise
    with contextlib.ExitStack() as stack:
        streams = [stack.enter_context(open(fd, "wb")) for fd, _, _ in opened]
        for stream, text in zip(streams, files.values()):
            stream.truncate(0)
            stream.write(text.encode("utf-8"))


def emit(report: ScenarioReport, fmt: str = "csv", out: str | None = None):
    """Write the report; returns written paths, or the summary text if out is None.

    A path that cannot be written (its parent a regular file or not
    creatable, or the path itself a directory) is refused as a ConfigError
    naming it, and every file is left as it was (see :func:`_write_all`).
    """
    if fmt not in FORMATS:
        raise ConfigError(f"format: unknown format {fmt!r}; choices: {FORMATS}")
    if out is None:
        return summary_text(report)
    path = Path(out)
    if fmt == "json":
        files = {path: _report_json(report)}
    else:
        sidecar = path.with_suffix(".verdicts.json") if path.suffix == ".csv" else Path(str(path) + ".verdicts.json")
        files = {path: _csv_text(report), sidecar: _verdicts_json(report)}
    try:
        if not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        _write_all(files)
    except OSError as exc:
        raise ConfigError(f"out: cannot write {str(exc.filename or out)!r}: {exc.strerror or exc}") from exc
    return [str(target) for target in files]


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


def build_parser() -> argparse.ArgumentParser:
    """One parser: the subcommand is a positional choice, and each flag is
    declared once, so it may stand before or after the subcommand."""
    parser = argparse.ArgumentParser(
        prog="pinchlab",
        description="Numerical laboratory for p-harmonic capacitary potentials on "
        "rotationally symmetric 3-manifolds.",
    )
    parser.add_argument(
        "command",
        choices=_SUBCOMMAND_SCENARIO,
        metavar="command",
        help="the scenario to run: solve, monotone, contradict, check (check-identities), "
        "willmore (willmore-expansion), or report (the scenario named in --config)",
    )
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--out", help="output path (CSV or JSON); omit for a terminal summary")
    parser.add_argument("--format", choices=FORMATS, help="output format (default csv)")
    parser.add_argument("--grid-n", type=int, dest="grid_n", help="override the radial grid size")
    parser.add_argument(
        "--tol",
        action="append",
        metavar="NAME=VALUE",
        help="override a named tolerance (repeatable)",
    )
    parser.add_argument("--model", help="library model name (alternative to --config)")
    parser.add_argument("--p", help='exponent in (1, 2), or "auto"')
    return parser


def _read_config(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"--config: cannot read {path!r}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"--config: {path!r} is not UTF-8 text: {exc}") from exc


def _config_from_args(args) -> RunConfig:
    """The config of --config, or of --model alone, with every flag given
    overriding its config key (--model the config's model among them)."""
    if args.model is not None and args.model not in geometry.LIBRARY:
        raise ConfigError(
            f"--model: unknown library model {args.model!r}; choices: {sorted(geometry.LIBRARY)}"
        )
    if args.config is not None:
        config = parse_config(_read_config(args.config))
    elif args.model is not None:
        config = RunConfig(model=geometry.LIBRARY[args.model], scenario="solve")
    else:
        raise ConfigError("either --config or --model is required")

    updates = {}
    if args.model is not None:
        updates["model"] = geometry.LIBRARY[args.model]
    scenario = _SUBCOMMAND_SCENARIO[args.command]
    if scenario is not None:
        updates["scenario"] = scenario
    elif args.config is None:
        raise ConfigError("the 'report' subcommand needs --config naming a scenario")
    if args.out is not None:
        updates["out"] = args.out
    if args.format is not None:
        updates["format"] = args.format
    if args.grid_n is not None:
        updates["n_grid"] = args.grid_n
    if args.p is not None:
        p = args.p
        if p != "auto":
            try:
                p = float(p)
            except ValueError as exc:
                raise ConfigError(f'--p: expected a number or "auto", got {p!r}') from exc
            _check_with(as_p, p, "--p")
        updates["p"] = p
    tol = _parse_tol_flag(args.tol)
    if tol:
        unknown = set(tol) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ConfigError(f"--tol: unknown tolerance names {sorted(unknown)}")
        updates["tolerances"] = {**config.tolerances, **tol}
    config = dataclasses.replace(config, **updates)
    # re-validate after flag overrides
    return parse_config(json.dumps(dataclasses.asdict(config)))


def main(argv=None) -> int:
    # What the imports built (modules, classes, functions) lives until the
    # process exits.  Freezing it keeps every later collection, the final ones
    # at shutdown among them, from walking it again; no object's lifetime changes.
    gc.freeze()
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
