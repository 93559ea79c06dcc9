"""Config parsing, report emission, determinism, and the command line surface."""

import gc
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pinchlab as pl
from conftest import count_level_queries
from pinchlab.cli import _config_from_args, build_parser, main, summary_text
from test_cli_matrix import check_against_manifest

CSV_HEADER = "t,r,area,H,grad_w,F,G,dF_fd,dF_cf,dG_fd,dG_cf,cap,cap_ratio_to_exp_t,gb,willmore,holder_gap"

MINIMAL = '{"model": {"kind": "flat"}, "scenario": "solve"}'


def _cfg(**overrides):
    raw = {"model": {"kind": "flat"}, "scenario": "solve"}
    raw.update(overrides)
    return pl.parse_config(json.dumps(raw))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_defaults():
    config = pl.parse_config(MINIMAL)
    assert config.model == {"kind": "flat"}
    assert config.scenario == "solve"
    assert config.p == "auto"
    assert config.r0 == 1.0 and config.r_max is None
    assert config.n_grid == 4096 and config.n_levels == 64
    assert config.format == "csv" and config.out is None
    assert config.seed == 0 and config.margin == 0.5 and config.eps is None
    assert config.tolerance("capacity") == 1e-6
    assert config.tolerance("identity") == 1e-10


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("not json", "malformed JSON"),
        ("[1, 2]", "top-level"),
        ('{"scenario": "solve"}', "model"),
        ('{"model": {"kind": "flat"}}', "scenario"),
        ('{"model": {"kind": "flat"}, "scenario": "solve", "zzz": 1}', "unknown keys"),
        ('{"model": {"kind": "torus"}, "scenario": "solve"}', "unknown model kind"),
        ('{"model": {"kind": []}, "scenario": "solve"}', "unknown model kind"),
        ('{"model": {"kind": "flat", "a": 1}, "scenario": "solve"}', "unknown parameters"),
        ('{"model": {"kind": "flat"}, "scenario": "dance"}', "unknown scenario"),
        ('{"model": {"kind": "flat"}, "scenario": "solve", "p": 2.0}', r"\(1, 2\)"),
        ('{"model": {"kind": "flat"}, "scenario": "solve", "r0": -1}', "r0"),
        ('{"model": {"kind": "flat"}, "scenario": "solve", "n_grid": 4096.5}', "integer"),
        ('{"model": {"kind": "flat"}, "scenario": "solve", "n_grid": 8}', "at least 16"),
        ('{"model": {"kind": "flat"}, "scenario": "solve", "eps": 0.5}', "eps"),
        (
            '{"model": {"kind": "flat"}, "scenario": "solve", "tolerances": {"bogus": 1e-3}}',
            "unknown tolerance",
        ),
        (
            '{"model": {"kind": "flat"}, "scenario": "solve", "tolerances": {"divergence": 1e-5}}',
            "unknown tolerance",
        ),
        (
            '{"model": {"kind": "flat"}, "scenario": "solve", "tolerances": {"capacity": -1}}',
            "positive",
        ),
        ('{"model": {"kind": "flat"}, "scenario": "solve", "format": "xml"}', "format"),
        pytest.param(
            '{"model": {"kind": "flat"}, "scenario": "solve", "r0": 1%s}' % ("0" * 400),
            r"^r0: expected a finite number, got about 1e400$",
            id="r0-integer-beyond-float",
        ),
        pytest.param(
            '{"model": {"kind": "spline_cap", "n_knots": -1%s}, "scenario": "solve"}' % ("0" * 400),
            r"^model\.n_knots: expected a finite number, got about -1e400$",
            id="n_knots-integer-beyond-float",
        ),
        pytest.param(
            '{"model": {"kind": "flat"}, "scenario": "solve", "seed": 1%s}' % ("0" * 5000),
            "malformed JSON: Exceeds the limit",
            id="integer-beyond-int-digit-limit",
        ),
    ],
)
def test_parse_rejections(text, fragment):
    with pytest.raises(pl.ConfigError, match=fragment):
        pl.parse_config(text)


def test_parser_accepts_wide_cone():
    # a = 1.2 is a perfectly valid *parse*; its geometry is flagged later by
    # the pinching analysis, not by the config layer.
    config = _cfg(model={"kind": "cone", "a": 1.2})
    model = pl.build_model(config.model)
    assert not pl.pinching_margin(model).nonneg_ricci


def test_build_model_maps_geometry_errors_to_config_errors():
    with pytest.raises(pl.ConfigError, match="model"):
        pl.build_model({"kind": "cone", "a": -1.0})


def test_model_kinds_and_library_names_come_from_geometry(capsys):
    # a kind takes exactly its factory's keyword parameters, an int-annotated
    # one as an integer; a library name is a spec that builds the library model
    every = {name for factory in pl.geometry.MODELS.values() for name in inspect.signature(factory).parameters}
    for kind, factory in pl.geometry.MODELS.items():
        params = inspect.signature(factory).parameters
        for name in sorted(every | {"bogus"}):
            text = json.dumps({"model": {"kind": kind, name: 4.5}, "scenario": "solve"})
            if name not in params:
                message = f"model: unknown parameters for kind {kind!r}: [{name!r}]"
            elif params[name].annotation == "int":
                message = f"model.{name}: expected an integer, got 4.5"
            else:
                assert pl.parse_config(text).model == {"kind": kind, name: 4.5}
                continue
            with pytest.raises(pl.ConfigError) as excinfo:
                pl.parse_config(text)
            assert str(excinfo.value) == message
    with pytest.raises(pl.ConfigError) as excinfo:
        pl.parse_config('{"model": {"kind": "torus"}, "scenario": "solve"}')
    assert str(excinfo.value) == f"model.kind: unknown model kind 'torus'; choices: {tuple(pl.geometry.MODELS)}"
    library = pl.library()
    assert list(library) == list(pl.geometry.LIBRARY)
    for name, spec in pl.geometry.LIBRARY.items():
        assert pl.build_model(spec).describe() == library[name].describe()
    assert main(["solve", "--model", "nope"]) == 2
    assert _error_lines(capsys) == [
        f"error: --model: unknown library model 'nope'; choices: {sorted(pl.geometry.LIBRARY)}"
    ]


def test_serialize_round_trip():
    config = _cfg(
        p=1.5,
        n_grid=512,
        tolerances={"capacity": 1e-5},
        model={"kind": "power_warp", "alpha": 1.5},
        seed=7,
    )
    assert pl.parse_config(pl.serialize(config)) == config


# ---------------------------------------------------------------------------
# running scenarios through the front door
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def solve_report():
    return pl.run(pl.parse_config(json.dumps({
        "model": {"kind": "flat"},
        "scenario": "solve",
        "p": 1.5,
        "n_grid": 1024,
        "n_levels": 8,
    })))


def test_run_solve_flat(solve_report):
    report = solve_report
    assert pl.cli._csv_text(report).split("\n", 1)[0] == ",".join(pl.ROW_COLUMNS)
    assert json.loads(pl.cli._report_json(report))["columns"] == list(pl.ROW_COLUMNS)
    assert len(report.rows) == 8
    assert all(v.status == "pass" for v in report.verdicts)
    assert report.failed_hypothesis is None
    assert report.config["p_resolved"] == 1.5
    first = report.rows[0]
    assert abs(first["F"] - 4.0 * math.pi) < 1e-8
    assert abs(first["cap_ratio_to_exp_t"] - 1.0) < 1e-9
    # the exact constants, proved in test_symbolic.py, not a measurement
    assert report.constants["c_F"] == 1.0
    assert report.constants["c_G"] == 1.0 / 1.5**2


def test_run_monotone_has_derivative_audit():
    report = pl.run(pl.parse_config(json.dumps({
        "model": {"kind": "power_warp", "alpha": 1.5},
        "scenario": "monotone",
        "p": 1.5,
        "n_grid": 1024,
        "n_levels": 8,
    })))
    names = [v.name for v in report.verdicts]
    assert "monotone-F" in names and "monotone-G" in names
    assert "derivative-match" in names
    assert report.verdict("monotone-F").status == "pass"
    assert report.constants["c_F"] == 1.0
    assert report.constants["c_G"] == 1.0 / (3.0 - 1.5) ** 2
    assert "c_G = (3-p)^-2 = 0.444444444444" in report.verdict("derivative-match").reason


def test_monotone_inverts_its_levels_in_one_call(monkeypatch):
    # the ordering report reads every row, so the only level inversion is the
    # rows' own batch; its verdict and its numbers are ordering_check's
    pots = []
    calls = count_level_queries(monkeypatch)
    solve = pl.rigidity.solve_radial

    def recording(*args, **kwargs):
        pots.append(solve(*args, **kwargs))
        return pots[-1]

    monkeypatch.setattr(pl.rigidity, "solve_radial", recording)
    report = pl.run(pl.parse_config(json.dumps({
        "model": {"kind": "power_warp", "alpha": 1.5},
        "scenario": "monotone",
        "p": 1.5,
        "n_grid": 1024,
    })))
    assert calls == [5 * 64 + 1]
    table = pl.functionals.level_table(pots[0], [row["t"] for row in report.rows])
    ordering = pl.ordering_check(pots[0], table)
    assert ordering.ordering_ok and report.verdict("ordering").status == "pass"
    assert report.constants["dG_proportionality"] == ordering.proportionality_constant
    assert report.constants["dG_proportionality_expected"] == ordering.proportionality_expected


def test_scenarios_call_the_public_dichotomy_and_ordering(monkeypatch):
    # the comparison ODE and the ordering have one path each, reached through
    # the rigidity module's bindings; a stuck branch (cone_0.8 at eps = 1e-3)
    # reads the envelope at the rounded horizon alone, a decaying one not at all
    calls, sizes = [], []
    for name in ("decay_dichotomy", "ordering_check"):
        inner = getattr(pl.rigidity, name)
        monkeypatch.setattr(
            pl.rigidity, name,
            lambda *args, _name=name, _inner=inner, **kwargs: calls.append(_name) or _inner(*args, **kwargs),
        )
    envelope = pl.rigidity._envelope
    monkeypatch.setattr(
        pl.rigidity, "_envelope", lambda traj, times: sizes.append(times.size) or envelope(traj, times)
    )
    report = pl.run(pl.parse_config(json.dumps({
        "model": {"kind": "cone", "a": 0.8}, "scenario": "contradict", "p": 1.5, "n_grid": 256,
    })))
    assert report.constants["K_envelope_ode"] > 0.0
    assert report.constants["ode_crossing_time"] is None
    assert calls == ["decay_dichotomy"] and sizes == [1]
    pl.run(pl.parse_config(json.dumps({
        "model": {"kind": "power_warp", "alpha": 1.5}, "scenario": "monotone", "p": 1.5,
        "n_grid": 256,
    })))
    assert calls == ["decay_dichotomy", "ordering_check"]
    for F0 in (1.0, 6.0):  # below the dichotomy constant, and crossing it at T > 0
        assert pl.rigidity.decay_dichotomy(1.5, 0.3, F0).branch == "decay"
    assert sizes == [1]


@pytest.mark.parametrize("spec, r0", [
    pytest.param({"kind": "positive_cap", "k": 1.0}, 1.0, id="positive_cap_1"),
    pytest.param({"kind": "spline_cap", "k": 0.5}, 0.25, id="spline_cap_0.5"),
])
def test_auto_p_fits_the_growth_gates_window(spec, r0, monkeypatch):
    # r0 lies past half the truncation radius: both fits fall back to the
    # gate's window, which reaches down towards the pole; the model keeps the
    # fit, so the window's volumes are computed once
    windows, volume_sizes = [], []
    fit, ball_volume = pl.geometry.growth_exponent, pl.geometry.ball_volume
    monkeypatch.setattr(
        pl.geometry, "growth_exponent", lambda model, lo, hi: windows.append((lo, hi)) or fit(model, lo, hi)
    )
    monkeypatch.setattr(
        pl.geometry, "ball_volume", lambda model, r: volume_sizes.append(np.size(r)) or ball_volume(model, r)
    )
    report = pl.run(pl.parse_config(json.dumps({
        "model": spec, "scenario": "contradict", "p": "auto", "r0": r0, "n_grid": 256,
    })))
    assert report.config["p_resolved"] == 1.5
    assert len(windows) == 2 and windows[0] == windows[1]
    assert volume_sizes.count(pl.geometry.GROWTH_SAMPLES) == 1


@pytest.mark.parametrize("spec", [
    pytest.param({"kind": "cone", "a": 0.8}, id="cone_0.8"),
    pytest.param({"kind": "positive_cap", "k": 1.0}, id="positive_cap_1"),
])
def test_a_p_sweep_builds_checks_and_fits_each_model_once(spec, monkeypatch):
    # only the potential and what is read off it depend on p: a contradict
    # sweep over one spec builds its model once, evaluates the pinching grid
    # once, and computes the volumes of each growth window (one per r0) once
    builds, grid_sizes, ladders = [], [], []
    factory = pl.geometry.MODELS[spec["kind"]]
    curvature_arrays, ball_volume = pl.geometry._curvature_arrays, pl.geometry.ball_volume

    def counting_factory(**params):
        builds.append(params)
        return factory(**params)

    def recording_volume(model, r):
        if np.size(r) == pl.geometry.GROWTH_SAMPLES:
            ladders.append(tuple(np.asarray(r).tolist()))
        return ball_volume(model, r)

    monkeypatch.setitem(pl.geometry.MODELS, spec["kind"], counting_factory)
    monkeypatch.setattr(
        pl.geometry, "_curvature_arrays", lambda model, r: grid_sizes.append(np.size(r)) or curvature_arrays(model, r)
    )
    monkeypatch.setattr(pl.geometry, "ball_volume", recording_volume)
    for r0 in (1.0, 0.05):
        for p in (1.2, 1.5, 1.8):
            pl.run(pl.parse_config(json.dumps({
                "model": spec, "scenario": "contradict", "p": p, "r0": r0, "n_grid": 256,
            })))
    assert len(builds) == 1
    assert grid_sizes == [pl.geometry.PINCHING_GRID_N]
    assert len(ladders) == len(set(ladders)) == 2


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_a_p_sweep_evaluates_the_warp_at_the_gauss_points_once_per_grid(order, monkeypatch):
    # a model keeps h at the Gauss points of its last cell-flux grid: a contradict
    # sweep over p evaluates the warp at the 12 (n - 1) points once per model
    # and grid, and gives, row for row, what fresh models give
    ps = (1.2, 1.5, 1.8) if order == "ascending" else (1.8, 1.5, 1.2)
    cases = [("positive_cap_1", 1.0), ("positive_cap_1", 0.05), ("spline_cap_0.5", 0.25)]
    configs = [
        pl.parse_config(json.dumps({
            "model": pl.geometry.LIBRARY[name], "scenario": "contradict", "p": p, "r0": r0,
        }))
        for name, r0 in cases for p in ps
    ]

    def outcome(config) -> str:
        report = pl.run(config)
        return repr((report.rows, report.verdicts, report.constants, report.failed_hypothesis))

    fresh = []
    for config in configs:
        pl.cli._kept_models.clear()
        fresh.append(outcome(config))
    pl.cli._kept_models.clear()
    sizes = []
    warp_h = pl.geometry.WarpFunction.h
    monkeypatch.setattr(
        pl.geometry.WarpFunction, "h", lambda self, r: sizes.append(np.size(r)) or warp_h(self, r)
    )
    assert [outcome(config) for config in configs] == fresh
    gauss_points = 12 * (configs[0].n_grid - 1)
    assert sizes.count(gauss_points) == len(cases)
    for name, r0 in cases[1:]:
        kept = vars(pl.build_model(pl.geometry.LIBRARY[name]))["_warp_grids"]
        assert [key[0] for key in kept] == [r0]  # the last grid alone


def test_equal_specs_share_a_model_and_others_share_nothing():
    # a spec's model is kept and shared; cone 0.8 and 0.81, and power_warp 1.9
    # at r_max 1e4 and 1e8 (whose pinching depends on where the grid stops),
    # each get their own model with their own results, equal to a fresh model's
    pairs = [
        ({"kind": "cone", "a": 0.8}, {"kind": "cone", "a": 0.81}),
        ({"kind": "power_warp", "alpha": 1.9}, {"kind": "power_warp", "alpha": 1.9, "r_max": 1e8}),
    ]
    for specs in pairs:
        models = [pl.build_model(spec) for spec in specs]
        assert all(pl.build_model(dict(spec)) is model for spec, model in zip(specs, models))
        for spec, model in zip(specs, models):
            fresh = pl.geometry._model_of(spec)
            assert pl.pinching_margin(model) == pl.pinching_margin(fresh)
            assert pl.growth_exponent(model, 1.0, 100.0) == pl.growth_exponent(fresh, 1.0, 100.0)
        assert pl.pinching_margin(models[0]) is not pl.pinching_margin(models[1])
        assert pl.growth_exponent(models[0], 1.0, 100.0) is not pl.growth_exponent(models[1], 1.0, 100.0)
    cone_avr = [pl.growth_exponent(pl.build_model(spec), 1.0, 100.0).avr for spec in pairs[0]]
    assert cone_avr == pytest.approx([0.8**2, 0.81**2], rel=1e-12)
    margins = [pl.pinching_margin(pl.build_model(spec)).margin for spec in pairs[1]]
    assert margins[0] > pl.rigidity.EPS_THRESHOLD > margins[1]
    # a spec differing only in the sign of a zero gets its own model and name
    names = [pl.build_model({"kind": "spline_cap", "k": k}).name for k in (0.0, -0.0)]
    assert names == ["spline_cap(0)", "spline_cap(-0)"]


def test_kept_models_are_bounded():
    specs = [{"kind": "cone", "a": 0.5 + i / 100} for i in range(pl.cli._MODELS_KEPT + 1)]
    models = [pl.build_model(spec) for spec in specs]
    assert len(pl.cli._kept_models) == pl.cli._MODELS_KEPT
    assert pl.build_model(specs[-1]) is models[-1]
    assert pl.build_model(specs[0]) is not models[0]  # the oldest was dropped, and builds anew
    assert len(pl.cli._kept_models) == pl.cli._MODELS_KEPT


def test_run_check_identities():
    report = pl.run(pl.parse_config(json.dumps({
        "model": {"kind": "spline_cap", "k": 0.5},
        "scenario": "check-identities",
        "n_grid": 256,
    })))
    assert report.rows == []
    for name in ("gauss-identity", "gauss-bonnet", "umbilicity", "pinching-survey"):
        assert report.verdict(name).status == "pass", name


def test_run_willmore_expansion():
    report = pl.run(pl.parse_config(json.dumps({
        "model": {"kind": "positive_cap", "k": 1.0},
        "scenario": "willmore-expansion",
    })))
    assert report.verdict("willmore-expansion").status == "pass"
    assert report.constants["willmore_deviation"] < 0.02


def test_run_contradict_echoes_stage_options():
    report = pl.run(pl.parse_config(json.dumps({
        "model": {"kind": "cone", "a": 0.8},
        "scenario": "contradict",
        "p": 1.5,
        "n_grid": 1024,
        "n_levels": 16,
    })))
    assert report.failed_hypothesis == "pinching"
    assert report.config["stage_options"]["n_grid"] == 1024
    assert report.config["stage_options"]["holder_tol"] == 1e-8


@pytest.mark.parametrize("scenario", ["monotone", "contradict"])
def test_holder_tolerance_reaches_the_holder_chain(scenario):
    base = {"model": {"kind": "power_warp", "alpha": 1.5}, "scenario": scenario, "p": 1.5,
            "n_grid": 1024, "n_levels": 8}
    default = pl.run(pl.parse_config(json.dumps(base)))
    assert default.verdict("holder-chain").status == "pass"
    strict = pl.run(pl.parse_config(json.dumps(base | {"tolerances": {"holder": 1e-300}})))
    assert strict.verdict("holder-chain").status == "fail"


def test_level_scenarios_share_their_rows():
    reports = [
        pl.run(pl.parse_config(json.dumps({
            "model": {"kind": "cone", "a": 0.8}, "scenario": scenario, "p": 1.37,
            "n_grid": 1024, "n_levels": 12,
        })))
        for scenario in ("solve", "monotone", "contradict")
    ]
    assert reports[0].rows == reports[1].rows == reports[2].rows


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def test_emit_csv_layout(solve_report, tmp_path):
    out = tmp_path / "run.csv"
    written = pl.emit(solve_report, "csv", str(out))
    assert written == [str(out), str(tmp_path / "run.verdicts.json")]
    data = out.read_bytes()
    assert b"\r" not in data
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 8
    # 17 significant digits survive a float round-trip exactly
    cell = lines[1].split(",")[5]
    assert float(cell) == solve_report.rows[0]["F"]
    verdicts = json.loads((tmp_path / "run.verdicts.json").read_text())
    assert {v["name"] for v in verdicts["verdicts"]} >= {"solve", "capacity-law"}
    assert all(v["reason"] for v in verdicts["verdicts"])


def test_emit_is_deterministic(tmp_path):
    cfg = json.dumps({
        "model": {"kind": "power_warp", "alpha": 1.5},
        "scenario": "solve",
        "p": 1.5,
        "n_grid": 512,
        "n_levels": 6,
    })
    blobs = []
    for tag in ("a", "b"):
        report = pl.run(pl.parse_config(cfg))
        out = tmp_path / f"{tag}.csv"
        pl.emit(report, "csv", str(out))
        blobs.append(out.read_bytes() + (tmp_path / f"{tag}.verdicts.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_emit_json_is_clean(solve_report, tmp_path):
    out = tmp_path / "run.json"
    assert pl.emit(solve_report, "json", str(out)) == [str(out)]
    text = out.read_text()
    assert "NaN" not in text and "Infinity" not in text
    doc = json.loads(text)
    assert list(doc) == sorted(doc)
    assert doc["failed_hypothesis"] is None
    assert len(doc["rows"]) == 8


def test_emit_summary(solve_report):
    text = pl.emit(solve_report, "csv", None)
    assert text == summary_text(solve_report)
    assert "[PASS] solve:" in text
    assert "scenario: solve" in text


def test_emit_format_guard(solve_report):
    with pytest.raises(pl.ConfigError):
        pl.emit(solve_report, "xml", None)


# ---------------------------------------------------------------------------
# command line entry point
# ---------------------------------------------------------------------------


def test_main_with_library_model(capsys):
    assert main(["check", "--model", "spline_cap_0.5", "--grid-n", "256"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] gauss-identity" in out


def test_main_with_config_and_flags(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"kind": "flat"},
        "scenario": "solve",
        "p": 1.5,
        "n_levels": 4,
    }))
    out_path = tmp_path / "flat.csv"
    code = main([
        "solve", "--config", str(cfg_path), "--grid-n", "512",
        "--tol", "capacity=1e-5", "--out", str(out_path),
    ])
    assert code == 0
    assert out_path.exists()
    assert f"wrote {out_path}" in capsys.readouterr().out


def test_main_report_subcommand_keeps_config_scenario(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"kind": "flat"},
        "scenario": "check-identities",
        "n_grid": 256,
    }))
    assert main(["report", "--config", str(cfg_path)]) == 0
    assert "scenario: check-identities" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["solve", "--model", "nope"], "unknown library model"),
        (["solve", "--model", "flat", "--p", "2.0"], "--p"),
        (["solve", "--model", "flat", "--tol", "capacity"], "NAME=VALUE"),
        (["solve", "--model", "flat", "--tol", "bogus=1"], "unknown tolerance"),
        (["report", "--model", "flat"], "needs --config"),
        (["solve"], "either --config or --model"),
    ],
)
def test_main_error_paths(argv, fragment, capsys):
    assert main(argv) == 2
    assert fragment in capsys.readouterr().err


def _src_env() -> dict:
    """The environment of a child interpreter that imports pinchlab from this checkout."""
    src = Path(pl.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def test_python_m_pinchlab_runs_cleanly(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "pinchlab", "solve", "--model", "flat", "--grid-n", "256"],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "[PASS] solve:" in proc.stdout


@pytest.mark.parametrize(
    "argv, config",
    [
        (
            ["contradict", "--model", "cone_0.8", "--p", "1.5", "--out", "run.csv"],
            {"model": {"kind": "cone", "a": 0.8}, "scenario": "contradict", "p": 1.5,
             "out": "run.csv"},
        ),
        (
            ["solve", "--model", "flat", "--format", "json", "--out", "run.json"],
            {"model": {"kind": "flat"}, "scenario": "solve", "format": "json", "out": "run.json"},
        ),
    ],
    ids=["contradict-csv", "solve-json"],
)
def test_frozen_exit_prints_and_writes_what_emit_writes(argv, config, tmp_path, monkeypatch, capsys):
    # main freezes the import heap, so a fresh process exits without collecting
    # it; it must still print what main prints in process and write the bytes
    # that emit(run(config)) writes
    cold, warm, library = (tmp_path / name for name in ("cold", "warm", "library"))
    for directory in (cold, warm, library):
        directory.mkdir()
    proc = subprocess.run(
        [sys.executable, "-m", "pinchlab", *argv],
        cwd=cold, env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

    monkeypatch.chdir(warm)
    gc.unfreeze()
    assert gc.get_freeze_count() == 0
    try:
        assert main(argv) == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert proc.stdout.splitlines() == capsys.readouterr().out.splitlines()

    monkeypatch.chdir(library)
    cfg = pl.parse_config(json.dumps(config))
    written = pl.emit(pl.run(cfg), cfg.format, cfg.out)
    assert sorted(p.name for p in cold.iterdir()) == sorted(written)
    for name in written:
        assert (cold / name).read_bytes() == (library / name).read_bytes()
        assert (warm / name).read_bytes() == (library / name).read_bytes()


_PROBE = """
import json, runpy, sys
prefix, argv = sys.argv[1], sys.argv[2:]
if argv:
    sys.argv = ["pinchlab", *argv]
    try:
        runpy.run_module("pinchlab", run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, exc.code
else:
    import pinchlab
print(json.dumps(sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))))
"""


def _loaded_under(prefix: str, *argv: str, cwd) -> list[str]:
    """The modules named prefix or prefix.* that a fresh ``python -W error``
    has loaded after ``pinchlab *argv`` exits 0, or after ``import pinchlab``
    when argv is empty; the child must write nothing to stderr."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _PROBE, prefix, *argv],
        cwd=cwd, env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("model", ["power_warp_1.5", "flat"])
def test_contradict_loads_no_scipy(model, tmp_path):
    out = tmp_path / "out.csv"
    assert _loaded_under("scipy", "contradict", "--model", model, "--out", str(out), cwd=tmp_path) == []
    assert _loaded_under("scipy", cwd=tmp_path) == []
    assert out.exists()


def test_contradict_loads_no_numpy_polynomial(tmp_path):
    # the Gauss-Legendre rules are tabulated: numpy.polynomial costs a cold
    # import a few milliseconds, and nothing else in pinchlab needs it
    out = tmp_path / "out.csv"
    argv = ("contradict", "--model", "power_warp_1.5", "--out", str(out))
    assert _loaded_under("numpy.polynomial", *argv, cwd=tmp_path) == []
    assert _loaded_under("numpy.polynomial", cwd=tmp_path) == []
    assert out.exists()


def test_monotone_loads_no_numpy_ma(tmp_path):
    # the dG/dt fit's median comes from one sort: np.median would import
    # numpy.ma, ~10 ms of a cold process, on a model whose F and G rows differ
    out = tmp_path / "out.csv"
    argv = ("monotone", "--model", "power_warp_1.5", "--p", "1.5", "--out", str(out))
    assert _loaded_under("numpy.ma", *argv, cwd=tmp_path) == []
    assert out.exists()


@pytest.mark.parametrize("model", ["power_warp_1.5", "flat"])
@pytest.mark.parametrize("command", ["solve", "monotone", "check"])
def test_scenarios_load_no_scipy(command, model, tmp_path):
    # scipy is a test dependency only: no scenario loads it
    out = tmp_path / "out.csv"
    argv = (command, "--model", model, "--p", "1.5", "--out", str(out))
    assert _loaded_under("scipy", *argv, cwd=tmp_path) == []
    assert out.exists()


_VARIATIONAL_PROBE = """
import sys
import pinchlab as pl
sys.path.insert(0, sys.argv[2])
from conftest import log_linear_profile


def refused(problem, initial, reason):
    try:
        pl.minimize_energy(problem, initial=initial)
    except pl.ConvergenceError as exc:
        assert reason in str(exc), exc
    else:
        raise AssertionError(f"certified a profile that should fail: {reason}")


model = {"flat": pl.flat_model, "power_warp_1.5": pl.power_warp_model}[sys.argv[1]]()
problem = pl.discretize(model, 1.5, 1.0, 2**10, 1e3)
solution = pl.minimize_energy(problem)
assert solution.iterations == 0, solution.iterations
assert pl.cross_validate(solution, pl.solve_radial(model, 1.5, 1.0)).passed
refused(problem, log_linear_profile(problem), "scaled gradient")
refused(pl.discretize(pl.flat_model(), 1.01, 1.0, 16, 1e3), None, "underflow")
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""


@pytest.mark.parametrize("model", ["power_warp_1.5", "flat"])
def test_variational_oracle_loads_no_scipy(model, tmp_path):
    # the certificate is one flux evaluation, and a refused profile,
    # underflowing or not, raises without loading scipy
    tests = str(Path(__file__).resolve().parent)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _VARIATIONAL_PROBE, model, tests],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout


_SCIPY_BLOCKED_PROBE = """
import json, sys
from pathlib import Path
sys.modules["scipy"] = None  # importing scipy or any subpackage now raises ImportError
sys.path.insert(0, sys.argv[1])
from test_cli_matrix import run_matrix

print(json.dumps(run_matrix(Path.cwd())))
"""


def test_every_scenario_runs_with_scipy_blocked(tmp_path):
    # in a fresh ``python -W error`` that cannot import scipy, solve,
    # monotone, contradict, check and willmore exit on every library model
    # with the codes, messages and outputs of the CLI matrix manifest
    tests = str(Path(__file__).resolve().parent)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _SCIPY_BLOCKED_PROBE, tests],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    check_against_manifest(json.loads(proc.stdout.splitlines()[-1]))


def test_main_rejects_unreadable_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["solve", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_tol_flags_before_and_after_the_command_are_all_kept():
    argv = ["--tol", "capacity=1", "contradict", "--model", "flat", "--tol", "holder=2"]
    args = build_parser().parse_args(argv)
    assert args.tol == ["capacity=1", "holder=2"]
    assert _config_from_args(args).tolerances == {"capacity": 1.0, "holder": 2.0}


def _error_lines(capsys) -> list[str]:
    return [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]


@pytest.mark.parametrize("out, at_fault, fmt", [
    *[
        (out, at_fault, fmt)
        for out, at_fault in [
            ("afile/x.out", "afile/x.out"),  # under a regular file
            ("adir", "adir"),  # a directory
            ("afile/sub/x.out", "afile/sub"),  # a parent that cannot be created
        ]
        for fmt in ["csv", "json"]
    ],
    # the CSV is writable but its sidecar's path is a directory: neither a new
    # CSV nor an existing one is left behind changed
    ("x.csv", "x.verdicts.json", "csv"),
    ("kept.csv", "kept.verdicts.json", "csv"),
])
def test_an_out_path_that_cannot_be_written_exits_2(out, at_fault, fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("afile", "kept.csv"):
        (tmp_path / name).write_text("kept\n")
    for name in ("adir", "x.verdicts.json", "kept.verdicts.json"):
        (tmp_path / name).mkdir()
    try:
        code = main(["solve", "--model", "flat", "--grid-n", "256", "--format", fmt, "--out", out])
    finally:
        gc.unfreeze()
    assert code == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and lines[0].startswith(f"error: out: cannot write {at_fault!r}: "), lines
    assert sorted(os.listdir(tmp_path)) == [
        "adir", "afile", "kept.csv", "kept.verdicts.json", "x.verdicts.json"
    ]
    assert (tmp_path / "afile").read_text() == "kept\n" == (tmp_path / "kept.csv").read_text()
    for name in ("adir", "x.verdicts.json", "kept.verdicts.json"):
        assert list((tmp_path / name).iterdir()) == []


def test_model_flag_overrides_the_config_model(tmp_path, capsys):
    # a flag overrides its config key, --model included; an unknown name is refused by name
    config = tmp_path / "cone.json"
    config.write_text(json.dumps({"model": {"kind": "cone", "a": 0.8}, "scenario": "solve", "n_grid": 256}))
    args = build_parser().parse_args(["solve", "--config", str(config), "--model", "flat"])
    assert _config_from_args(args).model == {"kind": "flat"}
    try:
        assert main(["solve", "--config", str(config), "--model", "flat"]) == 0
        assert "model: flat" in capsys.readouterr().out
        assert main(["solve", "--config", str(config)]) == 0
        assert "model: cone" in capsys.readouterr().out
        assert main(["solve", "--config", str(config), "--model", "nope"]) == 2
    finally:
        gc.unfreeze()
    assert _error_lines(capsys) == [
        f"error: --model: unknown library model 'nope'; choices: {sorted(pl.geometry.LIBRARY)}"
    ]


@pytest.mark.parametrize("command", ["solve", "monotone", "contradict"])
def test_level_scenarios_name_the_solve_stage(command, capsys):
    # flat at p = 1.02: the tail integral I(r_max) underflows, and each scenario names the stage
    assert main([command, "--model", "flat", "--p", "1.02"]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and lines[0].startswith("error: stage 'solve': tail integral of h^(-2/(p-1))")


@pytest.mark.parametrize("params, message", [
    ({"n_knots": -3}, "spline_cap n_knots must be an integer >= 4, got -3"),
    ({"n_knots": 3}, "spline_cap n_knots must be an integer >= 4, got 3"),
    ({"r_max": -1}, "spline_cap r_max must be positive and finite, got -1.0"),
    ({"r_max": 0}, "spline_cap r_max must be positive and finite, got 0.0"),
    ({"n_knots": 2**14 + 1}, "spline_cap n_knots must be at most 16384, got 16385"),
    ({"n_knots": 1e300}, "spline_cap n_knots must be at most 16384, got about 1e300"),
])
def test_spline_cap_refuses_its_inputs_by_name(params, message, tmp_path, capsys):
    config = tmp_path / "spline.json"
    config.write_text(json.dumps({"model": {"kind": "spline_cap", **params}, "scenario": "check-identities"}))
    assert main(["report", "--config", str(config)]) == 2
    assert _error_lines(capsys) == [f"error: model: {message}"]


@pytest.mark.parametrize("spec, key", [
    ({"model": {"kind": "flat"}, "r0": 10**400}, "r0"),
    ({"model": {"kind": "spline_cap", "n_knots": 10**400}}, "model.n_knots"),
])
def test_integers_beyond_the_float_range_are_refused_by_key(spec, key, tmp_path, capsys):
    # JSON integers have no size limit; one beyond the float range cannot be
    # compared as a float, and is refused by name instead of escaping
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({**spec, "scenario": "check-identities"}))
    assert main(["report", "--config", str(config)]) == 2
    assert _error_lines(capsys) == [f"error: {key}: expected a finite number, got about 1e400"]


def test_main_rejects_non_numeric_p(capsys):
    assert main(["contradict", "--model", "flat", "--p", "abc"]) == 2
    assert [line.startswith("error: --p: ") for line in _error_lines(capsys)] == [True]


def test_main_rejects_missing_config(tmp_path, capsys):
    assert main(["contradict", "--config", str(tmp_path / "missing.json")]) == 2
    assert [line.startswith("error: --config: ") for line in _error_lines(capsys)] == [True]


def test_main_rejects_non_utf8_config(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"model": {"kind": "flat"}, "scenario": "solve", "out": "é.csv"}'.encode("latin-1"))
    assert main(["solve", "--config", str(bad)]) == 2
    assert [line.startswith("error: --config: ") for line in _error_lines(capsys)] == [True]


def _power_law_outputs(directory: Path, monkeypatch, capsys) -> dict:
    """Every file of solve, monotone and contradict on the three power-law
    library models at three exponents, as CSV (with its sidecar) and JSON."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    for command in ("solve", "monotone", "contradict"):
        for model in ("flat", "cone_0.8", "power_warp_1.5"):
            for p in ("1.15", "1.5", "1.85"):
                for fmt in ("csv", "json"):
                    out = f"{command}-{model}-{p}.{fmt}"
                    try:
                        assert main([command, "--model", model, "--p", p, "--format", fmt, "--out", out]) == 0
                    finally:
                        gc.unfreeze()
                    capsys.readouterr()
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_outputs_do_not_depend_on_reading_the_node_arrays(tmp_path, monkeypatch, capsys):
    # a power law's potential builds grid, suffix and w on first read, so the
    # scenarios run without them unless something reads them; every file is
    # the same when each solve's arrays are read before it returns
    unread = _power_law_outputs(tmp_path / "unread", monkeypatch, capsys)
    solve, solves = pl.solve_radial, []

    def reading(*args, **kwargs):
        pot = solve(*args, **kwargs)
        assert not {"grid", "suffix"} & set(vars(pot)) and "w" not in vars(pot)
        pot.grid, pot.suffix, pot.w
        solves.append(pot)
        return pot

    # every scenario solves through rigidity's binding
    monkeypatch.setattr(pl.rigidity, "solve_radial", reading)
    read = _power_law_outputs(tmp_path / "read", monkeypatch, capsys)
    assert len(solves) == 3 * 3 * 3 * 2
    assert len(unread) == 3 * 3 * 3 * 3
    assert read == unread
