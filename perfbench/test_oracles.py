"""Tests of the benchmark's own checks: each accepts pinchlab's real output and
rejects a deliberately perturbed copy.  Run with ``python3 -m pytest perfbench``.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from oracles import Mismatch  # noqa: E402
from workloads import Op, rounds  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    import pinchlab.cli

    return pinchlab.cli


def _report(cli, model, scenario="contradict", p=1.5, n_levels=16):
    spec = {"flat": {"kind": "flat"}, "cone_0.8": {"kind": "cone", "a": 0.8},
            "power_warp_1.5": {"kind": "power_warp", "alpha": 1.5}}[model]
    return cli.run(cli.RunConfig(model=spec, scenario=scenario, p=p, n_levels=n_levels))


def test_closed_forms_of_flat_space():
    # unit sphere in flat space: capacity 1, level radius e^(t/(3-p))
    assert oracles.capacity_at_zero(1.5, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert oracles.level_radius(0.75, 1.5, 1.0) == pytest.approx(math.exp(0.5), rel=1e-15)


@pytest.mark.parametrize("model", ["flat", "cone_0.8", "power_warp_1.5"])
def test_real_rows_and_verdicts_pass(cli, model):
    report = _report(cli, model)
    oracles.check_rows(report.rows, 1.5, model)
    oracles.check_hypothesis(model, report.failed_hypothesis)


@pytest.mark.parametrize(
    "key, factor",
    [("r", 1.0 + 1e-8), ("cap", 1.0 + 1e-7), ("G", -1.0)],
)
def test_rows_reject_perturbed_value(cli, key, factor):
    rows = [dict(row) for row in _report(cli, "power_warp_1.5").rows]
    rows[5][key] *= factor
    with pytest.raises(Mismatch):
        oracles.check_rows(rows, 1.5, "power_warp_1.5")


def test_rows_reject_increasing_f(cli):
    rows = [dict(row) for row in _report(cli, "power_warp_1.5").rows]
    rows[5]["F"] = rows[4]["F"] + 1e-8 * (1.0 + abs(rows[4]["F"]))
    with pytest.raises(Mismatch, match="F increases"):
        oracles.check_rows(rows, 1.5, "power_warp_1.5")


def test_rows_reject_g_above_f(cli):
    rows = [dict(row) for row in _report(cli, "flat").rows]
    rows[3]["G"] = rows[3]["F"] * (1.0 + 1e-6)
    with pytest.raises(Mismatch):
        oracles.check_rows(rows, 1.5, "flat")


def test_hypothesis_rejects_wrong_name():
    with pytest.raises(Mismatch):
        oracles.check_hypothesis("cone_0.8", "initial-willmore-deficit")
    with pytest.raises(Mismatch):
        oracles.check_hypothesis("flat", None)


def test_variational_bracket(cli):
    import pinchlab as pl

    model = pl.power_warp_model(1.5)
    problem = pl.discretize(model, 1.6, 1.0, 4096, 1e3)
    solution = pl.minimize_energy(problem, initial=pl.constant_flux_profile(problem))
    capacity = pl.capacity_from_energy(solution)
    oracles.check_variational_bracket(capacity, 1.6, "power_warp_1.5", 1.0, 1e3)
    lower = oracles.truncated_capacity(1.6, 1.0, 0.75, 1.0, 1e3)
    for bad in (lower * (1.0 - 1e-12), lower * (1.0 + 2e-6)):
        with pytest.raises(Mismatch):
            oracles.check_variational_bracket(bad, 1.6, "power_warp_1.5", 1.0, 1e3)


def test_rerun_bytes_must_match():
    oracles.check_identical(b"t,r\n1,2\n", b"t,r\n1,2\n", "csv")
    with pytest.raises(Mismatch):
        oracles.check_identical(b"t,r\n1,2\n", b"t,r\n1,3\n", "csv")


def test_known_faults_count_until_mended(cli):
    import pinchlab as pl

    cap = Op("contradict", "positive_cap_1", 1.5, fault="compact-cap")
    passing = cli.run(cli.RunConfig(model={"kind": "positive_cap", "k": 1.0},
                                    scenario="contradict", p=1.5, n_levels=8))
    assert worker.status_of(cap, (passing, None), None, {})[0] == "fault"
    refused = pl.DomainError("compact model")
    assert worker.status_of(cap, None, refused, {})[0] == "ok"
    normal = Op("contradict", "flat", 1.5)
    assert worker.status_of(normal, None, refused, {})[0] == "wrong"


def test_rounds_are_seeded_and_stratified():
    first = [next(rounds("p-sweep", 7)) for _ in range(2)]
    assert first == [next(rounds("p-sweep", 7)) for _ in range(2)]
    assert next(rounds("p-sweep", 7)) != next(rounds("p-sweep", 8))
    gen = rounds("fine-grid", 3)
    for _ in range(4):
        ps = sorted(op.p for op in next(gen))
        assert [int((p - 1.5) / 0.1) for p in ps] == [0, 1, 2]


def test_layer_metrics_self_time_and_counts():
    spans = [
        ["op", 0.0, 10.0, -1, 0, 0],
        ["potential.radius_of_level", 1.0, 5.0, 0, 0, 0],
        ["potential.flux_integral_at", 2.0, 3.0, 1, 0, 4],
        ["potential.flux_integral_at", 3.0, 4.0, 1, 0, 2],
        ["cli.run", 5.0, 9.5, 0, 0, 0],
    ]
    out = tracing.layer_metrics(spans)
    assert out["potential.radius_of_level.self_s"] == pytest.approx(2.0)
    assert out["potential.flux_integral_at.points"] == 6
    assert out["potential.flux_evals_per_level"] == 6
    assert out["trace.outside_share.max"] == pytest.approx(0.15)


def test_install_wraps_every_binding():
    code = (
        "import sys; sys.path[:0] = [{!r}, {!r}]\n"
        "import pinchlab, pinchlab.functionals as f, pinchlab.potential as p, tracing\n"
        "t = tracing.Tracer(); t.install()\n"
        "assert f.radius_of_level is p.radius_of_level is not None\n"
        "assert pinchlab.solve_radial is p.solve_radial\n"
        "assert p.radius_of_level.__wrapped__.__module__ == 'pinchlab.potential'\n"
    ).format(str(HERE), str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", code], check=True)


def test_benchmark_file_lists_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer"]]
    expected = list(tracing.SPAN_METRICS) + list(tracing.DERIVED_METRICS)
    expected += ["trace.op_s.p50", "trace.untraced_op_s.p50", "trace.overhead"]
    assert names == expected
    assert [w["name"] for w in bench["workloads"]] == ["cli-cold", "p-sweep", "fine-grid"]
