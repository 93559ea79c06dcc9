"""Result types: the records a computation returns are immutable named tuples
with their fields in a fixed order; only the types that carry behaviour (the
run config, the models, the exponent, the solved potential, its two flux
laws and the warp a model keeps on a solve grid, the discrete problem and the
report) are dataclasses.  The records of the constants audit
in ``conftest`` are held to the same layout."""

import dataclasses
import importlib
import pkgutil

import pytest

import conftest
import pinchlab as pl
from pinchlab import functionals, geometry, potential, rigidity, variational

RECORD_FIELDS = {
    geometry.CurvatureSample: ("r", "ric_radial", "ric_tangential", "scalar"),
    geometry.LevelSetData: (
        "r", "area", "mean_curvature", "sff_norm_sq", "traceless_sff_norm_sq", "sc_tangential",
        "ric_normal",
    ),
    geometry.PinchingReport: ("margin", "nonneg_ricci", "worst_radius", "n_scalar_positive"),
    geometry.GrowthReport: ("alpha_hat", "avr", "slope", "n_samples"),
    conftest.AuditConstants: (
        "p", "c_F", "c_G", "c_F_spread", "c_G_spread", "c_G_expected", "div_x_mismatch",
        "div_x_inhomogeneous_mismatch", "div_y_mismatch", "notes",
    ),
    conftest.DivergenceSample: (
        "r", "div_x", "div_y", "claim_x", "claim_y", "claim_x_inhomogeneous", "near_edge",
    ),
    functionals.SmallSphereExpansion: ("coefficient", "expected", "relative_deviation", "n_samples"),
    rigidity.ThresholdReport: (
        "p", "alpha", "f_p", "lhs_exponent", "rhs_exponent", "contradiction_possible",
    ),
    rigidity.DichotomyTrajectory: (
        "p", "eps", "F0", "dichotomy_constant", "branch", "crossing_time", "crossing_time_linear",
        "K",
    ),
    rigidity.OrderingReport: (
        "levels", "F_values", "G_values", "ordering_ok", "proportionality_constant",
        "proportionality_expected", "proportionality_max_dev", "tail_F", "tail_G",
    ),
    variational.CrossValidationReport: (
        "max_node_error", "capacity_gap", "capacity_energy", "capacity_quadrature", "passed",
    ),
    variational.DiscreteSolution: ("problem", "psi", "energy", "iterations", "grad_norm"),
}

DATACLASSES = {
    "cli.RunConfig",
    "geometry.WarpFunction",
    "geometry.ManifoldModel",
    "potential.PExponent",
    "potential.RadialPotential",
    "potential._PowerLawPotential",
    "potential._CellFluxPotential",
    "potential._WarpGrid",
    "report.StageVerdict",
    "report.ScenarioReport",
    "variational.DiscreteProblem",
}


@pytest.mark.parametrize("record", RECORD_FIELDS, ids=lambda record: record.__name__)
def test_result_records_are_named_tuples(record):
    assert issubclass(record, tuple)
    assert record._fields == RECORD_FIELDS[record]


def test_only_behaviour_carrying_types_are_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(pl.__path__):
        module = importlib.import_module(f"pinchlab.{info.name}")
        found |= {
            f"{info.name}.{name}"
            for name, value in vars(module).items()
            if isinstance(value, type)
            and value.__module__ == module.__name__
            and dataclasses.is_dataclass(value)
        }
    assert found <= DATACLASSES
