"""Report containers shared by the scenario runner and the CLI emitters.

The per-level row schema is a fixed contract: CSV output uses exactly these
columns in exactly this order, so downstream plotting scripts can rely on
column positions.  The default tolerances and run options live here too, as
the one table that both the command line and the scenario runner read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "ROW_COLUMNS",
    "DEFAULT_TOLERANCES",
    "SCENARIO_TOLERANCES",
    "SCENARIO_DEFAULTS",
    "StageVerdict",
    "ScenarioReport",
    "table_rows",
]

DEFAULT_TOLERANCES = {
    "capacity": 1e-6,
    "monotone": 1e-9,
    "derivative": 1e-4,
    "identity": 1e-10,
    "gauss_bonnet": 1e-8,
    "holder": 1e-8,
    "willmore_coefficient": 0.02,
    "slab": 1e-6,
    "umbilicity": 1e-12,
}

SCENARIO_TOLERANCES = ("capacity", "holder", "slab")  # read by the contradiction scenario

# options of the contradiction scenario; the run options double as cli.RunConfig's defaults
SCENARIO_DEFAULTS = {
    "r0": 1.0,
    "r_max": None,
    "n_grid": 4096,
    "n_levels": 64,
    "eps": None,  # explicit pinching constant; default: measured margin
    **{f"{name}_tol": DEFAULT_TOLERANCES[name] for name in SCENARIO_TOLERANCES},
}

ROW_COLUMNS = (
    "t",
    "r",
    "area",
    "H",
    "grad_w",
    "F",
    "G",
    "dF_fd",
    "dF_cf",
    "dG_fd",
    "dG_cf",
    "cap",
    "cap_ratio_to_exp_t",
    "gb",
    "willmore",
    "holder_gap",
)

# the verdict statuses, each with its tag in the terminal summary
_STATUSES = {"pass": "PASS", "fail": "FAIL", "not-applicable": "N/A "}


def _rows_of_columns(names: tuple) -> Callable[[list], list[dict]]:
    """A function of a list of columns, one per name, that returns their rows
    as dicts keyed by the names in order.  Its source is generated once, as
    collections.namedtuple generates its ``__new__``, so that each row is one
    dict display rather than a dict(zip()) call."""
    args = ", ".join(f"_{i}" for i in range(len(names)))
    display = ", ".join(f"{name!r}: _{i}" for i, name in enumerate(names))
    source = f"lambda columns: [{{{display}}} for {args}, in zip(*columns)]"
    return eval(source, {"__builtins__": {}, "zip": zip})


_rows = _rows_of_columns(ROW_COLUMNS)


def table_rows(table) -> list[dict]:
    """The per-level row dicts of a column table such as ``functionals.level_table``."""
    return _rows([table[name].tolist() for name in ROW_COLUMNS])


@dataclass(frozen=True)
class StageVerdict:
    """Outcome of one named stage: pass | fail | not-applicable, with a reason."""

    name: str
    status: str
    reason: str

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"verdict status must be one of {tuple(_STATUSES)}, got {self.status!r}")

    @classmethod
    def judge(cls, name: str, passed: bool, reason: str) -> StageVerdict:
        """A stage decided on its measurement: pass when ``passed`` holds, else fail."""
        return cls(name, "pass" if passed else "fail", reason)

    @classmethod
    def not_applicable(cls, name: str, reason: str) -> StageVerdict:
        """A stage that is not judged; its reason says why."""
        return cls(name, "not-applicable", reason)

    @property
    def tag(self) -> str:
        return _STATUSES[self.status]


@dataclass
class ScenarioReport:
    """Everything one scenario run produced.

    ``rows`` holds per-level dicts keyed by ROW_COLUMNS (possibly empty for
    scenarios without level sampling); ``constants`` holds fitted constants;
    ``failed_hypothesis`` names the first broken hypothesis gate, or None
    when no gate failed.
    """

    config: dict
    rows: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)
    failed_hypothesis: str | None = None

    def verdict(self, name: str) -> StageVerdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(f"no stage named {name!r} in this report")
