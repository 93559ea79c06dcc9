"""Seeded inputs of the benchmark's three workloads.

A workload is an endless sequence of rounds; every run attempts whole rounds,
so known-fault operations are always the same share of the attempts.  Within
a round the models take turns, and the exponents are stratified: slot i of
round k draws p uniformly from stratum (i + k) mod n of n equal strata, so
every run spreads its operations evenly over the p range whatever the seed.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple

MODELS = ("flat", "cone_0.8", "power_warp_1.5")

SPECS = {
    "flat": {"kind": "flat"},
    "cone_0.8": {"kind": "cone", "a": 0.8},
    "power_warp_1.5": {"kind": "power_warp", "alpha": 1.5},
    "positive_cap_1": {"kind": "positive_cap", "k": 1.0},
}

# sizes of one operation, per workload
P_SWEEP = {"n_grid": 4096, "n_levels": 64}
FINE_GRID = {"n_grid": 2**20, "n_levels": 8, "n_cells": 2**17, "r_cut": 1e3}
R0 = 1.0
# pinchlab's default (1e-9) lets Newton stall just above it for rare p on
# 2^17 cells (flat, p = 1.6114222135737322 stops at 2.2e-9 after 200
# iterations), a seed-dependent failure; 1e-7 converges in as many iterations.
NEWTON_TOL = 1e-7

WORKLOADS = ("cli-cold", "p-sweep", "fine-grid")


class Op(NamedTuple):
    scenario: str
    model: str
    p: float
    fault: str | None = None  # known program fault: counted as failed until mended
    rerun: bool = False  # cli-cold: repeat an earlier operation of the round


def _stratified(rng: random.Random, n: int, lo: float, hi: float, shift: int) -> list[float]:
    width = (hi - lo) / n
    return [lo + width * ((i + shift) % n + rng.random()) for i in range(n)]


def rounds(workload: str, seed: int) -> Iterator[list[Op]]:
    rng = random.Random(f"{workload}:{seed}")
    k = 0
    while True:
        if workload == "cli-cold":
            ops = [Op("contradict", m, p) for m, p in zip(MODELS, _stratified(rng, 3, 1.1, 1.9, k))]
            ops.append(ops[k % 3]._replace(rerun=True))
        elif workload == "p-sweep":
            slots = [(s, m) for s in ("contradict", "monotone") for m in MODELS]
            ps = _stratified(rng, len(slots), 1.1, 1.9, k)
            ops = [Op(s, m, p) for (s, m), p in zip(slots, ps)]
            ops.append(Op("contradict", "positive_cap_1", 1.5, fault="compact-cap"))
            ops.append(Op("contradict", "flat", 1.02, fault="p-near-1"))
        elif workload == "fine-grid":
            ops = [Op("solve", m, p) for m, p in zip(MODELS, _stratified(rng, 3, 1.5, 1.8, k))]
        else:
            raise ValueError(f"unknown workload {workload!r}; choices: {WORKLOADS}")
        yield ops
        k += 1


# untimed, reduced-size operations that load every code path before timing
WARM_UP = {
    "p-sweep": ([Op("contradict", "flat", 1.5), Op("monotone", "cone_0.8", 1.5)],
                {"n_grid": 256, "n_levels": 4}),
    "fine-grid": ([Op("solve", "power_warp_1.5", 1.5)],
                  {"n_grid": 2**12, "n_levels": 4, "n_cells": 2**10, "r_cut": 1e3}),
}
