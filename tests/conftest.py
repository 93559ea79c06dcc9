"""Shared fixtures.

Solving a potential is the only genuinely expensive setup step, so solved
potentials are cached per (model, p, grid) key for the whole session.  The
cache key deliberately uses the factory *name* rather than a model object:
models carry closures and are not hashable by value.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

import pinchlab as pl

MODEL_FACTORIES = {
    "flat": pl.flat_model,
    "cone": pl.cone_model,
    "power_warp": pl.power_warp_model,
}


@functools.lru_cache(maxsize=None)
def _solve(name: str, p: float, r0: float = 1.0, n_grid: int = 4096, r_max: float | None = None):
    factory = MODEL_FACTORIES[name]
    if r_max is None:
        model = factory()
        return pl.solve_radial(model, p, r0, n_grid=n_grid)
    model = factory(r_max=r_max)
    return pl.solve_radial(model, p, r0, n_grid=n_grid, r_max=r_max)


@pytest.fixture(scope="session")
def solved():
    """Callable (name, p, r0=1.0, n_grid=4096, r_max=None) -> cached RadialPotential."""
    return _solve


@pytest.fixture()
def rng():
    return np.random.default_rng(20260819)


def log_linear_profile(problem: pl.variational.DiscreteProblem) -> np.ndarray:
    """A profile that is not the minimizer: linear in log r between the boundary
    values."""
    mesh = problem.mesh
    psi = 1.0 - np.log(mesh / mesh[0]) / math.log(mesh[-1] / mesh[0])
    psi[0], psi[-1] = 1.0, 0.0
    return psi


def integrate_dichotomy(p: float, eps: float, f0: float, times: np.ndarray):
    """Independent oracle for the comparison ODE F' = max(-2F/m, -(eps/m)(8 pi - 2F)), m = 3-p.

    Integrates with scipy's DOP853 (rtol 1e-13, atol 1e-14) and an event at the
    dichotomy constant; returns the envelope at ``times`` and the first crossing
    time (0 when F0 starts at or below the constant, None when it is not reached).
    """
    from scipy.integrate import solve_ivp

    m = 3.0 - p
    f_d = 8.0 * np.pi * eps / (2.0 + 2.0 * eps)

    def rhs(t, f):
        return [max(-2.0 * f[0] / m, -(eps / m) * (8.0 * np.pi - 2.0 * f[0]))]

    def reach_constant(t, f):
        return f[0] - f_d

    reach_constant.direction = -1.0
    sol = solve_ivp(
        rhs, (0.0, float(times[-1])), [f0], method="DOP853", rtol=1e-13, atol=1e-14,
        t_eval=times, events=reach_constant,
    )
    assert sol.success, sol.message
    if f0 <= f_d:
        crossing = 0.0
    else:
        crossing = float(sol.t_events[0][0]) if sol.t_events[0].size else None
    return sol.y[0], crossing
