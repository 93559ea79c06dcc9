"""Checks of pinchlab's outputs against values computed apart from the program.

The three noncompact library models are power laws h(r) = c r^beta, so the
capacitary potential, its level radii, its capacity and the variational
capacity of a truncated annulus all have closed forms.  Nothing here imports
pinchlab: every expected value comes from the formulas below, and each check
raises ``Mismatch`` naming the first value that disagrees.
"""

from __future__ import annotations

import math

# (c, beta) with h = c r^beta for each noncompact library model
POWER_LAWS = {
    "flat": (1.0, 1.0),
    "cone_0.8": (0.8, 1.0),
    "power_warp_1.5": (1.0, 0.75),
}

# pinchlab's pinned default capacity tolerance (DEFAULT_TOLERANCES["capacity"])
CAPACITY_TOL = 1e-6
RADIUS_RTOL = 1e-10
CAPACITY_LAW_RTOL = 1e-9
MONOTONE_RTOL = 1e-10


class Mismatch(AssertionError):
    """An output of the program disagrees with its independent oracle."""


def _exponent(p: float, beta: float) -> float:
    """(p-1)(q beta - 1), q = 2/(p-1): the rate in u(r) = (r/r0)^(-rate/(p-1))."""
    q = 2.0 / (p - 1.0)
    return (p - 1.0) * (q * beta - 1.0)


def level_radius(t: float, p: float, beta: float, r0: float = 1.0) -> float:
    """Radius of the level set {w = t}: r0 exp(t / ((p-1)(q beta - 1)))."""
    return r0 * math.exp(t / _exponent(p, beta))


def capacity_at_zero(p: float, c: float, beta: float, r0: float = 1.0) -> float:
    """cap(0) = h(r0)^2 (w'(r0)/(3-p))^(p-1) with w'(r0) = (p-1)(q beta - 1)/r0."""
    h = c * r0**beta
    return h * h * (_exponent(p, beta) / (r0 * (3.0 - p))) ** (p - 1.0)


def truncated_capacity(p: float, c: float, beta: float, r0: float, r_cut: float) -> float:
    """((p-1)/(3-p))^(p-1) J^(1-p), J = integral of h^(-q) over [r0, r_cut]."""
    q = 2.0 / (p - 1.0)
    j = c ** (-q) * (r0 ** (1.0 - q * beta) - r_cut ** (1.0 - q * beta)) / (q * beta - 1.0)
    return ((p - 1.0) / (3.0 - p)) ** (p - 1.0) * j ** (1.0 - p)


def expected_hypothesis(c: float, beta: float, r0: float = 1.0) -> str | None:
    """The first hypothesis of the theorem that h = c r^beta (beta <= 1) breaks.

    Initial Willmore deficit: the sphere {r = r0} has integral H^2 =
    16 pi h'(r0)^2, so the strict deficit below 16 pi needs h'(r0) < 1.
    Pinching: Ric >= eps Sc with one eps > 0 on the whole end.  For beta < 1
    the radial Ricci eigenvalue decays like r^-2 while the scalar curvature
    decays like r^(-2 beta), and for beta = 1, c != 1 the radial eigenvalue
    vanishes identically, so the ratio tends to 0 in both cases; only flat
    space (c = beta = 1) is pinched, vacuously.
    """
    if c * beta * r0 ** (beta - 1.0) >= 1.0:
        return "initial-willmore-deficit"
    if not (c == 1.0 and beta == 1.0):
        return "pinching"
    return None


def _relative(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_rows(rows, p: float, model: str, r0: float = 1.0) -> None:
    """Level radii, capacity law and the monotone pair F, G of per-level rows.

    ``rows`` are mappings with at least the keys t, r, cap, F and G.
    """
    c, beta = POWER_LAWS[model]
    if not rows:
        raise Mismatch(f"{model} p={p!r}: no level rows")
    cap0 = capacity_at_zero(p, c, beta, r0)
    for row in rows:
        t = row["t"]
        radius = level_radius(t, p, beta, r0)
        if not _relative(row["r"], radius) <= RADIUS_RTOL:
            raise Mismatch(f"{model} p={p!r} t={t!r}: r = {row['r']!r}, closed form {radius!r}")
        law = cap0 * math.exp(t)
        if not _relative(row["cap"], law) <= CAPACITY_LAW_RTOL:
            raise Mismatch(f"{model} p={p!r} t={t!r}: cap = {row['cap']!r}, cap(0) e^t = {law!r}")
        f, g = row["F"], row["G"]
        slack = MONOTONE_RTOL * (1.0 + abs(f))
        if not -slack <= g <= f + slack:
            raise Mismatch(f"{model} p={p!r} t={t!r}: need 0 <= G <= F, got G = {g!r}, F = {f!r}")
    for prev, row in zip(rows, rows[1:]):
        for key in ("F", "G"):
            if not row[key] - prev[key] <= MONOTONE_RTOL * (1.0 + abs(prev[key])):
                raise Mismatch(
                    f"{model} p={p!r}: {key} increases from {prev[key]!r} at t={prev['t']!r} "
                    f"to {row[key]!r} at t={row['t']!r}"
                )


def check_hypothesis(model: str, failed_hypothesis: str | None) -> None:
    expected = expected_hypothesis(*POWER_LAWS[model])
    if failed_hypothesis != expected:
        raise Mismatch(f"{model}: verdict names {failed_hypothesis!r}, closed form gives {expected!r}")


def check_variational_bracket(
    capacity: float, p: float, model: str, r0: float, r_cut: float
) -> None:
    """The discrete minimizer's capacity lies in [C_T, C_T (1 + CAPACITY_TOL)]."""
    c, beta = POWER_LAWS[model]
    lower = truncated_capacity(p, c, beta, r0, r_cut)
    upper = lower * (1.0 + CAPACITY_TOL)
    if not lower <= capacity <= upper:
        raise Mismatch(
            f"{model} p={p!r}: variational capacity {capacity!r} outside the truncated "
            f"closed-form bracket [{lower!r}, {upper!r}]"
        )


def check_identical(first: bytes, again: bytes, what: str) -> None:
    if first != again:
        raise Mismatch(f"{what}: rerun output differs ({len(first)} vs {len(again)} bytes)")


def parse_csv(text: str) -> list[dict]:
    """Rows of a pinchlab CSV as float dicts."""
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
