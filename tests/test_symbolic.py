"""Symbolic proof that the derivative constants and divergence identities are exact.

On a warped product dr^2 + h(r)^2 g_S2 with a generic warp h, a radial
p-harmonic potential has w' = (p-1) h^(-q) / I with q = 2/(p-1) and
I' = -h^(-q), so w' obeys the first-order ODE

    w'' = w' (w' - H) / (p-1),     H = 2 h'/h,     Ric(nu,nu) = -2 h''/h.

Eliminating w'' with it, sympy reduces each difference below to exactly 0,
for every h and every p:

    dF/dt - c_F dF_raw,  dG/dt - c_G dG_raw,  div X - claim_x,  div Y - claim_y,

with (c_F, c_G) = (1, (3-p)^-2), div V = (h^2 V_r)'/h^2, X_r = w'^2 and
Y_r = H w' - w'^2/(3-p).  The expressions under test are the program's own:
``geometry._levelset_data``, ``functionals._closed_forms`` and
``functionals._exact_constants`` evaluated on symbols, and the candidate
divergences ``_div_claims`` of the constants audit in ``conftest``.  Their
float literals (4 pi among them) become exact rationals before
simplification.  This is the proof behind the exact constants that every
scenario reports; ``conftest.audit_constants`` is a numerical oracle of it.

The traced Gauss equation that ``geometry.gauss_identity_residual`` checks in
floats, sc_tangential = scalar - 2 Ric(nu,nu) + H^2 - |II|^2, is proved the
same way on ``geometry._curvature_arrays`` and ``geometry._levelset_data``.
"""

from types import SimpleNamespace

import sympy as sp

from pinchlab import functionals, geometry

from conftest import _div_claims

r, p = sp.symbols("r p", positive=True)
h = sp.Function("h")(r)
W = sp.Function("W")(r)  # w'(r)
MEAN = 2 * h.diff(r) / h
ODE = {W.diff(r): W * (W - MEAN) / (p - 1)}


def _exact(*exprs):
    """The program's expressions with their float literals made exact rationals."""
    return [sp.nsimplify(e, rational=True) for e in exprs]


GEO = geometry._levelset_data(r, h, h.diff(r), h.diff(r, 2))
MEAN_CODE, RIC, TRACELESS = _exact(GEO.mean_curvature, GEO.ric_normal, GEO.traceless_sff_norm_sq)
SC_TANGENTIAL, SFF_SQ = _exact(GEO.sc_tangential, GEO.sff_norm_sq)
# a stand-in model whose warp is the generic h
WARPED = SimpleNamespace(warp=lambda radius: (h, h.diff(r), h.diff(r, 2)))
RIC_RADIAL, RIC_TANGENTIAL, SCALAR = _exact(*geometry._curvature_arrays(WARPED, r))
F, G, DF_RAW, DG_RAW = _exact(*functionals._closed_forms(GEO, W, p))
CLAIM_X, CLAIM_Y, CLAIM_X_INHOMOGENEOUS = _exact(*_div_claims(GEO, W, p))
C_F, C_G = _exact(*functionals._exact_constants(p))


def _vanishes(expr) -> bool:
    """Whether expr is identically 0 once w'' is eliminated."""
    return sp.simplify(expr.subs(ODE)) == 0


def _div(v_r):
    return (h**2 * v_r).diff(r) / h**2


def _d_dt(quantity):
    return quantity.diff(r) / W  # dt = w' dr along the radius


def test_ode_follows_from_the_flux_formula():
    q = 2 / (p - 1)
    flux = sp.Function("I")(r)
    w_prime = (p - 1) * h ** (-q) / flux
    residual = w_prime.diff(r) - w_prime * (w_prime - MEAN) / (p - 1)
    residual = residual.subs(flux.diff(r), -(h ** (-q)))
    assert sp.simplify(sp.powsimp(sp.expand(residual), force=True)) == 0


def test_geometry_is_the_warp_geometry():
    assert _vanishes(MEAN_CODE - MEAN)
    assert _vanishes(RIC + 2 * h.diff(r, 2) / h)
    assert TRACELESS == 0


def test_exact_derivative_constants():
    assert C_F == 1
    assert _vanishes(C_G - 1 / (3 - p) ** 2)
    assert _vanishes(_d_dt(F) - C_F * DF_RAW)
    assert _vanishes(_d_dt(G) - C_G * DG_RAW)
    # the raw dG/dt integrand lacks the normalization: with constant 1 it is wrong
    assert not _vanishes(_d_dt(G) - DG_RAW)


def test_divergence_identities():
    assert _vanishes(_div(W**2) - CLAIM_X)
    assert _vanishes(_div(MEAN * W - W**2 / (3 - p)) - CLAIM_Y)
    # the variant with a bare mean-curvature term is not an identity
    assert not _vanishes(_div(W**2) - CLAIM_X_INHOMOGENEOUS)


def test_gauss_identity():
    assert _vanishes(RIC_RADIAL - RIC)
    # the terms of gauss_identity_residual
    assert _vanishes(SC_TANGENTIAL - (SCALAR - 2 * RIC + MEAN_CODE**2 - SFF_SQ))
    # the tangential Ricci curvature in place of Ric(nu, nu) breaks it
    assert not _vanishes(SC_TANGENTIAL - (SCALAR - 2 * RIC_TANGENTIAL + MEAN_CODE**2 - SFF_SQ))
