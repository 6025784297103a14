from __future__ import annotations

import json
from fractions import Fraction

import pytest

from hyperreg.hypergeom import scale_C
from hyperreg.regulators.appb import appB_det, pi0_relative_coefficients, DATA as APPB
from hyperreg.regulators.quintic import (DATA_J0, DATA_J1, gamma_big,
                                         quintic_det, quintic_intertwining,
                                         quintic_roots_residuals)

F = Fraction


def test_lambda_is_inverse_scale(pol):
    """exp(sum psi(a) - sum psi(b)) = 1/C for both index families."""
    ctx = pol.ctx
    for h in (DATA_J0, DATA_J1, APPB):
        s = ctx.mpf(0)
        for ai in h.a:
            s += ctx.psi(0, ctx.mpf(ai.numerator) / ai.denominator)
        for bi in h.b:
            s -= ctx.psi(0, ctx.mpf(bi.numerator) / bi.denominator)
        C = scale_C(h)
        assert abs(ctx.exp(s) * C.numerator / C.denominator - 1) < pol.tol


def test_gamma_big_finite(pol):
    for h in (DATA_J0, DATA_J1):
        v = gamma_big(h, pol.ctx.mpf(0), pol)
        assert v != 0 and abs(v) < 1


def test_quintic_roots(pol):
    ctx = pol.ctx
    r0, r1, b0, b1 = quintic_roots_residuals(pol)
    tol = ctx.mpf(10) ** (-pol.target_digits + 5)
    assert r0 < tol and r1 < tol
    assert b0 in (1, 2, 3, 4) and b1 in (1, 2, 3, 4)


def test_quintic_intertwining(pol):
    res, n1, n0 = quintic_intertwining(pol)
    assert res < pol.ctx.mpf(10) ** (-pol.target_digits + 5)


def test_quintic_det_vs_fixture(pol, fixtures_dir):
    """(2/25)|det| is the unit regulator = |L''(0)|/2 from the native-AFE
    fixture; 20-digit agreement certifies both routes."""
    ctx = pol.ctx
    rep = quintic_det(pol)
    rows = json.loads((fixtures_dir / "quintic.json").read_text())
    lpp = ctx.mpf(rows[0]["L_value"])
    det = rep.r_value / (ctx.mpf(25) / 2)
    assert abs(abs(det) * 2 / 25 - abs(lpp) / 2) < ctx.mpf(10) ** -20
    # and against the unit pair {Y, Y+1} of Y^5 - Y + 1
    reg = _unit_regulator(ctx)
    assert abs(abs(det) * 2 / 25 - reg) < ctx.mpf(10) ** -20


def _unit_regulator(ctx):
    roots = ctx.polyroots([1, 0, 0, 0, -1, 1])
    real = [r for r in roots if abs(ctx.im(r)) < ctx.mpf(10) ** -20][0]
    cplx = [r for r in roots if ctx.im(r) > ctx.mpf(10) ** -20]
    lY = [ctx.log(abs(real)), 2 * ctx.log(abs(cplx[0]))]
    lY1 = [ctx.log(abs(real + 1)), 2 * ctx.log(abs(cplx[0] + 1))]
    return abs(lY[0] * lY1[1] - lY[1] * lY1[0])


def gamma_closed_form(s, pol):
    """-(1/2) Gamma(6s+1) Gamma(s+1)^3 27^-s / (Gamma(2s+1)^3 Gamma(3s+1) (3s - 1/2))."""
    ctx = pol.ctx
    s = ctx.convert(s)
    num = ctx.gamma(6 * s + 1) * ctx.gamma(s + 1) ** 3 * ctx.power(27, -s)
    den = ctx.gamma(2 * s + 1) ** 3 * ctx.gamma(3 * s + 1) * (3 * s - ctx.mpf(1) / 2)
    return -num / (2 * den)


def test_gamma_closed_form(pol):
    ctx = pol.ctx
    assert abs(gamma_closed_form(0, pol) - 1) < pol.tol
    g = gamma_closed_form(ctx.mpf(1) / 2, pol)
    assert abs(g + ctx.pi / (2 * ctx.sqrt(27))) < pol.tol


def test_pi0_coefficients_exact():
    assert pi0_relative_coefficients(5) == [
        F(1), F(2, 9), F(10, 81), F(560, 6561), F(3850, 59049)]


def test_appb_det_runs(pol):
    rep = appB_det(F(3), pol)
    assert rep.r_value != 0
    from hyperreg.regulators.reporting import CaseError
    with pytest.raises(CaseError):
        appB_det(F(8), pol)     # outside (0, 3125/432)


def test_appb_stability(pol):
    """Value stable in its first target digits under doubled precision."""
    ctx = pol.ctx
    r1 = appB_det(F(2), pol).r_value
    r2 = appB_det(F(2), pol.doubled()).r_value
    assert abs(r1 - ctx.convert(r2)) < ctx.mpf(10) ** (-pol.target_digits + 2)


@pytest.mark.parametrize("digits", [1, 3, 4])
@pytest.mark.parametrize("t", [F(1, 200), F(2), F(7)])
def test_appb_probe_passes_at_low_digits(digits, t):
    """Every sum, the probe's two at t +- 10^-8 among them, keeps 35 working
    digits, so their difference meets the 10^-12 budget at any --digits."""
    from hyperreg.mpnum import PrecisionPolicy
    rep = appB_det(t, PrecisionPolicy(digits))
    (name, dev), = rep.crosschecks
    assert name == "derivative_column_fd_probe" and dev < 1e-12
