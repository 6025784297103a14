"""The mb_contour memo of the integrand's z-free Gamma factors.

Every memoized result must be bit-identical to the integral of the full
integrand, evaluated here without the memo, whatever the memo held before.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction

import pytest
from mpmath.libmp import fone, fzero, libmpc

from hyperreg.mpnum import PrecisionPolicy
from hyperreg.regulators import k2

DIGITS = (15, 20, 30)
ZS = ("1/2", "2", "10", "49")


def _full_integrand(ctx, zv, sigma, tt):
    """The contour integrand as one expression, nothing memoized."""
    s = ctx.mpc(sigma, tt)
    return ctx.gamma(-s) * ctx.gamma(1 + 4 * s) * ctx.gamma(1 + 2 * s) \
        * ctx.power(zv, s + ctx.mpf(1) / 2) \
        / (ctx.gamma(1 + s) ** 5 * ctx.power(2, 10 * s) * (s + ctx.mpf(1) / 2))


def _unmemoized_contour(z, pol):
    """mb_contour with the whole integrand computed at every node."""
    ctx = pol.ctx
    zv = ctx.convert(z)
    sigma = -ctx.mpf(1) / 8
    T = (pol.working_digits + 10) * ctx.log(10) / ctx.pi
    with ctx.workdps(pol.working_digits + 10):
        val = ctx.quad(lambda tt: _full_integrand(ctx, zv, sigma, tt), [0, T / 8, T / 3, T])
    return val.real / ctx.pi


def _point(z, pol):
    return pol.ctx.convert(Fraction(z))


@pytest.fixture(scope="module")
def reference():
    """(digits, z) -> (contour, compare) computed without the memo."""
    out = {}
    for digits in DIGITS:
        pol = PrecisionPolicy(digits)
        for z in ZS:
            cont = _unmemoized_contour(_point(z, pol), pol)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(k2, "mb_contour", lambda _z, _pol, cont=cont: cont)
                cmp = k2.mb_compare(_point(z, pol), pol)
            out[digits, z] = (repr(cont), repr(cmp))
    return out


@pytest.mark.parametrize("contour_first", [True, False])
def test_memo_matches_unmemoized_integrand(monkeypatch, reference, contour_first):
    """The first call at each precision runs cold, every later one warm;
    contour before compare and after it, z ascending and descending."""
    monkeypatch.setattr(k2, "_mb_cache", {})
    zs = ZS if contour_first else ZS[::-1]
    for digits in DIGITS:
        pol = PrecisionPolicy(digits)
        for z in zs:
            if contour_first:
                cont = k2.mb_contour(_point(z, pol), pol)
                cmp = k2.mb_compare(_point(z, pol), pol)
            else:
                cmp = k2.mb_compare(_point(z, pol), pol)
                cont = k2.mb_contour(_point(z, pol), pol)
            assert (repr(cont), repr(cmp)) == reference[digits, z], (digits, z)


def test_integrand_bits_at_every_node(monkeypatch):
    """Cold and warm, at 15 and 30 digits, the memoized integrand equals the
    full expression exactly: z = 1 has log z = 0 (mpc_exp's zero real part)
    and z = 1/2 a negative log z."""
    for digits in (15, 30):
        _check_integrand_bits(monkeypatch, PrecisionPolicy(digits))


def _check_integrand_bits(monkeypatch, pol):
    ctx = pol.ctx
    sigma = -ctx.mpf(1) / 8
    real_quad = ctx.quad
    checked = []

    def checking_quad(f, points, **kw):
        def g(tt):
            val = f(tt)
            assert val._mpc_ == _full_integrand(ctx, zv, sigma, tt)._mpc_, tt
            checked.append(tt)
            return val
        return real_quad(g, points, **kw)

    with monkeypatch.context() as m:
        m.setattr(k2, "_mb_cache", {})
        m.setattr(ctx, "quad", checking_quad)
        for z in ("1", "1/2", "2", "10"):
            zv = _point(z, pol)
            k2.mb_contour(zv, pol)
    assert len(checked) > 2000


@pytest.mark.parametrize("digits, z", [(15, "1"), (15, "3/4"), (15, "52"), (30, "15"),
                                       (30, "17/2")])
def test_integrand_bits_at_t_zero(monkeypatch, digits, z):
    """t = 0 is no quad node, but there s + 1/2 is real and mpc_pow's
    exponential is exp at the working precision, not exp at 4 bits more
    times cos 0: at these z but 1 the two round apart.  At z = 1 the
    exponent is 0."""
    pol = PrecisionPolicy(digits)
    ctx = pol.ctx
    zv = _point(z, pol)
    values = []

    def node_zero(f, points, **kw):
        with ctx.extraprec(20):
            values.append((f(ctx.mpf(0)), _full_integrand(ctx, zv, -ctx.mpf(1) / 8, ctx.mpf(0))))
        return values[0][0]

    monkeypatch.setattr(k2, "_mb_cache", {})
    monkeypatch.setattr(ctx, "quad", node_zero)
    k2.mb_contour(zv, pol)
    assert values[0][0]._mpc_ == values[0][1]._mpc_


def test_warm_contour_forms_log_z_once_per_precision(monkeypatch):
    """log z is the same at every node: a warm contour takes it once for the
    one precision quad evaluates at, not once per node (mpc_pow took it per
    node)."""
    monkeypatch.setattr(k2, "_mb_cache", {})
    pol = PrecisionPolicy(15)
    k2.mb_contour(_point("2", pol), pol)
    logs = []

    def counting_log(z, prec, rnd=libmpc.round_fast, _log=libmpc.mpc_log):
        logs.append(prec)
        return _log(z, prec, rnd)

    monkeypatch.setattr(libmpc, "mpc_log", counting_log)
    monkeypatch.setattr(k2, "mpc_log", counting_log, raising=False)
    k2.mb_contour(_point("10", pol), pol)
    assert len(logs) == 1


def test_second_contour_adds_no_entries(monkeypatch):
    monkeypatch.setattr(k2, "_mb_cache", {})
    pol = PrecisionPolicy(15)
    k2.mb_contour(_point("2", pol), pol)
    sizes = {prec: len(nodes) for prec, nodes in k2._mb_cache.items()}
    assert len(sizes) == 1 and sum(sizes.values()) > 0
    computed = []
    ctx = pol.ctx

    def counting_gamma(x, _gamma=ctx.gamma):
        computed.append(x)
        return _gamma(x)

    monkeypatch.setattr(ctx, "gamma", counting_gamma)
    k2.mb_contour(_point("10", pol), pol)
    assert {prec: len(nodes) for prec, nodes in k2._mb_cache.items()} == sizes
    assert computed == []


def _direct_parts(ctx, s):
    num = ctx.gamma(-s) * ctx.gamma(1 + 4 * s) * ctx.gamma(1 + 2 * s)
    den = ctx.gamma(1 + s) ** 5 * ctx.power(2, 10 * s) * (s + ctx.mpf(1) / 2)
    return num._mpc_, den._mpc_


def _mpc_div_mag(monkeypatch, den, prec):
    """mpc_div's own |den|^2 at prec: the divisor of its two mpf_div calls."""
    mags = []
    real_div = libmpc.mpf_div
    with monkeypatch.context() as m:
        m.setattr(libmpc, "mpf_div", lambda t, mag, *a: mags.append(mag) or real_div(t, mag, *a))
        libmpc.mpc_div((fone, fzero), den, prec)
    assert mags[0] == mags[1]
    return mags[0]


def test_precisions_never_share_entries(monkeypatch):
    """The same node at another precision is computed at that precision."""
    monkeypatch.setattr(k2, "_mb_cache", {})
    ctx = PrecisionPolicy(15).ctx
    s = ctx.mpc(-ctx.mpf(1) / 8, ctx.mpf(3) / 8)
    for prec in (100, 200, 100, 133, 200):
        with ctx.workprec(prec):
            num, den, mag = k2._mb_parts(ctx, s)
            assert (num, den) == _direct_parts(ctx, s), prec
            assert mag == _mpc_div_mag(monkeypatch, den, prec), prec
    assert sorted(k2._mb_cache) == [100, 133, 200]
    assert all(len(nodes) == 1 for nodes in k2._mb_cache.values())


def test_memo_keeps_the_latest_precisions(monkeypatch):
    monkeypatch.setattr(k2, "_mb_cache", {})
    ctx = PrecisionPolicy(15).ctx
    s = ctx.mpc(-ctx.mpf(1) / 8, ctx.mpf(1) / 4)
    precs = [60 + 10 * i for i in range(k2._MB_PRECISIONS + 3)]
    for prec in precs:
        with ctx.workprec(prec):
            k2._mb_parts(ctx, s)
        assert len(k2._mb_cache) <= k2._MB_PRECISIONS
    assert list(k2._mb_cache) == precs[-k2._MB_PRECISIONS:]


def test_import_computes_nothing():
    code = ("import hyperreg.regulators.k2 as m; "
            "assert m._mb_cache == {}, m._mb_cache")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
