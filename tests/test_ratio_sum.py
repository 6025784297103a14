"""mpnum.ratio_sum, re-exported by series: series summation, its certified
tail and its certified rounding.

Each caller declares its first term t_start and t_(k+1)/t_k = x prod (k +
alpha_i) / (k + beta_i); both declarations are checked against the exact
terms of each series.  Each sum lies within its tail plus rounding of the
same sum at doubled precision, and a sum of K terms within its rounding of
the exact Fraction partial sum.  `period --point` values are checked against
mpmath's `hyper` within the printed tail bound.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from math import comb

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperreg import cli, hgdata, hypergeom, mpnum, series
from hyperreg.mpnum import PrecisionPolicy
from hyperreg.regulators import appb, cy0, k2, quintic
from hyperreg.series import DivergenceError, TailBoundError, ratio_sum

F = Fraction


def main(argv):
    """cli.main in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _exact(v) -> Fraction:
    """An mpf as the Fraction it is."""
    sign, man, exp, _ = v._mpf_
    return (-1) ** sign * man * F(2) ** exp


# --- the driver ----------------------------------------------------------------

def test_geometric_tail_is_certified():
    """sum 2^-k: the bound after t_n is exactly t_n (rho = 1/2)."""
    pol = PrecisionPolicy(20)
    ctx = pol.ctx
    val, bound, rounding = ratio_sum(ctx.mpf(1), (F(1, 2), (), ()), pol)
    assert abs(val - 2) <= bound + ctx.mpf(10) ** -pol.working_digits
    assert 0 < bound < ctx.mpf(10) ** -(pol.working_digits + 5)
    assert 0 < rounding < ctx.mpf(10) ** -pol.working_digits


def test_count_is_summed_in_full():
    """60 terms of sum 3^-k, though the stopping rule would end it near k = 53."""
    pol = PrecisionPolicy(10)
    ctx = pol.ctx
    val, bound, rounding = ratio_sum(ctx.mpf(1), (F(1, 3), (), ()), pol, count=60)
    exact = sum(F(1, 3 ** k) for k in range(60))
    assert abs(_exact(val) - exact) <= _exact(rounding)
    # |t_59| rho / (1 - rho) with rho = 1/3, to working precision
    assert abs(_exact(bound) * 2 * 3 ** 59 - 1) <= F(1, 2 ** (ctx.prec - 2))


def test_cap_and_gate_messages():
    pol = PrecisionPolicy(20, max_terms=16)
    ctx = pol.ctx
    with pytest.raises(DivergenceError, match=r"^demo truncation cap hit after 16 terms "
                                             r"\(raise --max-terms\)$"):
        ratio_sum(ctx.mpf(1), (F(1), (), ()), pol, "demo")
    with pytest.raises(TailBoundError, match=r"not bounded below 1.*raise -K"):
        ratio_sum(ctx.mpf(1), (F(2), (F(1, 2),), (F(1),)), pol, "demo", flag="-K", count=3)
    with pytest.raises(TailBoundError, match=r"certified tail bound .* exceeds 10\^-20 "
                                             r"after 3 terms \(raise -K\)"):
        ratio_sum(ctx.mpf(1), (F(1, 2), (), ()), pol, "demo", flag="-K", count=3)


def test_ratio_before_a_pole_is_not_certified():
    """k + beta <= 0: the factor is not yet monotone, so no bound is claimed."""
    pol = PrecisionPolicy(10)
    with pytest.raises(TailBoundError, match="not bounded below 1"):
        ratio_sum(pol.ctx.mpf(10) ** -40, (F(1, 100), (F(0),), (F(-5, 2),)), pol, count=2)


def test_pole_at_a_summed_index_is_refused():
    """-beta_i an integer >= start: MPNumError naming the sum and the first
    such index, before any term is formed."""
    with pytest.raises(mpnum.MPNumError, match=r"^series: .* pole at k = 3$"):
        ratio_sum(1, (F(1, 2), (F(1),), (F(-3),)), PrecisionPolicy(10), count=6)
    with pytest.raises(mpnum.MPNumError, match=r"^demo: .* pole at k = 4$"):
        ratio_sum(1, (F(1, 2), (F(1), F(1)), (F(-7), F(-4))), PrecisionPolicy(10), "demo",
                  start=4)
    # a pole below start is never stepped over: t_k = C(k, 4) 2^(4-k) from t_4 = 1
    val = ratio_sum(1, (F(1, 2), (F(1),), (F(-3),)), PrecisionPolicy(10), start=4)[0]
    assert abs(_exact(val) - 32) < F(1, 10 ** 10)


def test_series_reexports_ratio_sum():
    assert series.ratio_sum is mpnum.ratio_sum


# alpha_i, beta_i in (0, 3], |x| <= 1/8: 80 terms pass the 10^-30 tail gate
_small = st.builds(F, st.integers(1, 72), st.just(24))


@settings(max_examples=60, deadline=None)
@given(st.builds(F, st.integers(-1, 1), st.integers(8, 64)),
       st.integers(0, 3).flatmap(lambda m: st.tuples(st.lists(_small, min_size=m, max_size=m),
                                                     st.lists(_small, min_size=m, max_size=m))),
       st.builds(F, st.integers(-10 ** 6, 10 ** 6).filter(bool), st.integers(1, 10 ** 6)),
       st.integers(5, 30))
@example(F(1, 8), ([F(3)] * 3, [F(1, 24)] * 3), F(1, 3), 10)    # terms grow by 2^20 first
@example(F(-1, 8), ([F(3)], [F(1, 24)]), F(-2, 3), 10)
def test_count_sum_within_rounding_of_fraction_sum(x, ab, first, digits):
    """80 terms formed in fixed point lie within the returned rounding of the
    exact partial sum of the same first term and ratio."""
    alpha, beta = ab
    pol = PrecisionPolicy(digits)
    f = pol.ctx.mpf(first.numerator) / first.denominator
    val, _, rounding = ratio_sum(f, (x, tuple(alpha), tuple(beta)), pol, count=80)
    term, exact = _exact(f), F(0)
    for k in range(80):
        exact += term
        term *= F(*hgdata.term_step(x, alpha, beta)(k))
    assert abs(_exact(val) - exact) <= _exact(rounding)


# --- each caller's declared first term and ratio --------------------------------

def _spy(monkeypatch, owner):
    """Record (first, ratio, start, result) of every ratio_sum call made through owner."""
    calls = []

    def spy(first, ratio, pol, *args, **kwargs):
        out = ratio_sum(first, ratio, pol, *args, **kwargs)
        calls.append((first, ratio, kwargs.get("start", 0), out))
        return out

    monkeypatch.setattr(owner, "ratio_sum", spy)
    return calls


def _declared(ratio, k) -> Fraction:
    x, alpha, beta = ratio
    out = F(x)
    for a, b in zip(alpha, beta, strict=True):
        out *= F(k + a) / (k + b)
    return out


def _check(calls, exact_term, pol, units=None):
    """For k = 1..40 the declared ratio is the exact t_(k+1)/t_k, and the first
    term is the exact t_start, times its unit (an irrational factor common
    to every term), to working precision."""
    ctx = pol.ctx
    assert calls
    units = units or [1] * len(calls)
    for (first, ratio, start, _), exact, unit in zip(calls, exact_term, units, strict=True):
        for k in range(1, 41):
            assert _declared(ratio, k) == exact(k + 1) / exact(k), k
        want = exact(start)
        want = unit * ctx.mpf(want.numerator) / want.denominator
        assert abs(first - want) <= ctx.mpf(10) ** (5 - pol.working_digits) * abs(want)


def test_cy0_ratio(monkeypatch):
    pol = PrecisionPolicy(30)
    calls = _spy(monkeypatch, cy0)
    t = F(1, 7)
    cy0.cy0_regulator(t, pol)
    _check(calls, [lambda k: comb(2 * k, k) * t ** k / k], pol)


def test_k2_right_series_ratio(monkeypatch):
    pol = PrecisionPolicy(30)
    calls = _spy(monkeypatch, k2)
    z = pol.ctx.mpf("0.5")
    k2.mb_right_series(z, pol)
    zq = F(1, 2)
    a = hypergeom.coeff_stream(k2.DATA, 50)
    # every term carries z^(1/2)
    _check(calls, [lambda n: (-zq) ** n * a[n] / (n + F(1, 2))],
           pol, [pol.ctx.sqrt(z)])


def _G_rel(h, aj, l):
    """G(l + a_j) / G(a_j) from the Fraction product of the Gamma ratio."""
    out = F(1)
    for i in range(l):
        s = aj + i
        for bi in h.b:
            out *= bi - s - 1
        for ai in h.a:
            out /= s + 1 - ai
    return out


def _G_unit(h, aj, x, pol):
    """G(a_j) x^(a_j) from mpmath's gamma at 20 more digits."""
    with mpmath.workdps(pol.working_digits + 20):
        a = mpmath.mpf(aj.numerator) / aj.denominator
        g = mpmath.mpf(1)
        for c in h.a:
            g /= mpmath.gamma(a - mpmath.mpf(c.numerator) / c.denominator + 1)
        for c in h.b:
            g /= mpmath.gamma(-a + mpmath.mpf(c.numerator) / c.denominator)
        return pol.ctx.mpf(g * (mpmath.mpf(x.numerator) / x.denominator) ** a)


@pytest.mark.parametrize("derivative", [False, True])
def test_quintic_column_ratio(monkeypatch, derivative):
    pol = PrecisionPolicy(30)
    calls = _spy(monkeypatch, quintic)
    t = F(5)
    lam_t = t / hypergeom.scale_C(appb.DATA)
    exact = []
    for j, aj in enumerate(appb.DATA.a):
        quintic.column_sums(appb.DATA, j, ((t, derivative),), pol)
        exact.append(lambda l, aj=aj: _G_rel(appb.DATA, aj, l) * lam_t ** l
                     / (t if derivative else l + aj))
    _check(calls, exact, pol, [_G_unit(appb.DATA, aj, lam_t, pol) for aj in appb.DATA.a])


def test_period_ratio(monkeypatch):
    pol = PrecisionPolicy(30)
    calls = _spy(monkeypatch, cli)
    code, _, err = main(["period", "1/2,1/2,1/3,2/3;1,1,1,1", "--var", "t", "-K", "120",
                         "--point", "1/1024"])
    assert code == 0, err
    h = hypergeom.parse_hg("1/2,1/2,1/3,2/3;1,1,1,1")
    coeffs = hypergeom.coeff_stream(h, 120, hypergeom.scale_C(h))
    _check(calls, [lambda k: coeffs[k] * F(1, 1024) ** k], pol)


# --- each caller's sums against the same sums at doubled precision ---------------

_unit = st.integers(2, 2000).flatmap(lambda q: st.builds(F, st.integers(1, q - 1), st.just(q)))


def _point(hi):
    """Rationals in (0, hi)."""
    return _unit.map(lambda u: u * hi)


_dyadic = st.integers(-(2 ** 20) + 1, 2 ** 20 - 1).filter(bool).map(lambda n: F(n, 2 ** 20))
_CALLERS = {
    # owner, point strategy, run(point, pol)
    "cy0": (cy0, _point(F(1, 4)), lambda t, pol: cy0._series_value(t, pol)),
    # dyadic, so that z is the same mpf at both precisions
    "k2": (k2, _dyadic, lambda z, pol: k2.mb_right_series(
        pol.ctx.mpf(z.numerator) / z.denominator, pol)),
    "quintic": (quintic, st.tuples(st.sampled_from((appb.DATA, quintic.DATA_J0,
                                                    quintic.DATA_J1)),
                                   st.integers(0, 3), _point(F(1)), st.booleans()),
                lambda c, pol: quintic.column_sums(
                    c[0], c[1], ((c[2] * hypergeom.scale_C(c[0]), c[3]),), pol)),
}


@pytest.mark.parametrize("name", sorted(_CALLERS))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), digits=st.integers(5, 30))
def test_sum_within_tail_and_rounding_of_doubled(name, data, digits):
    """The same sum at pol and pol.doubled() agrees within the tail plus
    rounding of each.  The first term's own rounding is the caller's, and
    the sum is linear in it, so the doubled sum is scaled by first/first_d."""
    owner, points, run = _CALLERS[name]
    point = data.draw(points)
    pol = PrecisionPolicy(digits)
    sums = []
    for p in (pol, pol.doubled()):
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy(mp, owner)
            try:
                run(point, p)
            except DivergenceError:         # past max_terms: the cap's case
                assume(False)
        sums.append(calls)
    assert len(sums[0]) == len(sums[1]) == 1
    (first, _, _, (val, tail, rounding)), = sums[0]
    (first_d, _, _, (val_d, tail_d, rounding_d)), = sums[1]
    with mpmath.workprec(pol.doubled().ctx.prec + 64):
        val, tail, rounding, first, val_d, tail_d, rounding_d, first_d = map(
            mpmath.mpf, (val, tail, rounding, first, val_d, tail_d, rounding_d, first_d))
        scale = first / first_d
        assert abs(val - scale * val_d) <= tail + rounding + abs(scale) * (tail_d + rounding_d)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(("1/5,2/5,3/5,4/5;1,1,1,1", "1/2,1/3;1/4,1", "1/7,3/7;2/7,1")),
       st.fractions(F(-3, 2), F(3, 2), max_denominator=1000), st.integers(1, 200),
       st.integers(5, 30))
def test_period_sum_within_tail_and_rounding_of_doubled(data, x, K, digits):
    """period's K-term sum at any point: where it is certified, within the tail
    plus rounding of the same sum at doubled precision (t_0 = 1 is exact)."""
    ratio = (x, *(tuple(F(c) for c in side.split(",")) for side in data.split(";")))
    pol = PrecisionPolicy(digits)
    try:
        val, tail, rounding = ratio_sum(1, ratio, pol, "period", flag="-K", count=K)
        val_d, tail_d, rounding_d = ratio_sum(1, ratio, pol.doubled(), "period", flag="-K",
                                              count=K)
    except TailBoundError:
        assume(False)
    with mpmath.workprec(pol.doubled().ctx.prec + 64):
        val, tail, rounding, val_d, tail_d, rounding_d = map(
            mpmath.mpf, (val, tail, rounding, val_d, tail_d, rounding_d))
        assert abs(val - val_d) <= tail + rounding + tail_d + rounding_d


# --- period --point against mpmath ----------------------------------------------

# defined over Q, so --var t has its integral scale C
_T_DATA = ("1/5,2/5,3/5,4/5", "1/2,1/2,1/2,1/2", "1/3,1/3,2/3,2/3", "1/4,1/2,1/2,3/4",
           "1/6,1/6,5/6,5/6", "1/2,1/2,1/3,2/3", "1/8,3/8,5/8,7/8")
_index = st.integers(1, 12).flatmap(lambda q: st.builds(F, st.integers(1, q), st.just(q)))


@st.composite
def _period_case(draw):
    kind = draw(st.sampled_from(("4F3 z", "4F3 t", "2F1")))
    if kind == "4F3 t":
        h = hypergeom.parse_hg(draw(st.sampled_from(_T_DATA)) + ";1,1,1,1")
        var, scale = "t", hypergeom.scale_C(h)
    else:
        if kind == "4F3 z":
            a, b = draw(st.lists(_index, min_size=4, max_size=4)), [F(1)] * 4
        else:
            a, b = draw(st.lists(_index, min_size=2, max_size=2)), [draw(_index), F(1)]
        h, var, scale = hypergeom.HGData(tuple(a), tuple(b)), "z", F(1)
    x = draw(st.fractions(F(1, 1000), F(95, 100), max_denominator=1000))
    return h, var, x / scale, draw(st.integers(5, 150)), draw(st.integers(5, 30))


@settings(max_examples=60, deadline=None)
@given(_period_case())
def test_period_point_within_certified_bound(case):
    h, var, point, K, digits = case
    code, out, err = main(["--digits", str(digits), "period", str(h), "--var", var,
                           "-K", str(K), "--point", str(point), "--json"])
    assert code in (0, 3), err
    if code == 3:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "-K" in err
        return
    doc = json.loads(out)
    scale = hypergeom.scale_C(h) if var == "t" else F(1)
    x = scale * point
    with mpmath.workdps(digits + 20):
        ref = mpmath.hyper([mpmath.mpf(a.numerator) / a.denominator for a in h.a],
                           [mpmath.mpf(b.numerator) / b.denominator for b in h.b[:-1]],
                           mpmath.mpf(x.numerator) / x.denominator)
        value = mpmath.mpf(doc["value"])
        ulp = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(value))) - digits + 1)
        assert abs(value - ref) <= mpmath.mpf(doc["tail_bound"]) + ulp
        assert mpmath.mpf(doc["tail_bound"]) <= mpmath.mpf(10) ** -digits


@pytest.mark.parametrize("argv", [
    ["period", "1/2;1", "-K", "3", "--point", "2"],
    ["period", "1/2;1", "-K", "30", "--point", "9/10"],
    ["period", "1/3,1/3,2/3,2/3;1,1,1,1", "--var", "t", "-K", "120", "--point", "1/1024"],
])
def test_uncertified_period_points_exit3(argv):
    """Each printed a value at exit 0 behind a tail guessed from trailing ratios."""
    code, out, err = main(argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: period: ") and err.count("\n") == 1 and "-K" in err
