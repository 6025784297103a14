"""mpnum.ratio_sum, re-exported by series: series summation and its certified tail.

Each caller declares t_(k+1)/t_k = x prod (k + alpha_i) / (k + beta_i); the
declarations are checked against the exact terms of each series and against
the terms its step actually produces.  `period --point` values are checked
against mpmath's `hyper` within the printed tail bound.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from itertools import repeat
from math import comb

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperreg import cli, hypergeom, mpnum, series
from hyperreg.mpnum import PrecisionPolicy
from hyperreg.regulators import appb, cy0, elliptic, k2, quintic
from hyperreg.series import DivergenceError, TailBoundError, ratio_sum

F = Fraction


def main(argv):
    """cli.main in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# --- the driver ----------------------------------------------------------------

def test_geometric_tail_is_certified():
    """sum 2^-k: the bound after t_n is exactly t_n (rho = 1/2)."""
    pol = PrecisionPolicy(20)
    ctx = pol.ctx
    terms = (ctx.mpf(2) ** -k for k in range(10 ** 6))
    val, bound = ratio_sum(terms, (F(1, 2), (), ()), pol)
    assert abs(val - 2) <= bound + ctx.mpf(10) ** -pol.working_digits
    assert 0 < bound < ctx.mpf(10) ** -(pol.working_digits + 5)


def test_list_is_summed_in_full():
    pol = PrecisionPolicy(10)
    ctx = pol.ctx
    terms = [ctx.mpf(3) ** -k for k in range(60)]
    val, bound = ratio_sum(terms, (F(1, 3), (), ()), pol)
    assert val == sum(terms[1:], terms[0])
    assert bound == terms[-1] / 2


def test_cap_and_gate_messages():
    pol = PrecisionPolicy(20, max_terms=16)
    ctx = pol.ctx
    with pytest.raises(DivergenceError, match=r"^demo truncation cap hit after 16 terms "
                                             r"\(raise --max-terms\)$"):
        ratio_sum(repeat(ctx.mpf(1)), (F(1), (), ()), pol, "demo")
    with pytest.raises(TailBoundError, match=r"not bounded below 1.*raise -K"):
        ratio_sum([ctx.mpf(1)] * 3, (F(2), (F(1, 2),), (F(1),)), pol, "demo", flag="-K")
    with pytest.raises(TailBoundError, match=r"certified tail bound .* exceeds 10\^-20 "
                                             r"after 3 terms \(raise -K\)"):
        ratio_sum([ctx.mpf(1)] * 3, (F(1, 2), (), ()), pol, "demo", flag="-K")


def test_ratio_before_a_pole_is_not_certified():
    """k + beta <= 0: the factor is not yet monotone, so no bound is claimed."""
    pol = PrecisionPolicy(10)
    terms = [pol.ctx.mpf(10) ** -40] * 2
    with pytest.raises(TailBoundError, match="not bounded below 1"):
        ratio_sum(terms, (F(1, 100), (F(0),), (F(-5, 2),)), pol)


def test_series_reexports_ratio_sum():
    assert series.ratio_sum is mpnum.ratio_sum


# --- each caller's declared ratio ----------------------------------------------

def _spy(monkeypatch, owner):
    """Record (terms, ratio, start) of every ratio_sum call made through owner."""
    calls = []

    def spy(terms, ratio, pol, *args, **kwargs):
        seen = list(terms) if isinstance(terms, list) else []

        def recorded(it):
            for t in it:
                seen.append(t)
                yield t

        out = ratio_sum(seen if isinstance(terms, list) else recorded(terms), ratio, pol,
                        *args, **kwargs)
        calls.append((seen, ratio, kwargs.get("start", 0)))
        return out

    monkeypatch.setattr(owner, "ratio_sum", spy)
    return calls


def _declared(ratio, k) -> Fraction:
    x, alpha, beta = ratio
    out = F(x)
    for a, b in zip(alpha, beta, strict=True):
        out *= F(k + a) / (k + b)
    return out


def _check(calls, exact_term, pol):
    """For k = 1..40: the declared ratio is the exact t_(k+1)/t_k, and the
    terms the step produced have that ratio to working precision."""
    ctx = pol.ctx
    assert calls
    for (terms, ratio, start), exact in zip(calls, exact_term, strict=True):
        assert len(terms) > 42 - start
        for k in range(1, 41):
            want = exact(k + 1) / exact(k)
            assert _declared(ratio, k) == want, k
            got = terms[k + 1 - start] / terms[k - start]
            assert abs(got - ctx.mpf(want.numerator) / want.denominator) \
                <= ctx.mpf(10) ** (5 - pol.working_digits) * abs(got), k


def test_cy0_ratio(monkeypatch):
    pol = PrecisionPolicy(30)
    calls = _spy(monkeypatch, cy0)
    t = F(1, 7)
    cy0.cy0_regulator(t, pol)
    _check(calls, [lambda k: comb(2 * k, k) * t ** k / k], pol)


def test_elliptic_ratio(monkeypatch):
    pol = PrecisionPolicy(30)
    calls = _spy(monkeypatch, elliptic)
    t = F(1, 32)
    elliptic.psi_sum(t, pol)
    _check(calls, [lambda m: comb(2 * m, m) ** 2 * t ** m / m], pol)


def test_k2_right_series_ratio(monkeypatch):
    pol = PrecisionPolicy(30)
    calls = _spy(monkeypatch, k2)
    z = pol.ctx.mpf("0.5")
    k2.mb_right_series(z, pol)
    zq = F(1, 2)
    # the common factor z^(1/2) cancels in every ratio
    _check(calls, [lambda n: (-zq) ** n * hypergeom.coeff_ak(k2.DATA, n) / (n + F(1, 2))],
           pol)


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
                     / (1 if derivative else l + aj))
    _check(calls, exact, pol)


def test_period_ratio(monkeypatch):
    pol = PrecisionPolicy(30)
    calls = _spy(monkeypatch, cli)
    code, _, err = main(["period", "1/2,1/2,1/3,2/3;1,1,1,1", "--var", "t", "-K", "120",
                         "--point", "1/1024"])
    assert code == 0, err
    h = hypergeom.parse_hg("1/2,1/2,1/3,2/3;1,1,1,1")
    coeffs = hypergeom.coeff_stream(h, 120, hypergeom.scale_C(h))
    _check(calls, [lambda k: coeffs[k] * F(1, 1024) ** k], pol)


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
