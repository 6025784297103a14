"""hgdata.term_step and hgdata.ratio_stream: the one hypergeometric term
ratio, as the integers p / q of its step, against Fraction-by-Fraction
products and against the loops each caller ran before it read the ratio
from hgdata, kept here as references."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperreg import hgdata
from hyperreg.hypergeom import W_r, parse_hg
from hyperreg.mpnum import PrecisionPolicy
from hyperreg.regulators import appb

from test_quintic_appb import gamma_closed_form

F = Fraction

_rational = st.builds(F, st.integers(-40, 40), st.integers(1, 24))


@st.composite
def _triple(draw):
    m = draw(st.integers(0, 5))
    alpha = tuple(draw(st.lists(_rational, min_size=m, max_size=m)))
    # beta_i > 0 keeps every k >= 0 off a pole
    beta = tuple(draw(st.lists(_rational.filter(lambda c: c > 0), min_size=m, max_size=m)))
    return draw(_rational), alpha, beta


def _fraction_ratio(x, alpha, beta, k):
    r = F(x)
    for a in alpha:
        r *= k + a
    for b in beta:
        r /= k + b
    return r


@settings(max_examples=300, deadline=None)
@given(_triple(), st.one_of(st.integers(0, 300), _rational.filter(lambda c: c >= 0)))
def test_term_ratio_is_the_fraction_product(triple, k):
    got = F(*hgdata.term_step(*triple)(k))
    want = _fraction_ratio(*triple, k)
    assert isinstance(got, Fraction)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@settings(max_examples=150, deadline=None)
@given(_triple(), st.integers(0, 40))
def test_ratio_stream_is_the_running_fraction_product(triple, K):
    got = hgdata.ratio_stream(*triple, K)
    want = [F(1)]
    for k in range(K - 1):
        want.append(want[-1] * _fraction_ratio(*triple, k))
    assert got == want[:max(K, 1)]
    assert all(isinstance(c, Fraction) for c in got)


# --- the loops the callers ran before -----------------------------------------

TABLE = ("1/5,2/5,3/5,4/5;1,1,1,1", "1/2,1/2,1/2,1/2;1,1,1,1",
         "1/4,1/2,1/2,3/4;1,1,1,1", "1/12,5/12,7/12,11/12;1,1,1,1",
         "1/5,2/5,3/5,4/5;1/6,5/6,1,1", "1/10,3/10,7/10,9/10;1/4,1/2,3/4,1")


def _ref_ratio(h, k):
    """hgdata._ratio: a_(k+1) / a_k by Fraction products."""
    num = F(1)
    for aj in h.a:
        num *= k + aj
    den = F(1)
    for bj in h.b:
        den *= k + bj
    return num / den


@pytest.mark.parametrize("data", TABLE)
def test_term_ratio_matches_old_ratio(data):
    h = parse_hg(data)
    val = F(1)
    coeffs = hgdata.coeff_stream(h, 60)
    for k in range(60):
        assert F(*hgdata.term_step(1, h.a, h.b)(k)) == _ref_ratio(h, k)
        assert coeffs[k] == val
        val *= _ref_ratio(h, k)


def _ref_W_r_coeffs(h, r, K):
    """W_r's coefficient loop before it read ratio_stream."""
    rr = F(1, r)
    cur = F(r) ** h.m
    coeffs = [cur]
    for k in range(K - 1):
        ratio = F(1)
        for aj in h.a:
            ratio *= (aj + rr + k) / (rr + k + 1)
        cur *= ratio
        coeffs.append(cur)
    return coeffs


@pytest.mark.parametrize("data", [d for d in TABLE if d.endswith(";1,1,1,1")])
@pytest.mark.parametrize("r", (2, 3, 5))
def test_W_r_matches_old_loop(data, r):
    h = parse_hg(data)
    for K in (1, 2, 30):
        ps = W_r(h, r, K).part(0)
        assert ps.offset == F(1, r)
        assert list(ps.coeffs) == _ref_W_r_coeffs(h, r, K)


def _ref_pi0_ratio(n):
    """appb.pi0_ratio: Gamma_cf(n + 3/2) / Gamma_cf(n + 1/2) as the Gamma_cf quotient."""
    s = F(2 * n + 1, 2)
    num = F(1)
    for j in range(1, 7):
        num *= 6 * s + j
    num *= (s + 1) ** 3 * (3 * s - F(1, 2))
    den = ((2 * s + 1) * (2 * s + 2)) ** 3 \
        * (3 * s + 1) * (3 * s + 2) * (3 * s + 3) * (3 * s + F(5, 2)) * 27
    return num / den


def test_pi0_stream_matches_gamma_cf_product():
    want = [F(1)]
    for k in range(199):
        want.append(want[-1] * _ref_pi0_ratio(k))
    for K in (1, 2, 5, 200):
        assert appb.pi0_relative_coefficients(K) == want[:K]


def test_pi0_stream_matches_closed_form():
    pol = PrecisionPolicy(30)
    ctx = pol.ctx
    g0 = gamma_closed_form(ctx.mpf(1) / 2, pol)
    for k, c in enumerate(appb.pi0_relative_coefficients(21)):
        want = gamma_closed_form(k + ctx.mpf(1) / 2, pol) / g0
        assert abs(ctx.mpf(c.numerator) / c.denominator - want) <= pol.tol * abs(want)
