"""mpnum.power_sums, the one fixed-K summation of the k4 entries and k2's
z^-k streams, against the two loops it replaced, kept here verbatim as the
reference: the value lines of the former LogSeries.evaluate and the former
loop of k2._stream_sums.  All comparisons are bit for bit."""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperreg.mpnum import DivergenceError, PrecisionPolicy, fixed_terms, power_sums
from hyperreg.regulators import k4
from hyperreg.series import LogSeries, PowSeries, _to_mp

F = Fraction


def _ref_evaluate(self, z0, pol):
    """The value of the former LogSeries.evaluate (its tail estimate left out)."""
    ctx = pol.ctx
    z = ctx.mpf(z0.numerator) / z0.denominator if isinstance(z0, Rational) else ctx.convert(z0)
    lg = ctx.log(z)
    total = ctx.mpf(0)
    for j, p in enumerate(self.parts):
        if p is None or p.K == 0:
            continue
        zp = z ** (ctx.mpf(p.offset.numerator) / p.offset.denominator)
        acc = ctx.mpf(0)
        for c in p.coeffs:
            t = _to_mp(c, ctx) * zp
            acc = acc + t
            zp = zp * z
        part_val = acc * lg ** j
        total = total + part_val
    return total


def _ref_stream_loop(ws, z, ctx):
    """The former k-loop of k2._stream_sums over exact weight rows ws."""
    K = len(ws[0]) - 1
    zin = 1 / ctx.convert(z)
    accs = [ctx.mpf(0)] * len(ws)
    zp = ctx.mpf(1)
    for k in range(K + 1):
        for i, w in enumerate(ws):
            c = w[k]
            if c:
                accs[i] += ctx.mpf(c.numerator) / c.denominator * zp
        zp *= zin
    return accs


def _floated(row, ctx):
    return [ctx.mpf(c.numerator) / c.denominator for c in row]


_coeff = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 9),
    st.builds(F, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 64)),
)


@st.composite
def _rows(draw):
    n = draw(st.integers(1, 60))
    return draw(st.lists(st.lists(_coeff, min_size=n, max_size=n), min_size=1, max_size=5))


@settings(max_examples=100, deadline=None)
@given(rows=_rows(), t=st.fractions(min_value=F(1, 10 ** 8), max_value=F(255, 256 ** 2)),
       digits=st.integers(10, 60))
def test_power_sums_at_t_are_the_former_evaluate(rows, t, digits):
    pol = PrecisionPolicy(digits)
    ctx = pol.ctx
    sums = power_sums([_floated(r, ctx) for r in rows], ctx.mpf(t.numerator) / t.denominator,
                      ctx)
    for row, s in zip(rows, sums):
        assert s._mpf_ == _ref_evaluate(LogSeries([PowSeries(0, row)]), t, pol)._mpf_
    # the rows as the log-parts of one series: evaluate is the former value
    ls = LogSeries([PowSeries(0, r) for r in rows])
    assert ls.evaluate(t, pol)._mpf_ == _ref_evaluate(ls, t, pol)._mpf_


@settings(max_examples=100, deadline=None)
@given(rows=_rows(), z=st.fractions(min_value=F(21, 20), max_value=F(10 ** 6)),
       digits=st.integers(10, 60))
def test_power_sums_at_inverse_z_are_the_former_k2_loop(rows, z, digits):
    ctx = PrecisionPolicy(digits).ctx
    zv = ctx.mpf(z.numerator) / z.denominator
    sums = power_sums([_floated(r, ctx) for r in rows], 1 / ctx.convert(zv), ctx)
    assert [s._mpf_ for s in sums] == [a._mpf_ for a in _ref_stream_loop(rows, zv, ctx)]


def test_power_sums_rows_may_differ_in_length():
    ctx = PrecisionPolicy(20).ctx
    assert power_sums([[ctx.mpf(1)] * 3, [ctx.mpf(2)], []], ctx.mpf(2), ctx) == [7, 2, 0]
    assert power_sums([], ctx.mpf(2), ctx) == []


def _ref_det_value(K, t, pol):
    """r(t) of the former k4._det_value, over the former evaluate's value."""
    ctx = pol.ctx
    ent = {name: ls.to_floating(pol) for name, ls in k4._entries_built(K).prefix(K).items()}
    tv = ctx.mpf(t.numerator) / t.denominator
    sq = ctx.sqrt(tv)
    pref = -1 / (4 * ctx.pi ** 2)

    def ev(name):
        return _ref_evaluate(ent[name], t, pol)

    lp = ev("log_primitive")
    sp = sq * ev("sqrt_primitive_inner")
    sd = sq * pref * ev("sqrt_deformed_inner")
    ld = pref * ev("log_deformed_inner")
    return sp * ld - sd * lp


@pytest.mark.parametrize("digits", [6, 20, 30, 50])
def test_det_value_is_the_former_sum_at_K_and_2K(digits):
    pol = PrecisionPolicy(digits)
    for t in k4.T_POINTS:
        K = fixed_terms(-math.log(k4.SCALE * float(t)), pol, 32, 8, "k4 entries")
        for KK, p in ((K, pol), (2 * K, pol.doubled())):
            assert k4._det_value(KK, t, p)._mpf_ == _ref_det_value(KK, t, p)._mpf_


def test_the_cap_refuses_every_k4_point_the_old_guess_refused():
    """The k4 entries decay like (256 t)^k, so fixed_terms asks for more terms
    as x = 256 t grows.  At the default max_terms it refuses every x >= 0.986
    at any --digits: the exact rule in place of the former evaluate's guess,
    which refused an extrapolated term ratio >= 0.999."""
    for digits in range(1, 201):
        pol = PrecisionPolicy(digits)
        assert pol.max_terms == 4000
        for x in (0.986, 0.99, 0.999, 0.9999, 1 - 1e-12):
            with pytest.raises(DivergenceError):
                fixed_terms(-math.log(x), pol, 32, 8, "k4 entries")
    # the boundary lies near 0.9852: just below it, one digit still sums
    assert fixed_terms(-math.log(0.985), PrecisionPolicy(1), 32, 8, "k4 entries") <= 4000
