"""mpnum.power_sums, the one fixed-K summation of the k4 entries and k2's
z^-k streams, against the two loops it replaced, kept here as the reference:
the value loop of the former LogSeries.evaluate and the former loop of
k2._stream_sums, run in exact arithmetic on the same floated coefficients
and the same x, and k4's determinant against the former sum at doubled
precision.  Each sum must lie within the bound power_sums returns for it."""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import to_rational

from hyperreg.mpnum import DivergenceError, PrecisionPolicy, fixed_terms, power_sums
from hyperreg.regulators import k4
from hyperreg.series import LogSeries, PowSeries, _to_mp

F = Fraction


def _exact(v) -> Fraction:
    """The exact value of an mpf."""
    return F(*to_rational(v._mpf_))


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


def _ref_exact_loop(row, x) -> Fraction:
    """The former loops' sum of one row at x, acc += c_k x^k over k
    ascending, in exact arithmetic on the exact values of the mpfs."""
    acc, xp, xe = F(0), F(1), _exact(x)
    for c in row:
        acc += _exact(c) * xp
        xp *= xe
    return acc


def _floated(row, ctx):
    return [ctx.mpf(c.numerator) / c.denominator for c in row]


def _within_bounds(rows, x, ctx):
    """power_sums of the floated rows at x, each within its bound of the exact sum."""
    sums, bounds = power_sums([[c._mpf_ for c in row] for row in rows], x, ctx)
    for row, s, b in zip(rows, sums, bounds, strict=True):
        assert abs(_exact(s) - _ref_exact_loop(row, x)) <= _exact(b)
    return sums


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
    tv = ctx.mpf(t.numerator) / t.denominator
    sums = _within_bounds([_floated(r, ctx) for r in rows], tv, ctx)
    # the rows as the log-parts of one series: evaluate adds those sums in ascending j
    ls = LogSeries([PowSeries(0, r) for r in rows])
    lg = ctx.log(tv)
    total = ctx.mpf(0)
    for j, s in enumerate(sums):
        total = total + s * lg ** j
    assert ls.evaluate(t, pol) == total


@settings(max_examples=100, deadline=None)
@given(rows=_rows(), z=st.fractions(min_value=F(21, 20), max_value=F(10 ** 6)),
       digits=st.integers(10, 60))
def test_power_sums_at_inverse_z_are_the_former_k2_loop(rows, z, digits):
    ctx = PrecisionPolicy(digits).ctx
    zv = ctx.mpf(z.numerator) / z.denominator
    _within_bounds([_floated(r, ctx) for r in rows], 1 / zv, ctx)


def test_power_sums_rows_may_differ_in_length():
    ctx = PrecisionPolicy(20).ctx
    one, two = ctx.mpf(1)._mpf_, ctx.mpf(2)._mpf_
    sums, bounds = power_sums([[one] * 3, [two], []], ctx.mpf(2), ctx)
    assert sums == [7, 2, 0] and bounds[2] == 0
    assert power_sums([], ctx.mpf(2), ctx) == ([], [])


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
    """Every log-part's sum at t lies within its bound of the same raw rows
    summed at doubled precision, and r(t) within 10^-(working digits - 3) of
    the former sum at doubled precision: the coefficients' own rounding,
    which no bound counts, is about 10^-(working digits + 1)."""
    pol = PrecisionPolicy(digits)
    for t in k4.T_POINTS:
        K = fixed_terms(-math.log(k4.SCALE * float(t)), pol, 32, 8, "k4 entries")
        for KK, p in ((K, pol), (2 * K, pol.doubled())):
            ctx, ref = p.ctx, p.doubled().ctx
            rows = [part for parts in k4._entries_built(KK).floated(KK, p).values()
                    for part in parts]
            tv = ctx.mpf(t.numerator) / t.denominator
            for s, b, s2, b2 in zip(*power_sums(rows, tv, ctx), *power_sums(rows, tv, ref)):
                assert abs(_exact(s) - _exact(s2)) <= _exact(b) + _exact(b2)
            dev = abs(k4._det_value(KK, t, p) - ctx.convert(_ref_det_value(KK, t, p.doubled())))
            assert dev < ctx.mpf(10) ** -(p.working_digits - 3)


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
