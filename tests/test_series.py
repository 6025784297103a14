from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperreg.exactnum import (EX_I, EX_PI, ExactNum, ex_zeta2, two_pi_i_pow)
from hyperreg.mpnum import PrecisionPolicy
from hyperreg.regulators.hadamard import _finite
from hyperreg.regulators.reporting import CaseError
from hyperreg.series import (LogSeries, OffsetMismatch, PowSeries, SeriesError, SLaurent, _czero, anti_dlog, hadamard,
                             residue_extract, theta)

F = Fraction


def test_exactnum_ring():
    z2 = ex_zeta2()
    assert (EX_I * EX_I) == ExactNum.from_rational(-1)
    assert two_pi_i_pow(2) == ExactNum.atom("pi", 2, -4)
    assert (z2 * 6) == EX_PI * EX_PI
    x = (2 + 3 * EX_PI) * (F(1, 2) - EX_PI)
    assert x == ExactNum.from_rational(1) + F(-1, 2) * EX_PI - 3 * EX_PI * EX_PI
    ctx = PrecisionPolicy(25).ctx
    assert abs(z2.to_mp(ctx) - ctx.pi ** 2 / 6) < ctx.mpf(10) ** -30


def test_exactnum_opaque_generator():
    a = ExactNum.atom("alpha1")
    expr = a * 3 - a - a - a
    assert expr == ExactNum.from_rational(0)
    ctx = PrecisionPolicy(25).ctx
    with pytest.raises(KeyError):
        (a * 2).to_mp(ctx)


def test_mul_truncation_spec_example():
    a = PowSeries(0, [F(1), F(2), F(0)])
    b = PowSeries(0, [F(1), F(-2), F(0)])
    assert (a * b).coeffs == [1, 0, -4]


def test_log_times_log():
    lg = LogSeries.from_pow(PowSeries(0, [F(1)]), 1)
    sq = lg * lg
    assert sq.part(2) is not None and sq.part(2).coeffs == [1]
    assert sq.part(1) is None or all(c == 0 for c in sq.part(1).coeffs)


def test_binom_square_convolution():
    # (sum binom(2k,k) z^k)^2 truncated at z^2: brute-force oracle
    binoms = [1, 2, 6]
    a = PowSeries(0, [F(b) for b in binoms])
    sq = a * a
    brute = [sum(binoms[i] * binoms[k - i] for i in range(k + 1)) for k in range(3)]
    assert sq.coeffs == brute == [1, 4, 16]


def test_theta_examples():
    assert theta(LogSeries.from_pow(PowSeries(0, [F(1)]), 1)) \
        == LogSeries.constant(F(1))
    half = theta(LogSeries.from_pow(PowSeries(F(1, 2), [F(1)])))
    assert half.part(0).coeffs == [F(1, 2)] and half.part(0).offset == F(1, 2)


def test_anti_dlog_examples():
    # anti_dlog(1, 0) = log z
    out = anti_dlog(LogSeries.constant(F(1)))
    assert out.part(1) is not None and out.part(1).coeffs[0] == 1
    # anti_dlog(sum binom^4 t^k, 0) = log t + sum binom^4 t^k / k
    binom4 = [1, 16, 1296]
    src = LogSeries.from_pow(PowSeries(0, [F(b) for b in binom4]))
    out = anti_dlog(src)
    assert out.part(1).coeffs[0] == 1
    assert out.part(0).offset == 1 and out.part(0).coeffs[:2] == [16, 648]
    # anti_dlog(sqrt t sum binom^4 t^k) = sqrt t sum binom^4 t^k/(k+1/2)
    src2 = LogSeries.from_pow(PowSeries(F(1, 2), [F(b) for b in binom4]))
    out2 = anti_dlog(src2)
    assert out2.part(0).offset == F(1, 2)
    assert out2.part(0).coeffs[:3] == [2, F(32, 3), F(2592, 5)]


@st.composite
def exact_log_series(draw):
    offset = draw(st.sampled_from([F(0), F(1, 2), F(1, 3), F(-1, 2), F(2)]))
    parts = []
    J = draw(st.integers(0, 3))
    K = draw(st.integers(1, 5))
    for _ in range(J + 1):
        coeffs = [F(draw(st.integers(-9, 9)), draw(st.integers(1, 7)))
                  for _ in range(K)]
        parts.append(PowSeries(offset, coeffs))
    return LogSeries(parts)


@given(exact_log_series())
@settings(max_examples=100, deadline=None)
def test_theta_anti_dlog_roundtrip(ls):
    # a nonzero integration constant lives on the integer lattice; use it
    # only when the series does too
    offs = [p.offset for p in ls.parts if p is not None]
    k = F(3, 7) if all(o.denominator == 1 for o in offs) else F(0)
    assert theta(anti_dlog(ls, k)) == ls


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=8),
       st.lists(st.integers(-50, 50), min_size=1, max_size=8),
       st.lists(st.integers(-50, 50), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_hadamard_commutative_associative(xs, ys, zs):
    a = PowSeries(0, [F(x) for x in xs])
    b = PowSeries(0, [F(y) for y in ys])
    c = PowSeries(0, [F(z) for z in zs])
    assert hadamard(a, b) == hadamard(b, a)
    assert hadamard(hadamard(a, b), c) == hadamard(a, hadamard(b, c))


def test_hadamard_examples():
    binom = PowSeries(0, [F(1), F(2), F(6)])
    sq = hadamard(binom, binom)
    assert sq.coeffs == [1, 4, 36]
    ones = PowSeries(0, [F(1)] * 3)
    assert hadamard(binom, ones) == binom
    # section-10 period coefficient at n = 1: (-12) * 4 = -48
    a = PowSeries(0, [F(1), F(-12)])
    b = PowSeries(0, [F(1), F(4)])
    assert hadamard(a, b).coeffs[1] == -48
    with pytest.raises(Exception):
        hadamard(PowSeries(F(1, 2), [F(1)]), ones)


def test_offset_mismatch():
    a = LogSeries.from_pow(PowSeries(0, [F(1), F(1)]))
    b = LogSeries.from_pow(PowSeries(F(1, 2), [F(1), F(1)]))
    with pytest.raises(OffsetMismatch):
        _ = a + b


def test_evaluate_geometric(pol):
    ctx = pol.ctx
    ls = LogSeries.from_pow(PowSeries(0, [F(1)] * 200))
    val = ls.to_floating(pol).evaluate(F(1, 2), pol)
    assert abs(val - 2) < ctx.mpf(10) ** -25
    assert val == ls.evaluate(F(1, 2), pol)
    # the stored truncation and nothing past it: 1 + 1/2 + ... + 2^-9
    ten = LogSeries.from_pow(PowSeries(0, [F(1)] * 10))
    assert ten.evaluate(F(1, 2), pol) == ctx.mpf(1023) / 512
    # log z at z0 = e
    lg = LogSeries.from_pow(PowSeries(0, [F(1)]), 1)
    val2 = lg.to_floating(pol).evaluate(ctx.e, pol)
    assert abs(val2 - 1) < pol.tol
    # z0^offset: sqrt(z) (1 + z) at z0 = 4
    half = LogSeries.from_pow(PowSeries(F(1, 2), [F(1), F(1)]))
    assert half.evaluate(F(4), pol) == 10
    with pytest.raises(SeriesError):
        ls.evaluate(F(0), pol)


def test_residue_table():
    one = LogSeries.constant(F(1))
    # s^0 ds/(2 pi i s) -> 1
    sl = SLaurent({(0, 0): one}, 3, -3)
    out = residue_extract(sl)
    assert out == SLaurent({(0, 0): one}, 3, -3)
    assert _finite(out, "s^0") == one
    # s^3 -> 0
    sl3 = SLaurent({(3, 0): one}, 3, -3)
    assert not residue_extract(sl3).terms
    # log s at s^0 -> log eps slot; s^-2 log s -> (-1)/(2 eps^2); s log s -> -eps
    sl_log = SLaurent({(0, 1): one, (-2, 1): one, (1, 1): one}, 3, -3)
    ext = residue_extract(sl_log)
    assert ext.slot(0, 1) == one
    assert ext.slot(-2).part(0).coeffs[0] == F(-1, 2)
    assert ext.slot(1).part(0).coeffs[0] == F(-1)
    with pytest.raises(CaseError, match=r"\(-2, 0\), \(0, 1\)"):
        _finite(ext, "log")
    # eps^1 vanishes in the limit
    assert _finite(residue_extract(SLaurent({(1, 1): one}, 3, -3)), "eps").is_zero()


def test_slaurent_log_s_depth_guard():
    one = LogSeries.constant(F(1))
    a = SLaurent({(0, 1): one}, 2, -2)
    with pytest.raises(Exception):
        _ = a * a


def _from_json(text: str) -> LogSeries:
    """The LogSeries of the JSON text of a LogSeries.to_doc."""
    doc = json.loads(text)
    parts = []
    for p in doc["parts"]:
        if p is None:
            parts.append(None)
            continue
        coeffs = []
        for c in p["coeffs"]:
            if "/" in c:
                coeffs.append(Fraction(c))
            else:
                import mpmath
                coeffs.append(mpmath.mpf(c))
        parts.append(PowSeries(Fraction(p["offset"]), coeffs))
    return LogSeries(parts)


def test_json_roundtrip(pol):
    ls = LogSeries([PowSeries(F(1, 2), [F(3, 7), F(1)]), PowSeries(0, [F(2)])])
    text = json.dumps(ls.to_doc(pol))
    back = _from_json(text)
    assert back == ls


def _ps_equal_by_exponent(a, b):
    """PowSeries equality walked one exponent of the union window at a time."""
    d = b.offset - a.offset
    if d.denominator != 1:
        return all(_czero(c) for c in a.coeffs) and all(_czero(c) for c in b.coeffs)
    lo = min(a.offset, b.offset)
    hi = max(a.bound, b.bound)
    for e in range(int(hi - lo)):
        exp = lo + e
        ca = a.coeffs[int(exp - a.offset)] if a.offset <= exp < a.bound else 0
        cb = b.coeffs[int(exp - b.offset)] if b.offset <= exp < b.bound else 0
        if isinstance(ca, ExactNum) or isinstance(cb, ExactNum):
            if ExactNum._coerce(ca) != ExactNum._coerce(cb):
                return False
        elif ca != cb:
            return False
    return True


_EQ_CASES = [
    # equal windows, and the same values with zero padding at either end
    (PowSeries(0, [F(1), F(2)]), PowSeries(0, [F(1), F(2)]), True),
    (PowSeries(0, [F(1), F(2)]), PowSeries(-2, [0, 0, F(1), F(2), 0]), True),
    (PowSeries(F(1, 3), [0, F(5)]), PowSeries(F(4, 3), [F(5), 0, 0]), True),
    (PowSeries(3, []), PowSeries(0, [0, 0]), True),
    (PowSeries(0, [0]), PowSeries(7, []), True),
    # unequal: a value differs, or the padding meets a nonzero coefficient
    (PowSeries(0, [F(1), F(2)]), PowSeries(0, [F(1), F(3)]), False),
    (PowSeries(0, [F(1), F(2)]), PowSeries(1, [F(2)]), False),
    (PowSeries(0, [F(1), F(2)]), PowSeries(0, [F(1), F(2), F(1, 9)]), False),
    (PowSeries(2, [F(1)]), PowSeries(0, [F(1), 0, F(1)]), False),
    # ExactNum against Fraction and int, atoms included
    (PowSeries(0, [ExactNum.from_rational(F(1, 2)), 2]), PowSeries(0, [F(1, 2), F(2)]), True),
    (PowSeries(-1, [0, EX_PI]), PowSeries(0, [EX_PI, ExactNum.from_rational(0)]), True),
    (PowSeries(0, [EX_PI]), PowSeries(0, [F(3)]), False),
    (PowSeries(0, [F(1)]), PowSeries(1, [EX_PI]), False),
    # offsets that differ by a non-integer: equal only if both are zero
    (PowSeries(0, [0, 0]), PowSeries(F(1, 2), [0]), True),
    (PowSeries(0, [0, ExactNum.from_rational(0)]), PowSeries(F(1, 2), []), True),
    (PowSeries(0, [F(1)]), PowSeries(F(1, 2), [F(1)]), False),
    (PowSeries(0, [0]), PowSeries(F(1, 2), [EX_PI]), False),
]


@pytest.mark.parametrize("a, b, expected", _EQ_CASES)
def test_powseries_equality_aligned_windows(a, b, expected):
    """Aligned-list equality gives the truth value of the exponent-by-exponent walk."""
    assert _ps_equal_by_exponent(a, b) is expected
    assert (a == b) is expected and (b == a) is expected
