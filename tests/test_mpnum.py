from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hyperreg.mpnum import MPNumError, PolesError, PrecisionPolicy, hurwitz_zeta, special


def mp_catalan_oracle(pol):
    """Independent oracle: alternating series sum (-1)^k/(2k+1)^2, accelerated."""
    ctx = pol.ctx
    return ctx.nsum(lambda k: (-1) ** int(k) / (2 * k + 1) ** 2, [0, ctx.inf],
                    method="a")


def test_policy_invariants():
    with pytest.raises(MPNumError):
        PrecisionPolicy(0)
    with pytest.raises(MPNumError):
        PrecisionPolicy(30, guard_digits=5)
    with pytest.raises(MPNumError):
        PrecisionPolicy(30, max_terms=4)
    p = PrecisionPolicy(30)
    assert p.working_digits >= p.target_digits + 10


def test_doubled_is_one_policy_per_policy():
    """doubled() is memoized on the policy, outside its fields: ==, hash and
    repr are those of the fields alone, and its context is cloned once."""
    p = PrecisionPolicy(20, max_terms=100)
    d = p.doubled()
    assert p.doubled() is d and d.ctx is p.doubled().ctx
    assert d == PrecisionPolicy(40, 15, 200) and hash(d) == hash(PrecisionPolicy(40, 15, 200))
    assert p == PrecisionPolicy(20, max_terms=100) and hash(p) == hash(PrecisionPolicy(20, 15, 100))
    assert repr(p) == "PrecisionPolicy(target_digits=20, guard_digits=15, max_terms=100)"


def test_special_values(pol):
    ctx = pol.ctx
    assert abs(special("pi", pol) ** 2 / 6 - ctx.zeta(2)) < pol.tol
    cat = special("catalan", pol)
    assert ctx.nstr(cat, 11).startswith("0.915965594")
    assert abs(cat - mp_catalan_oracle(pol)) < pol.tol
    z3 = special("zeta3", pol)
    assert ctx.nstr(z3, 11).startswith("1.202056903")
    with pytest.raises(MPNumError):
        special("nope", pol)


def test_zeta3_series_oracle(pol):
    ctx = pol.ctx
    # direct zeta series + Euler-Maclaurin tail, independent of ctx.zeta:
    # sum_{n>M} n^-3 = 1/(2M^2) - 1/(2M^3) + 1/(4M^4) - 1/(12M^6)
    #                + 1/(12M^8) - (3/20) M^-10 + ...
    M = 60
    head = ctx.fsum(ctx.mpf(1) / n ** 3 for n in range(1, M + 1))
    x = ctx.mpf(M)
    tail = 1 / (2 * x ** 2) - 1 / (2 * x ** 3) + 1 / (4 * x ** 4) \
        - 1 / (12 * x ** 6) + 1 / (12 * x ** 8) - 3 / (20 * x ** 10)
    assert abs(head + tail - special("zeta3", pol)) < ctx.mpf(10) ** -17


def test_loggamma_digamma(pol):
    ctx = pol.ctx
    assert abs(ctx.loggamma(1)) < pol.tol
    assert abs(ctx.loggamma(ctx.mpf(1) / 2) - ctx.log(ctx.pi) / 2) < pol.tol
    assert abs(ctx.psi(0, 1) + ctx.euler) < pol.tol


def test_digamma_reflection(pol):
    ctx = pol.ctx
    rng = random.Random(7)
    for _ in range(50):
        x = ctx.mpf(rng.uniform(0.02, 0.98))
        lhs = ctx.psi(0, 1 - x) - ctx.psi(0, x)
        rhs = ctx.pi / ctx.tan(ctx.pi * x)
        assert abs(lhs - rhs) < pol.tol * max(1, abs(rhs))


def test_loggamma_duplication(pol):
    # classical duplication: log G(2x) = log G(x) + log G(x + 1/2)
    #                        + (2x - 1) log 2 - log(pi)/2   (mod 2 pi i)
    ctx = pol.ctx
    rng = random.Random(11)
    for _ in range(20):
        x = ctx.mpc(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
        lhs = ctx.loggamma(2 * x)
        rhs = ctx.loggamma(x) + ctx.loggamma(x + ctx.mpf(1) / 2) \
            + (2 * x - 1) * ctx.log(2) - ctx.log(ctx.pi) / 2
        diff = (lhs - rhs) / (2 * ctx.pi * ctx.mpc(0, 1))
        assert abs(diff - ctx.nint(ctx.re(diff))) < pol.tol


def test_hurwitz_zeta_classical(pol):
    ctx = pol.ctx
    for num, den in ((1, 4), (1, 3), (2, 3), (1, 1)):
        x = Fraction(num, den)
        assert abs(hurwitz_zeta(0, x, 0, pol)
                   - (ctx.mpf(1) / 2 - ctx.mpf(num) / den)) < pol.tol
    assert abs(hurwitz_zeta(0, Fraction(1), 1, pol)
               + ctx.log(2 * ctx.pi) / 2) < pol.tol
    # Lerch at 1/4, oracle = loggamma route
    lhs = hurwitz_zeta(0, Fraction(1, 4), 1, pol)
    rhs = ctx.loggamma(ctx.mpf(1) / 4) - ctx.log(2 * ctx.pi) / 2
    assert abs(lhs - rhs) < pol.tol
    with pytest.raises(PolesError):
        hurwitz_zeta(1, Fraction(1, 2), 0, pol)


def test_lerch_all_twelfths(pol):
    ctx = pol.ctx
    for num in range(1, 12):
        x = Fraction(num, 12)
        lhs = hurwitz_zeta(0, x, 1, pol)
        rhs = ctx.loggamma(ctx.mpf(num) / 12) - ctx.log(2 * ctx.pi) / 2
        assert abs(lhs - rhs) < pol.tol


def test_dilog(pol):
    ctx = pol.ctx
    assert abs(ctx.polylog(2, 1) - ctx.pi ** 2 / 6) < pol.tol
    assert abs(ctx.polylog(2, 0)) < pol.tol
    val = ctx.polylog(2, ctx.mpc(0, 1))
    # oracle: Im Li2(i) is the accelerated alternating catalan series
    assert abs(ctx.im(val) - mp_catalan_oracle(pol)) < pol.tol
    # Borel-theorem anchor: Li2(i) - Li2(-i) = 2 i L(chi_-4, 2)
    anchor = ctx.polylog(2, ctx.mpc(0, 1)) - ctx.polylog(2, ctx.mpc(0, -1))
    assert abs(anchor - 2 * ctx.mpc(0, 1) * special("catalan", pol)) < pol.tol


def test_precision_doubling_stability(pol):
    """First target_digits never change when precision doubles."""
    ctx = pol.ctx
    pol2 = pol.doubled()
    samples = [
        (lambda p: special("catalan", p)),
        (lambda p: p.ctx.polylog(2, p.ctx.mpf(1) / 3)),
        (lambda p: p.ctx.psi(1, p.ctx.mpf(3) / 7)),
        (lambda p: hurwitz_zeta(p.ctx.mpc(2, 1), Fraction(2, 5), 1, p)),
    ]
    for f in samples:
        a, b = f(pol), f(pol2)
        assert abs(ctx.convert(a) - ctx.convert(b)) \
            < ctx.mpf(10) ** (-pol.target_digits) * max(1, abs(a))
