from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from hyperreg.exactnum import EX_LN2
from hyperreg.hypergeom import (HGError, classify, coeff_stream, ck_s, from_gamma,
                                parse_gamma, parse_hg, scale_C, W_r, frobenius_phi, alpha_s)
from hyperreg.series import sp_exp, sp_mul
F = Fraction

K4 = parse_hg("1/2,1/2,1/2,1/2;1,1,1,1")
APPB = parse_hg("1/5,2/5,3/5,4/5;1/6,5/6,1,1")


def test_parse_errors():
    with pytest.raises(HGError):
        parse_hg(";1,1")
    with pytest.raises(HGError):
        parse_hg("1/2,1/2")
    with pytest.raises(HGError):
        parse_hg("3/2;1")          # outside (0, 1]
    with pytest.raises(HGError):
        parse_gamma("-1,2")        # nonzero sum


def test_from_gamma_table_rows():
    h, C = from_gamma(parse_gamma("-1,-1,-1,-1,-1,5"))
    assert h.a == (F(1, 5), F(2, 5), F(3, 5), F(4, 5))
    assert h.b == (F(1),) * 4 and C == 5 ** 5
    h4, C4 = from_gamma(parse_gamma("-2,-2,-2,-2,1,1,1,1,1,1,1,1"))
    assert h4.a == (F(1, 2),) * 4 and C4 == 2 ** 8
    hd, Cd = from_gamma(parse_gamma("-1,1"))
    assert hd.a == hd.b


def test_scale_C_known_cases():
    assert scale_C(K4) == 256
    assert scale_C(APPB) == F(3125, 432)
    assert scale_C(parse_hg("1/4,1/2,1/2,3/4;1,1,1,1")) == 2 ** 10
    assert scale_C(parse_hg("1/2,1/2;1,1")) == 16
    assert scale_C(parse_hg("1/2;1")) == 4


def test_coeff_ak():
    assert coeff_stream(K4, 2)[1] == F(1, 16)
    # t-variable: binom(2k,k)^4
    assert coeff_stream(K4, 4, scale_C(K4)) == [1, 16, 1296, 160000]
    # App B relative stream exists and is exact
    st = coeff_stream(APPB, 3, scale_C(APPB))
    assert st[0] == 1 and st[1] == 2


def test_contiguity_property():
    rng = random.Random(5)
    pool = [K4, APPB, parse_hg("1/4,1/2,1/2,3/4;1,1,1,1"),
            parse_hg("1/3,1/3,2/3,2/3;1,1,1,1")]
    for _ in range(100):
        h = rng.choice(pool)
        k = rng.randint(0, 14)
        num = F(1)
        den = F(1)
        for aj in h.a:
            num *= k + aj
        for bj in h.b:
            den *= k + bj
        a = coeff_stream(h, k + 2)
        assert a[k + 1] == a[k] * num / den


def test_ak_s_s0_equals_coeff(pol):
    rng = random.Random(9)
    for _ in range(100):
        h = rng.choice([K4, APPB])
        k = rng.randint(0, 9)
        assert ck_s(h, k, 3)[0] == coeff_stream(h, k + 1)[k]


def _alpha_numeric(h, s_order, ctx):
    """alpha(s) from mpmath's polygamma: log alpha(s) is
    sum_m s^m / m! sum_j (psi^(m-1)(a_j) - psi^(m-1)(1))."""
    log_alpha = [ctx.mpf(0)] * (s_order + 1)
    for m in range(1, s_order + 1):
        acc = ctx.mpf(0)
        for aj in h.a:
            acc += ctx.psi(m - 1, ctx.mpf(aj.numerator) / aj.denominator) - ctx.psi(m - 1, 1)
        log_alpha[m] = acc / factorial(m)
    return sp_exp(log_alpha, s_order)


def _close(e, f, pol):
    ctx = pol.ctx
    return abs(e.to_mp(ctx) - f) < pol.tol if hasattr(e, "to_mp") \
        else abs(ctx.mpf(e.numerator) / e.denominator - f) < pol.tol


def test_ak_s_exact_vs_floating(pol):
    """a_k(s) = alpha(s) c_k(s) with the exact alpha(s) table against the
    same product with alpha(s) from mpmath's psi; then alpha(s) itself
    through s^4 on data reading every entry of the table."""
    ck = ck_s(K4, 1, 2)
    s1 = sp_mul(alpha_s(K4, 2), ck, 2)
    fl = sp_mul(_alpha_numeric(K4, 2, pol.ctx), ck, 2)
    for e, f in zip(s1, fl):
        assert _close(e, f, pol)
    # t-normalized s^1 coefficient: 256 (a_1,1 + 8 ln2 a_1,0) = binom(2,1)^4 8 G_1 = 64
    val = (s1[1] + s1[0] * 8 * EX_LN2) * 256
    assert val == 64
    for text in ("1/2,1/2,1/2,1/2;1,1,1,1", "1/4,1/2,1/2,3/4;1,1,1,1",
                 "1/4,1/4,3/4,3/4;1,1,1,1", "1,1,1,1;1,1,1,1"):
        h = parse_hg(text)
        for e, f in zip(alpha_s(h, 4), _alpha_numeric(h, 4, pol.ctx)):
            assert _close(e, f, pol), text


def test_ak_s_unsupported_exact():
    with pytest.raises(HGError):
        alpha_s(parse_hg("1/5,2/5,3/5,4/5;1,1,1,1"), 2, mode="exact")


def test_alpha_closed_form(pol):
    """alpha(s) for (1/2)^4 equals (Gamma(s+1/2)/(Gamma(1/2) Gamma(s+1)))^4."""
    ctx = pol.ctx
    al = alpha_s(K4, 4, mode="exact")
    h = ctx.mpf(10) ** -9
    g = lambda s: (ctx.gamma(s + ctx.mpf(1) / 2)
                   / (ctx.gamma(ctx.mpf(1) / 2) * ctx.gamma(s + 1))) ** 4
    fd1 = (g(h) - g(-h)) / (2 * h)
    assert abs(al[1].to_mp(ctx) - fd1) < ctx.mpf(10) ** -8


def test_frobenius_T0_equivariance():
    """Substituting z e^(2 pi i) multiplies the s^m slot structure by
    e^(2 pi i s): the log-degree coefficients match the binomial expansion
    of (log z + 2 pi i)^j, asserted as an exact coefficient identity."""
    from hyperreg.exactnum import two_pi_i_pow
    s_order, K = 3, 6
    phi = frobenius_phi(K4, K, s_order)
    # slot m of T0 Phi = sum_i (2 pi i)^i / i! * slot (m - i) of Phi
    fac = [1, 1, 2, 6]
    for m in range(s_order + 1):
        target = None
        for i in range(m + 1):
            piece = phi.slot(m - i).scale(two_pi_i_pow(i) * F(1, fac[i]))
            target = piece if target is None else target + piece
        # independently: replacing log z -> log z + 2 pi i in slot m
        sub = _substitute_log_shift(phi.slot(m))
        assert sub == target


def _substitute_log_shift(ls):
    """log z -> log z + 2 pi i, expanded binomially."""
    from math import comb
    from hyperreg.exactnum import two_pi_i_pow
    from hyperreg.series import LogSeries
    out = None
    for j, p in enumerate(ls.parts):
        if p is None:
            continue
        for i in range(j + 1):
            piece = LogSeries.from_pow(p.scale(comb(j, i) * two_pi_i_pow(j - i)), i)
            out = piece if out is None else out + piece
    return out if out is not None else LogSeries([])


def test_phi_log_asymptotics():
    """phi_m - log^m z / m! has no z^0 term beyond the pure log power."""
    phi = frobenius_phi(K4, 5, 3)
    fac = [1, 1, 2, 6]
    for m in range(4):
        slot = phi.slot(m)
        top = slot.part(m)
        assert top is not None and top.coeffs[0] == F(1, fac[m])
        for j in range(m):
            pj = slot.part(j)
            if pj is not None:
                assert pj.coeffs[0] == 0
    # phi_1 - log z vanishes at z = 0 (constant term 0)
    assert phi.slot(1).part(0).coeffs[0] == 0


def test_W_r():
    w = W_r(K4, 2, 5)
    ps = w.part(0)
    assert ps.offset == F(1, 2) and ps.coeffs[0] == 16
    with pytest.raises(HGError):
        W_r(APPB, 2, 4)


def test_classify():
    ct = classify(K4)
    assert (ct.label, ct.p, ct.k_theory) == ("IV", 4, "K4")
    ct2 = classify(parse_hg("1/4,1/2,1/2,3/4;1,1,1,1"))
    assert (ct2.label, ct2.p, ct2.k_theory) == ("Ib", 3, "K2")
    assert classify(parse_hg("1/5,2/5,3/5,4/5;1,1,1,1")).k_theory == "K0"
    assert classify(parse_hg("1/3,1/3,2/3,2/3;1,1,1,1")).k_theory == "K0"
    assert classify(APPB).label == "generic"
    with pytest.raises(HGError):
        classify(parse_hg("1/2,1/3,1/3,2/3;1,1,1,1"))   # odd count of 1/2


def test_table_self_duality():
    for text in ("1/5,2/5,3/5,4/5;1,1,1,1", "1/4,1/2,1/2,3/4;1,1,1,1",
                 "1/3,1/3,2/3,2/3;1,1,1,1", "1/2,1/2,1/2,1/2;1,1,1,1"):
        h = parse_hg(text)
        assert sorted(h.a) == sorted((1 - x) if x != 1 else F(1) for x in h.a)


def constant_term_oracle(phi: dict, k: int, cap: int = 6,
                         max_monomials: int = 2_000_000) -> int:
    """Constant term of phi^k by brute-force expansion.

    phi maps exponent vectors (tuples of ints) to integer coefficients.
    """
    if k < 0 or k > cap:
        raise HGError(f"k = {k} exceeds the oracle cap {cap}")
    if k == 0:
        return 1
    nvars = len(next(iter(phi)))
    acc = {(0,) * nvars: 1}
    for _ in range(k):
        new: dict = {}
        for e1, c1 in acc.items():
            for e2, c2 in phi.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                new[e] = new.get(e, 0) + c1 * c2
                if len(new) > max_monomials:
                    raise HGError("expansion exceeds memory cap")
        acc = new
    return acc.get((0,) * nvars, 0)


def test_constant_term_oracle():
    # (x+1)^2/x squared -> binom(4,2)
    phi1 = {(1,): 1, (0,): 2, (-1,): 1}
    assert constant_term_oracle(phi1, 2) == 6
    # (x-1)^2 (y-1)^2 / xy -> binom(2,1)^2
    phi2 = {}
    for e1, c1 in (((1,), 1), ((0,), -2), ((-1,), 1)):
        for e2, c2 in (((1,), 1), ((0,), -2), ((-1,), 1)):
            phi2[(e1[0], e2[0])] = c1 * c2
    assert constant_term_oracle(phi2, 1) == 4
    with pytest.raises(HGError):
        constant_term_oracle(phi1, 9)


def test_constant_term_vs_footnote_identity():
    """[phi^k]_0 = C^k prod [a_j]_k / k!^4 for the type-IV Laurent polynomial."""
    base = {}
    for e1, c1 in (((1,), 1), ((0,), -2), ((-1,), 1)):
        for e2, c2 in (((1,), 1), ((0,), -2), ((-1,), 1)):
            for e3, c3 in (((1,), 1), ((0,), -2), ((-1,), 1)):
                for e4, c4 in (((1,), 1), ((0,), -2), ((-1,), 1)):
                    key = (e1[0], e2[0], e3[0], e4[0])
                    base[key] = base.get(key, 0) + c1 * c2 * c3 * c4
    for k in range(5):
        ct = constant_term_oracle(base, k)
        pred = coeff_stream(K4, k + 1, 256)[k]
        fact = 1
        for j in range(1, k + 1):
            fact *= j
        assert ct == pred


# the 14 hypergeometric data of the table, each with b = (1, 1, 1, 1)
TABLE_A = (
    "1/5,2/5,3/5,4/5", "1/10,3/10,7/10,9/10", "1/2,1/2,1/2,1/2",
    "1/3,1/3,2/3,2/3", "1/4,1/4,3/4,3/4", "1/6,1/6,5/6,5/6",
    "1/12,5/12,7/12,11/12", "1/8,3/8,5/8,7/8", "1/6,1/3,2/3,5/6",
    "1/2,1/2,1/3,2/3", "1/2,1/2,1/4,3/4", "1/2,1/2,1/6,5/6",
    "1/3,2/3,1/4,3/4", "1/4,3/4,1/6,5/6",
)


def _coeff_stream_fraction_loop(h, K, scale):
    """The Fraction-by-Fraction recurrence coeff_stream ran before its integer form."""
    out = [F(1)]
    for k in range(K - 1):
        ratio = F(1)
        for aj in h.a:
            ratio *= k + aj
        den = F(1)
        for bj in h.b:
            den *= k + bj
        out.append(out[-1] * (ratio / den) * scale)
    return out


@pytest.mark.parametrize("a", TABLE_A)
def test_integer_coeff_stream_matches_fraction_loop(a):
    h = parse_hg(a + ";1,1,1,1")
    for scale in (F(1), scale_C(h)):
        for K in (1, 2, 120):
            assert coeff_stream(h, K, scale) == _coeff_stream_fraction_loop(h, K, scale)
