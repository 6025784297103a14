from __future__ import annotations

import random
from fractions import Fraction

from hyperreg.hypergeom import parse_hg, W_r
from hyperreg.ode import (apply_operator, hg_operator, residual_frobenius,
                          residual_inhomogeneous)
from hyperreg.series import LogSeries, PowSeries

F = Fraction
K4 = parse_hg("1/2,1/2,1/2,1/2;1,1,1,1")
TABLE = ("1/5,2/5,3/5,4/5;1,1,1,1", "1/4,1/2,1/2,3/4;1,1,1,1",
         "1/3,1/3,2/3,2/3;1,1,1,1", "1/2,1/2,1/2,1/2;1,1,1,1")


def test_apply_on_constant():
    """L applied to 1 for a = (1/2)^4: D^4 1 = 0, so L 1 = -z/16."""
    L = hg_operator(K4)
    out = apply_operator(L, LogSeries.constant(F(1), 3))
    p = out.part(0)
    lo = int(0 - p.offset)
    vals = {p.offset + i: c for i, c in enumerate(p.coeffs)}
    assert vals.get(F(0), 0) == 0
    assert vals[F(1)] == F(-1, 16)


def test_apply_kills_holomorphic_period():
    from hyperreg.hypergeom import coeff_stream
    coeffs = coeff_stream(K4, 12)
    e0 = LogSeries.from_pow(PowSeries(0, coeffs))
    out = apply_operator(hg_operator(K4), e0)
    assert out.is_zero()


def test_apply_log_z():
    """L(log z) for a = (1/2)^4 has vanishing z^0 coefficient."""
    L = hg_operator(K4)
    lg = LogSeries.from_pow(PowSeries(0, [F(1), F(0), F(0)]), 1)
    out = apply_operator(L, lg)
    p0 = out.part(0)
    vals = {p0.offset + i: c for i, c in enumerate(p0.coeffs)}
    assert vals.get(F(0), 0) == 0


def test_apply_linearity():
    rng = random.Random(2)
    L = hg_operator(K4)
    for _ in range(20):
        f = LogSeries([PowSeries(0, [F(rng.randint(-5, 5)) for _ in range(5)])
                       for _ in range(2)])
        g = LogSeries([PowSeries(0, [F(rng.randint(-5, 5)) for _ in range(5)])
                       for _ in range(2)])
        a, b = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
        lhs = apply_operator(L, f.scale(a) + g.scale(b))
        rhs = apply_operator(L, f).scale(a) + apply_operator(L, g).scale(b)
        assert lhs == rhs


def test_operator_contiguity_identity():
    """Applying L to z^(k+s) termwise reproduces the c_k(s) recurrence."""
    from hyperreg.hypergeom import ck_s
    from hyperreg.series import sp_mul
    h = K4
    s_order = 3
    for k in range(6):
        # L sum c_k z^(k+s) telescopes iff
        #   c_(k+1)(s) prod(k+1+s+b_j-1) = c_k(s) prod(k+s+a_j)
        lhs = ck_s(h, k + 1, s_order)
        for bj in h.b:
            lhs = sp_mul(lhs, [k + bj + F(0), F(1)], s_order)
        rhs = ck_s(h, k, s_order)
        for aj in h.a:
            rhs = sp_mul(rhs, [k + aj, F(1)], s_order)
        assert lhs == rhs


def test_residual_frobenius_exact_all_cases():
    for text in TABLE + ("1/5,2/5,3/5,4/5;1/6,5/6,1,1",):
        rep = residual_frobenius(parse_hg(text), 4, 20)
        assert rep.exact_zero is True


def test_residual_inhomogeneous_exact():
    for text in ("1/2,1/2,1/2,1/2;1,1,1,1", "1/4,1/2,1/2,3/4;1,1,1,1"):
        rep = residual_inhomogeneous(parse_hg(text), 2, 20)
        assert rep.exact_zero


def test_uniqueness_probe():
    """L(W_r + c e0) = z^(1/r) for any c (by linearity, the two solution
    lattices never mix), and the value of c e0 at z = 0 is c."""
    from hyperreg.hypergeom import coeff_stream
    K = 10
    w = W_r(K4, 2, K)
    e0 = LogSeries.from_pow(PowSeries(0, coeff_stream(K4, K)))
    c = F(7, 3)
    L = hg_operator(K4)
    rhs = LogSeries.from_pow(PowSeries(F(1, 2), [F(1)] + [0] * (K - 1)))
    assert apply_operator(L, w) == rhs
    assert apply_operator(L, e0.scale(c)).is_zero()
    assert e0.scale(c).part(0).coeffs[0] == c
    # and W_r itself vanishes at 0 (positive leading exponent)
    assert w.part(0).offset > 0
