from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperreg import ode
from hyperreg.hypergeom import parse_hg, W_r
from hyperreg.ode import apply_operator, residual_frobenius, residual_inhomogeneous
from hyperreg.series import LogSeries, PowSeries, _linear_product, _taylor_table, sp_mul

F = Fraction
K4 = parse_hg("1/2,1/2,1/2,1/2;1,1,1,1")
TABLE = ("1/5,2/5,3/5,4/5;1,1,1,1", "1/4,1/2,1/2,3/4;1,1,1,1",
         "1/3,1/3,2/3,2/3;1,1,1,1", "1/2,1/2,1/2,1/2;1,1,1,1")


def test_apply_on_constant():
    """L applied to 1 for a = (1/2)^4: D^4 1 = 0, so L 1 = -z/16."""
    out = apply_operator(K4, LogSeries.constant(F(1), 3))
    p = out.part(0)
    lo = int(0 - p.offset)
    vals = {p.offset + i: c for i, c in enumerate(p.coeffs)}
    assert vals.get(F(0), 0) == 0
    assert vals[F(1)] == F(-1, 16)


def test_apply_kills_holomorphic_period():
    from hyperreg.hypergeom import coeff_stream
    coeffs = coeff_stream(K4, 12)
    e0 = LogSeries.from_pow(PowSeries(0, coeffs))
    out = apply_operator(K4, e0)
    assert out.is_zero()


def test_apply_log_z():
    """L(log z) for a = (1/2)^4 has vanishing z^0 coefficient."""
    lg = LogSeries.from_pow(PowSeries(0, [F(1), F(0), F(0)]), 1)
    out = apply_operator(K4, lg)
    p0 = out.part(0)
    vals = {p0.offset + i: c for i, c in enumerate(p0.coeffs)}
    assert vals.get(F(0), 0) == 0


def test_apply_linearity():
    rng = random.Random(2)
    for _ in range(20):
        f = LogSeries([PowSeries(0, [F(rng.randint(-5, 5)) for _ in range(5)])
                       for _ in range(2)])
        g = LogSeries([PowSeries(0, [F(rng.randint(-5, 5)) for _ in range(5)])
                       for _ in range(2)])
        a, b = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
        lhs = apply_operator(K4, f.scale(a) + g.scale(b))
        rhs = apply_operator(K4, f).scale(a) + apply_operator(K4, g).scale(b)
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
    rhs = LogSeries.from_pow(PowSeries(F(1, 2), [F(1)] + [0] * (K - 1)))
    assert apply_operator(K4, w) == rhs
    assert apply_operator(K4, e0.scale(c)).is_zero()
    assert e0.scale(c).part(0).coeffs[0] == c
    # and W_r itself vanishes at 0 (positive leading exponent)
    assert w.part(0).offset > 0


# --- prod (x + c) against the loops it replaced -------------------------------

VERIFY_ODE_DATA = TABLE + ("1/5,2/5,3/5,4/5;1/6,5/6,1,1",)    # the `verify ode` list


def _s_poly_by_sp_mul(roots, order):
    """prod (s + c) by one sp_mul per factor (the former _s_poly_b_shift)."""
    out = [F(1)] + [F(0)] * order
    for c in roots:
        out = sp_mul(out, [c, F(1)], order)
    return out


def _taylor_row_loop(factors, e):
    """(P(e), P'(e), ..., P^(n)(e)) for P(x) = prod (x + c), by the former
    loop of the Taylor table."""
    t = [F(1)]
    for c in factors:
        a = e + c
        t = [a * t[0]] + [a * t[i] + t[i - 1] for i in range(1, len(t))] + [t[-1]]
    for i in range(2, len(t)):
        t[i] = factorial(i) * t[i]
    return tuple(t)


@pytest.mark.parametrize("text", VERIFY_ODE_DATA)
def test_linear_product_matches_the_replaced_loops(text):
    h = parse_hg(text)
    for order in range(6):
        want = _s_poly_by_sp_mul([bj - 1 for bj in h.b], order)
        assert ode._s_poly_b_shift(h, order) == want
    for factors in ([bj - 1 for bj in h.b], list(h.a)):
        for offset in (F(0), F(1, 5), F(-1, 3), F(1)):
            want = tuple(_taylor_row_loop(factors, offset + k) for k in range(6))
            assert _taylor_table(tuple(factors), offset, 6) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 6)), max_size=6),
       st.integers(0, 8), st.builds(F, st.integers(-9, 9), st.integers(1, 6)))
def test_linear_product_on_random_roots(roots, order, e):
    assert _linear_product(roots, order) == _s_poly_by_sp_mul(roots, order)
    got = _linear_product([e + c for c in roots], len(roots))
    assert tuple(factorial(i) * x for i, x in enumerate(got)) == _taylor_row_loop(roots, e)
