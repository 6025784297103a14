"""The AFE kernel on raw tuples: its one-rounding sum and its node construction.

`_add_round` is checked bit for bit against mpmath's mpf_add and mpf_sub, on
both sides of its fallback.  The nodes are checked `==` against the per-node
loop over `_gamma_value` and `_gamma_logderiv` that built them before, kept
here as the reference.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (fzero, mpf_add, mpf_sub, round_ceiling, round_down, round_floor,
                          round_nearest, round_up)

from hyperreg.lfun import motive
from hyperreg.lfun.motive import LFunctionSpec, MotiveError
from hyperreg.mpnum import PrecisionPolicy

F = Fraction


# --- the rounding helper ---------------------------------------------------------

@st.composite
def _operand(draw, prec):
    """(sign, odd mantissa of up to 2 prec bits, exponent), or a zero."""
    if draw(st.integers(0, 19)) == 0:
        return 0, 0, 0
    bits = draw(st.integers(1, 2 * prec))
    man = draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
    return draw(st.integers(0, 1)), man, draw(st.integers(-300, 300))


def _raw(sign, man, exp):
    return (sign, man, exp, man.bit_length()) if man else fzero


@st.composite
def _case(draw):
    prec = draw(st.integers(10, 300))
    rnd = draw(st.sampled_from([round_nearest] * 6 + [round_floor, round_ceiling,
                                                       round_down, round_up]))
    a = draw(_operand(prec))
    kind = draw(st.sampled_from(["random", "cancel", "tie"]))
    if kind == "cancel":
        # the same magnitude with the other sign: the sum is exactly zero
        b = (a[0] ^ 1, a[1], a[2])
    elif kind == "tie":
        # a exact at prec bits, b one bit `drop` places below a's last place of
        # prec bits: drop = 1 puts the exact sum on a tie
        bits = draw(st.integers(max(1, prec - 20), prec))
        man = draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
        a = (draw(st.integers(0, 1)), man, draw(st.integers(-300, 300)))
        drop = draw(st.sampled_from([1, 1, 1, 2, 3, 60, 120]))
        b = (draw(st.integers(0, 1)), 1, a[2] + bits - prec - drop)
    else:
        b = (draw(st.integers(0, 1)),) + draw(_operand(prec))[1:]
        b = (b[0], b[1], a[2] + draw(st.integers(-120, 120)) if b[1] else 0)
    return prec, rnd, a, b


@settings(max_examples=1500, deadline=None)
@given(_case())
def test_add_round_matches_mpf_add_bit_for_bit(case):
    prec, rnd, (s1, m1, e1), (s2, m2, e2) = case
    x, y = _raw(s1, m1, e1), _raw(s2, m2, e2)
    assert motive._add_round(s1, m1, e1, s2, m2, e2, prec, rnd) == mpf_add(x, y, prec, rnd)
    # a difference is the sum with the second sign flipped
    assert motive._add_round(s1, m1, e1, s2 ^ 1, m2, e2, prec, rnd) == \
        mpf_sub(x, y, prec, rnd)


@pytest.mark.parametrize("offset", [-101, -100, 100, 101])
def test_add_round_at_the_fallback_edge(offset):
    """Both sides of the 100-bit exponent gap, where mpf_add may perturb."""
    prec = 53
    for s1, s2 in ((0, 0), (0, 1), (1, 0)):
        m1, m2 = (1 << 60) - 1, 3
        e1, e2 = 0, -offset
        assert motive._add_round(s1, m1, e1, s2, m2, e2, prec, round_nearest) == \
            mpf_add(_raw(s1, m1, e1), _raw(s2, m2, e2), prec, round_nearest)


# --- the node construction -------------------------------------------------------

def _reference_raw(spec, s_val, c, pol, order):
    """(c, h, nodes) of _Kernel from the per-node mpc loop over _gamma_value
    and _gamma_logderiv, each node's real and imaginary raw mpf in one tuple."""
    ctx = pol.ctx
    wd = pol.working_digits
    u_poles = [ctx.mpf(0)] + [u for kind, sh in spec.gamma_shifts
                              for u in _pole_abscissae(ctx, s_val, kind, sh)]
    c = max(c, max(u_poles) + ctx.mpf("0.75"))
    d_min = min(min(c - u for u in u_poles), c)
    h = 2 * ctx.pi * d_min / ((wd + 8) * ctx.log(10))
    raw = [[] for _ in range(order + 1)]
    building = list(range(order + 1))
    k = 0
    floor = ctx.mpf(10) ** (-(wd + 8))
    while building:
        u = ctx.mpc(c, k * h)
        g = motive._gamma_value(spec, ctx, s_val + u)
        if building[-1] >= 1:
            ell = motive._gamma_logderiv(spec, ctx, s_val + u, 1)
        if building[-1] == 2:
            ell2 = motive._gamma_logderiv(spec, ctx, s_val + u, 2)
        for d in list(building):
            weighted = g if d == 0 else g * ell if d == 1 else g * (ell * ell + ell2)
            val = weighted / u
            raw[d].append(val._mpc_[0] + val._mpc_[1])
            if k > 8 and abs(val) < floor:
                building.remove(d)
        k += 1
    return c, h, raw


def _pole_abscissae(ctx, s_val, kind, sh):
    u = -(s_val + ctx.mpf(F(sh).numerator) / F(sh).denominator)
    while u > ctx.mpf("0.01"):
        yield u
        u -= 2 if kind == "R" else 1


GAMMAS = {
    "R0": (("R", F(0)),),
    "R1": (("R", F(1)),),
    "CC": (("C", F(0)), ("C", F(0))),
    "RR": (("R", F(0)), ("R", F(1))),
}


# Gamma_R with shifts 0 and 1, Gamma_C^2 and Gamma_R(s) Gamma_R(s + 1) at
# sigma = -1 and 6 digits and at sigma = 0 and 8 digits (the mirror sides,
# whose lines sit right of a gamma pole); Gamma_C^2 also at sigma = 2 (the
# line at 0.75) and at 20 digits
GRID = [(g, "-1", 6) for g in GAMMAS] + [(g, "0", 8) for g in GAMMAS] + \
       [("CC", "2", 6), ("CC", "-1", 20)]


@pytest.mark.parametrize("gamma, sigma, digits", GRID)
def test_kernel_nodes_match_the_mpc_loop(gamma, sigma, digits):
    """Every order's nodes are the reference's; a kernel of order 0 or 1 builds
    the first lists of the order-2 kernel."""
    pol = PrecisionPolicy(digits)
    ctx = pol.ctx
    s_val = ctx.mpf(sigma)
    c = max(1 - s_val + ctx.mpf("0.75"), ctx.mpf("0.75"))
    spec = LFunctionSpec(1, 0, 1, GAMMAS[gamma])
    c_ref, h_ref, raw_ref = _reference_raw(spec, s_val, c, pol, 2)
    for order in (2, 1, 0):
        ker = motive._Kernel(spec, s_val, c, pol, order)
        assert (ker.c, ker.h) == (c_ref, h_ref)
        assert ker._raw == raw_ref[:order + 1]


@pytest.mark.parametrize("gamma, per_node", [("CC", 1), ("RR", 2)])
def test_one_gamma_per_distinct_factor_per_node(monkeypatch, gamma, per_node):
    """Gamma_C(s)^2 forms its Gamma once per node, N calls for N nodes, not 2N."""
    calls = []
    original = motive.mpc_gamma

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(motive, "mpc_gamma", counted)
    pol = PrecisionPolicy(6)
    ker = motive._Kernel(LFunctionSpec(1, 0, 1, GAMMAS[gamma]), pol.ctx.mpf(-1),
                         pol.ctx.mpf("2.75"), pol, 2)
    assert len(calls) == per_node * max(map(len, ker._raw))


def test_kernel_without_gamma_factors_fails():
    """No gamma factor: the integrand never decays, so no node list can end."""
    pol = PrecisionPolicy(8)
    with pytest.raises(MotiveError, match="failed to decay"):
        motive._Kernel(LFunctionSpec(1, 0, 1, ()), pol.ctx.mpf(2), pol.ctx.mpf("0.75"), pol)
