"""The AFE kernel on raw tuples: its fixed-point sum and its node construction.

Each node list is turned to fixed point once per kernel and precision; the
sums' accuracy, within their counted rounding bound, is checked in
test_motive_afe.py.  The nodes, and `_gamma_raw` that builds them, are
checked `==` against the per-node loop over `_gamma_value`, the mpc
expressions of each kind of factor, and the I_2 and I_3 nodes `==` against
that list divided by u on mpc objects.  The
digamma-weighted nodes of `_reference_raw` (`_gamma_logderiv`), which
differentiate under the integral, are the accuracy reference for the
s-derivatives of F that the kernel's I_j give by parts.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath.libmp import round_floor

from hyperreg.lfun import motive
from hyperreg.lfun.motive import LFunctionSpec, MotiveError
from hyperreg.mpnum import PrecisionPolicy

F = Fraction


# --- the kernel sums ---------------------------------------------------------------

def test_kernel_rounds_to_nearest_only(monkeypatch):
    """The rounding mode is checked once per call: another than nearest fails."""
    pol = PrecisionPolicy(6)
    ctx = pol.ctx
    ker = motive._build_kernel(LFunctionSpec(1, 0, 1, GAMMAS["R1"]), ctx.mpf(2), pol)
    monkeypatch.setattr(ctx, "_prec_rounding", [ctx.prec, round_floor])
    with pytest.raises(MotiveError, match="round to nearest"):
        ker(ctx.mpf("0.5"), 0)


def _counted(monkeypatch, name):
    """The argument tuples of every call of motive.<name> from here on."""
    calls = []
    original = getattr(motive, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(motive, name, counted)
    return calls


def test_signed_nodes_derived_once_per_kernel(monkeypatch):
    """Each node list is turned to fixed point on the first call that needs
    it only; each call converts just the two parts of its rotation."""
    pol = PrecisionPolicy(6)
    ctx = pol.ctx
    ker = motive._build_kernel(LFunctionSpec(1, 0, 1, GAMMAS["R1"]), ctx.mpf(2), pol)
    calls = _counted(monkeypatch, "to_fixed")
    y = ctx.mpf("0.5")
    first = ker(y, 1)
    assert len(calls) == 2 * 2 * len(ker._raw) + 2
    derived = ker._signed_nodes
    del calls[:]
    assert ker(y, 1) == first and ker(y, 0) == first[:1] and len(calls) == 4
    assert ker._signed_nodes is derived
    del calls[:]
    assert ker(y, 2)[:2] == first and len(calls) == 2 * len(ker._raw) + 2


def test_order_zero_divides_no_node(monkeypatch):
    """Order 0 reads the built nodes alone; I_2 and I_3 divide each node by u
    once, on the first call of an order that needs them."""
    pol = PrecisionPolicy(6)
    ctx = pol.ctx
    ker = motive._build_kernel(LFunctionSpec(1, 0, 1, GAMMAS["R1"]), ctx.mpf(2), pol)
    divisions = _counted(monkeypatch, "mpc_div")
    y = ctx.mpf("0.5")
    ker(y, 0)
    assert divisions == []
    ker(y, 1)
    assert len(divisions) == len(ker._raw)
    ker(y, 2)
    ker(y, 1)
    assert len(divisions) == 2 * len(ker._raw)


# --- the node construction -------------------------------------------------------

def _gamma_value(spec, ctx, s):
    val = ctx.mpf(1)
    for kind, sh in spec.gamma_shifts:
        x = s + ctx.mpf(Fraction(sh).numerator) / Fraction(sh).denominator
        if kind == "R":
            val = val * ctx.power(ctx.pi, -x / 2) * ctx.gamma(x / 2)
        else:
            val = val * 2 * ctx.power(2 * ctx.pi, -x) * ctx.gamma(x)
    return val


def _gamma_logderiv(spec, ctx, s, order):
    """order 1 -> sum dlog factors; order 2 -> its derivative."""
    acc = ctx.mpf(0)
    for kind, sh in spec.gamma_shifts:
        x = s + ctx.mpf(Fraction(sh).numerator) / Fraction(sh).denominator
        if kind == "R":
            acc += (-ctx.log(ctx.pi) / 2 + ctx.psi(0, x / 2) / 2) if order == 1 \
                else ctx.psi(1, x / 2) / 4
        else:
            acc += (-ctx.log(2 * ctx.pi) + ctx.psi(0, x)) if order == 1 \
                else ctx.psi(1, x)
    return acc


@st.composite
def _gamma_point(draw):
    """Mixed gamma data (one to three factors, shifts in halves from -2 to 2),
    a precision and a complex s off the poles, its imaginary part zero about
    one time in five."""
    gamma = tuple(draw(st.lists(st.tuples(st.sampled_from("RC"),
                                          st.integers(-4, 4).map(lambda n: F(n, 2))),
                                min_size=1, max_size=3)))
    re = draw(st.fractions(-6, 6, max_denominator=64))
    im = draw(st.one_of(st.just(F(0)), st.fractions(-60, 60, max_denominator=64)))
    if im == 0:
        for kind, sh in gamma:
            x = (re + sh) / (2 if kind == "R" else 1)
            assume(not (x <= 0 and x.denominator == 1))
    return gamma, draw(st.sampled_from([6, 15, 30, 60])), re, im


@settings(max_examples=300, deadline=None)
@given(_gamma_point())
def test_gamma_raw_matches_the_mpc_expressions(point):
    """gamma from _gamma_raw at a complex s is the per-kind mpc expressions',
    bit for bit."""
    gamma, digits, re, im = point
    ctx = PrecisionPolicy(digits).ctx
    spec = LFunctionSpec(1, 0, 1, gamma)
    s = ctx.mpc(ctx.mpf(re.numerator) / re.denominator, ctx.mpf(im.numerator) / im.denominator)
    g = motive._gamma_raw(*motive._gamma_factors(spec, ctx), s._mpc_, *ctx._prec_rounding)
    assert g == _gamma_value(spec, ctx, s)._mpc_


def _reference_raw(spec, s_val, pol, order):
    """(c, h, node lists of orders 0..order) from the per-node mpc loop over
    _gamma_value and _gamma_logderiv, each node's real and imaginary raw mpf
    in one tuple: order d weights the integrand by 1, ell or ell^2 + ell',
    ell = (log gamma)', and each order's list ends at its own decay floor.
    The line is the rule's (motive._abscissa) at the rightmost pole, and h
    is set by its gap to that pole.  Its order-0 list is the kernel's
    construction."""
    ctx = pol.ctx
    wd = pol.working_digits
    u_poles = [ctx.mpf(0)] + [u for kind, sh in spec.gamma_shifts
                              for u in _pole_abscissae(ctx, s_val, kind, sh)]
    c, gap = motive._abscissa(ctx, max(u_poles))
    h = 2 * ctx.pi * gap / ((wd + 8) * ctx.log(10))
    raw = [[] for _ in range(order + 1)]
    building = list(range(order + 1))
    k = 0
    floor = ctx.mpf(10) ** (-(wd + 8))
    while building:
        u = ctx.mpc(c, k * h)
        g = _gamma_value(spec, ctx, s_val + u)
        if building[-1] >= 1:
            ell = _gamma_logderiv(spec, ctx, s_val + u, 1)
        if building[-1] == 2:
            ell2 = _gamma_logderiv(spec, ctx, s_val + u, 2)
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
# sigma = -1 and 6 digits and at sigma = 0 and 8 digits (the mirror sides;
# at sigma = -1 all but Gamma_R(s + 1) have a gamma pole at u = 1, right of
# u = 0); Gamma_C^2 also at sigma = 2 (no gamma pole right of u = 0) and at
# 20 digits
GRID = [(g, "-1", 6) for g in GAMMAS] + [(g, "0", 8) for g in GAMMAS] + \
       [("CC", "2", 6), ("CC", "-1", 20)]


def _grid_args(gamma, sigma, ctx):
    """(spec, sigma) of a GRID row; the kernel's line follows from them."""
    return LFunctionSpec(1, 0, 1, GAMMAS[gamma]), ctx.mpf(sigma)


@pytest.mark.parametrize("gamma, sigma, digits", GRID)
def test_kernel_nodes_match_the_mpc_loop(gamma, sigma, digits):
    """The nodes are the reference's order-0 list, and the I_2 and I_3 lists
    are it divided by u = c + i h k once and twice on mpc objects."""
    pol = PrecisionPolicy(digits)
    ctx = pol.ctx
    args = _grid_args(gamma, sigma, ctx)
    ker = motive._build_kernel(*args, pol)
    c_ref, h_ref, (raw_ref,) = _reference_raw(*args, pol, 0)
    assert (ker.c, ker.h) == (c_ref, h_ref)
    assert ker._raw == raw_ref
    ker._signed(ctx.prec, 2)
    _, raws, _ = ker._signed_nodes
    expected = [ctx.make_mpc((r[:4], r[4:])) for r in raw_ref]
    for raw in raws[1:]:
        expected = [g / ctx.mpc(ker.c, k * ker.h) for k, g in enumerate(expected)]
        assert raw == [g._mpc_[0] + g._mpc_[1] for g in expected]


def _trapezoid(ctx, c, h, raw, y):
    """The full-line trapezoid sum of a node list at y on mpc objects."""
    rot = ctx.expj(-h * ctx.log(y))
    acc, r = ctx.make_mpc((raw[0][:4], raw[0][4:])) / 2, ctx.mpc(1)
    for node in raw[1:]:
        r = r * rot
        acc += ctx.make_mpc((node[:4], node[4:])) * r
    return ctx.power(y, -c) * 2 * acc.real * h / (2 * ctx.pi)


@pytest.mark.parametrize("gamma, sigma, digits", GRID)
def test_kernel_orders_match_the_digamma_reference(gamma, sigma, digits):
    """F_0 = I_1, F_1 = log y I_1 + I_2 and F_2 = (log y)^2 I_1 + 2 log y I_2
    + 2 I_3, formed from the kernel's values on mpf objects, the s-derivatives
    of F by parts, are each within 10^-(working digits - 1) of the
    digamma-weighted reference at doubled precision, relative to
    max(1, |F_d|).  The nodes are rounded at the working precision, and
    y^-c scales their rounding: at y = 0.05 the order-0 value, the
    reference's own construction, is off by up to 0.89 10^-(working digits),
    and orders 1 and 2 by up to 1.4 and 1.95."""
    pol, ref = PrecisionPolicy(digits), PrecisionPolicy(digits).doubled()
    ctx, rctx = pol.ctx, ref.ctx
    ker = motive._build_kernel(*_grid_args(gamma, sigma, ctx), pol)
    c_ref, h_ref, raws = _reference_raw(*_grid_args(gamma, sigma, rctx), ref, 2)
    for y in ("0.05", "0.7", "1", "3.9", "40"):
        i1, i2, i3 = ker(ctx.mpf(y), 2)
        lny = ctx.log(ctx.mpf(y))
        got = [i1, lny * i1 + i2, lny * lny * i1 + 2 * lny * i2 + 2 * i3]
        y = rctx.mpf(y)
        for value, raw in zip(got, raws):
            expected = _trapezoid(rctx, c_ref, h_ref, raw, y)
            limit = rctx.mpf(10) ** (1 - pol.working_digits) * max(1, abs(expected))
            assert abs(rctx.mpf(value) - expected) < limit


def _second_line(ctx, u_max):
    """A line 0.75 right of the rightmost pole, the least gap the line had
    before the one rule."""
    gap = ctx.mpf("0.75")
    return u_max + gap, gap


@pytest.mark.parametrize("gamma, sigma, digits", GRID)
def test_kernel_values_do_not_depend_on_the_line(monkeypatch, gamma, sigma, digits):
    """I_1..I_3 on the rule's line and on a second line, 0.75 right of the
    rightmost pole with its own step and nodes, agree within
    10^-(working digits - 2) relative to max(1, |I_j|) for y from 1/100 to
    30: each is the same integral, whichever line right of the poles
    carries it."""
    pol = PrecisionPolicy(digits)
    ctx = pol.ctx
    args = _grid_args(gamma, sigma, ctx)
    ker = motive._build_kernel(*args, pol)
    monkeypatch.setattr(motive, "_abscissa", _second_line)
    other = motive._build_kernel(*args, pol)
    assert other.c < ker.c and other.h < ker.h
    limit = ctx.mpf(10) ** (2 - pol.working_digits)
    for y in ("0.01", "0.05", "0.3", "1", "3.9", "30"):
        y = ctx.mpf(y)
        for a, b in zip(ker(y, 2), other(y, 2)):
            assert abs(a - b) <= limit * max(1, abs(a))


def test_chi4_kernel_node_count():
    """The right-side kernel of `lfun` on chi_-4 at s = 2 and 8 digits,
    Gamma_R(s + 1) at sigma = 2, has 389 nodes on its line at c = 2.75;
    the former line, 0.75 from the pole at u = 0, took 1369."""
    pol = PrecisionPolicy(8)
    ker = motive._build_kernel(LFunctionSpec(1, 0, 4, GAMMAS["R1"]), pol.ctx.mpf(2), pol)
    assert (ker.c, len(ker._raw)) == (2.75, 389)


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
    ker = motive._build_kernel(LFunctionSpec(1, 0, 1, GAMMAS[gamma]), pol.ctx.mpf(-1), pol)
    assert len(calls) == per_node * len(ker._raw)


def test_kernel_without_gamma_factors_fails():
    """No gamma factor: the integrand never decays, so no node list can end."""
    pol = PrecisionPolicy(8)
    with pytest.raises(MotiveError, match="failed to decay"):
        motive._build_kernel(LFunctionSpec(1, 0, 1, ()), pol.ctx.mpf(2), pol)
