"""mb_contour's nodes, held once per working precision in the AFE's kernel
cache, and its error bound.

The nodes G(1/2 + i h k) have the bits of a plain mpc loop, and a warm
contour the bits of a cold one.  mb_contour_bound covers the distance to a
reference at doubled digits: the contour itself for z < 1, and mpmath's quad
over the whole integrand on the line Re s = -1/8 for z > 1.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from hyperreg.lfun import motive
from hyperreg.mpnum import PrecisionPolicy
from hyperreg.regulators import k2

DIGITS = (15, 20, 30)
ZS = ("0.5", "0.9", "2", "10", "49")


def _mpc_nodes(pol, count):
    """The first `count` contour nodes by a plain loop on mpc objects."""
    ctx = pol.ctx
    wd = pol.working_digits
    c = a = ctx.mpf(1) / 2
    with ctx.workprec(ctx.prec - 16):
        h = 2 * ctx.pi * a / ((wd + 8) * ctx.log(10))
    with ctx.workprec(ctx.prec + 20):
        ten_log2 = 10 * ctx.ln2
    nodes = []
    for k in range(count):
        t = k * h
        s = ctx.mpc(c, t)
        g = ctx.gamma(s)
        num = ctx.conj(g) * ctx.gamma(ctx.mpc(3, 4 * t)) * ctx.gamma(ctx.mpc(2, 2 * t))
        with ctx.workprec(ctx.prec + 20):
            phase = t * ten_log2
        den = (s * g) ** 5 * (s * (s + a)) * ctx.mpc(*ctx.cos_sin(phase))
        nodes.append(-(num / den) / 32)
    return h, nodes


def test_integrand_bits_at_every_node():
    """At 15 and 30 digits every node is the mpc loop's G(1/2 + i h k), the
    last under the decay floor; the 40 past it, which the sum leaves out,
    each fall by at least q = e^(-pi h), the rate mb_contour_bound takes for
    them."""
    for digits in (15, 30):
        _check_nodes(PrecisionPolicy(digits))


def _check_nodes(pol):
    ctx = pol.ctx
    c, h, raw = k2._contour_nodes(pol)
    h_ref, nodes = _mpc_nodes(pol, len(raw) + 40)
    assert (c, h) == (ctx.mpf(1) / 2, h_ref)
    assert raw == [g._mpc_[0] + g._mpc_[1] for g in nodes[:len(raw)]]
    assert abs(nodes[len(raw) - 1]) < ctx.mpf(10) ** -(pol.working_digits + 8)
    q = ctx.exp(-ctx.pi * h)
    tail = nodes[len(raw) - 1:]
    assert all(abs(b) <= q * abs(a) for a, b in zip(tail, tail[1:]))


def _quad_contour(zs, pol):
    """{z: R_0 normalized} by quad on Re s = -1/8 at pol's working digits + 10,
    the z-free Gamma factors formed once per quadrature node."""
    ctx = pol.ctx
    sigma = -ctx.mpf(1) / 8
    factors = {}

    def G(tt):
        if tt not in factors:
            s = ctx.mpc(sigma, tt)
            factors[tt] = ctx.gamma(-s) * ctx.gamma(1 + 4 * s) * ctx.gamma(1 + 2 * s) \
                / (ctx.gamma(1 + s) ** 5 * ctx.power(2, 10 * s) * (s + ctx.mpf(1) / 2))
        return factors[tt]

    out = {}
    with ctx.workdps(pol.working_digits + 10):
        T = (pol.working_digits + 10) * ctx.log(10) / ctx.pi
        for z in zs:
            zv = ctx.convert(z)
            val = ctx.quad(lambda tt: G(tt) * ctx.power(zv, ctx.mpc(sigma + ctx.mpf(1) / 2, tt)),
                           [0, T / 8, T / 3, T])
            out[z] = +ctx.re(val) / ctx.pi
    return out


@pytest.fixture(scope="module")
def reference():
    """digits -> {z: the reference value at doubled digits}, computed once per digits."""
    held = {}

    def at(digits):
        if digits not in held:
            pol, ref = PrecisionPolicy(digits), PrecisionPolicy(digits).doubled()
            zs = {z: pol.ctx.mpf(z) for z in ZS}
            held[digits] = {z: k2.mb_contour(ref.ctx.convert(zv), ref)
                            for z, zv in zs.items() if zv < 1}
            quads = _quad_contour([zv for zv in zs.values() if zv > 1], ref)
            held[digits].update({z: quads[zv] for z, zv in zs.items() if zv > 1})
        return held[digits]
    return at


@pytest.mark.parametrize("digits", DIGITS)
@pytest.mark.parametrize("z", ZS)
def test_bound_covers_the_reference(reference, digits, z):
    """|contour - reference| <= mb_contour_bound, at the binary z of the
    working precision, and the bound is far under the 10^-15 the verify rows
    hold the contour to."""
    pol = PrecisionPolicy(digits)
    ctx = pol.ctx
    zv = ctx.mpf(z)
    bound = k2.mb_contour_bound(zv, pol)
    assert abs(k2.mb_contour(zv, pol) - reference(digits)[z]) <= bound
    assert bound < ctx.mpf(10) ** -(digits + 10)


def _fresh_contour(z, pol, nodes):
    """mb_contour on a kernel made from the given nodes for this call alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(k2, "_contour_kernel", lambda _pol: motive._Kernel(pol.ctx, *nodes))
        return k2.mb_contour(z, pol)


@pytest.fixture(scope="module")
def cold():
    """(digits, z) -> (contour, compare), each contour on a kernel of its own."""
    out = {}
    for digits in DIGITS:
        pol = PrecisionPolicy(digits)
        nodes = k2._contour_nodes(pol)
        for z in ZS:
            cont = _fresh_contour(pol.ctx.mpf(z), pol, nodes)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(k2, "mb_contour", lambda _z, _pol, cont=cont: cont)
                cmp = k2.mb_compare(pol.ctx.mpf(z), pol)
            out[digits, z] = (repr(cont), repr(cmp))
    return out


@pytest.mark.parametrize("contour_first", [True, False])
def test_memo_matches_unmemoized_integrand(monkeypatch, cold, contour_first):
    """The first call at each precision builds the kernel, every later one
    reads it from the cache; contour before compare and after it, z
    ascending and descending: each value has the bits of a kernel of its own."""
    monkeypatch.setattr(motive, "_kernel_cache", {})
    zs = ZS if contour_first else ZS[::-1]
    for digits in DIGITS:
        pol = PrecisionPolicy(digits)
        for z in zs:
            if contour_first:
                cont = k2.mb_contour(pol.ctx.mpf(z), pol)
                cmp = k2.mb_compare(pol.ctx.mpf(z), pol)
            else:
                cmp = k2.mb_compare(pol.ctx.mpf(z), pol)
                cont = k2.mb_contour(pol.ctx.mpf(z), pol)
            assert (repr(cont), repr(cmp)) == cold[digits, z], (digits, z)


def _count_builds(monkeypatch):
    builds = []
    real = k2._contour_nodes
    monkeypatch.setattr(k2, "_contour_nodes", lambda pol: builds.append(pol) or real(pol))
    return builds


def test_warm_contour_forms_log_z_once_per_precision(monkeypatch):
    """A warm contour computes no Gamma and takes one logarithm, the
    kernel's log y."""
    monkeypatch.setattr(motive, "_kernel_cache", {})
    pol = PrecisionPolicy(15)
    k2.mb_contour(pol.ctx.mpf(2), pol)
    logs, gammas = [], []
    real_log, real_gamma = motive.mpf_log, k2.mpc_gamma
    monkeypatch.setattr(motive, "mpf_log", lambda *a: logs.append(a) or real_log(*a))
    monkeypatch.setattr(k2, "mpc_gamma", lambda *a: gammas.append(a) or real_gamma(*a))
    k2.mb_contour(pol.ctx.mpf(10), pol)
    assert len(logs) == 1 and gammas == []


def test_second_contour_adds_no_entries(monkeypatch):
    monkeypatch.setattr(motive, "_kernel_cache", {})
    builds = _count_builds(monkeypatch)
    pol = PrecisionPolicy(15)
    k2.mb_contour(pol.ctx.mpf(2), pol)
    held = dict(motive._kernel_cache)
    assert list(held) == [("k2 mb_contour", pol.working_digits)] and len(builds) == 1
    k2.mb_contour(pol.ctx.mpf(10), pol)
    k2.mb_contour_bound(pol.ctx.mpf(10), pol)
    assert motive._kernel_cache == held and len(builds) == 1


def test_precisions_never_share_entries(monkeypatch):
    """Each working precision has its own kernel, built once at that
    precision with its own step."""
    monkeypatch.setattr(motive, "_kernel_cache", {})
    builds = _count_builds(monkeypatch)
    for digits in (10, 20, 10, 13, 20):
        pol = PrecisionPolicy(digits)
        k2.mb_contour(pol.ctx.mpf(2), pol)
        kernel = motive._kernel_cache["k2 mb_contour", pol.working_digits]
        assert kernel.h == _mpc_nodes(pol, 0)[0] and kernel.ctx.prec == pol.ctx.prec
    assert sorted(key[1] for key in motive._kernel_cache) == [25, 28, 35]
    assert len(builds) == 3


def test_memo_keeps_the_latest_precisions(monkeypatch):
    """The contour's kernels live in the one bounded kernel cache."""
    monkeypatch.setattr(motive, "_kernel_cache", {})
    monkeypatch.setattr(motive, "_KERNEL_CACHE_SIZE", 2)
    for digits in (5, 6, 7):
        pol = PrecisionPolicy(digits)
        k2.mb_contour(pol.ctx.mpf(2), pol)
        assert len(motive._kernel_cache) <= 2
    assert list(motive._kernel_cache) == [("k2 mb_contour", 21), ("k2 mb_contour", 22)]


def test_import_computes_nothing():
    """Importing k2 builds no kernel and loads no lfun module: the contour
    imports lfun.motive when it first runs."""
    code = ("import sys, hyperreg.regulators.k2; "
            "assert not any(m.startswith('hyperreg.lfun') for m in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
