"""The smoothed AFE evaluator: recorded CLI output, work counts, fail-fast paths."""

from __future__ import annotations

import copy
import functools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperreg import cli
from hyperreg.lfun import euler, motive
from hyperreg.lfun.dirichlet import dirichlet_L, kronecker_character
from hyperreg.lfun.motive import (LFunctionSpec, MotiveError, PointError, lambda_derivs,
                                  motive_L)
from hyperreg.mpnum import PrecisionPolicy

from eulerfile import euler_from_character, to_jsonl
from test_afe_kernel import _gamma_value

EULER_P = 400

# stdout of `hyperreg --digits 8 lfun SPEC --s S --order K`, recorded before the
# AFE sides were fused into one pass, with the self-test residuals of the
# fixed-point kernel sums; any change in a printed byte fails here.
GOLDEN = {
    (-4, "2", 0): '{\n "label": "chi_-4",\n "order": 0,\n "s": "2",\n'
                  ' "self_test_residual": "8.27e-25",\n "value": "0.91596559"\n}\n',
    (5, "0", 1): '{\n "label": "chi_5",\n "order": 1,\n "s": "0",\n'
                 ' "self_test_residual": "8.27e-25",\n "value": "0.48121183"\n}\n',
}


def _character_spec(D):
    """L(chi_D, s): gamma factor Gamma_R(s) if chi_D is even, Gamma_R(s + 1) if odd."""
    table = euler_from_character(kronecker_character(D), EULER_P)
    return LFunctionSpec(1, 0, abs(D), (("R", Fraction(0 if D > 0 else 1)),), 1,
                         table, label=f"chi_{D}")


def _write_spec(D, directory):
    euler_path = directory / f"chi{D}.jsonl"
    euler_path.write_text(to_jsonl(_character_spec(D).euler))
    spec_path = directory / f"chi{D}.json"
    spec_path.write_text(json.dumps({
        "degree": 1, "weight": 0, "conductor": abs(D),
        "gamma_shifts": [["R", "0" if D > 0 else "1"]], "sign": 1,
        "euler_path": str(euler_path), "label": f"chi_{D}"}))
    return spec_path


@pytest.mark.parametrize("D, s, order", sorted(GOLDEN))
def test_lfun_cli_golden(D, s, order, tmp_path, capsys):
    spec_path = _write_spec(D, tmp_path)
    code = cli.main(["--digits", "8", "lfun", str(spec_path), "--s", s,
                     "--order", str(order)])
    assert code == 0
    assert capsys.readouterr().out == GOLDEN[(D, s, order)]


def test_self_test_limit_is_ten_to_the_minus_digits(monkeypatch, tmp_path, capsys):
    """A cutoff residual of 10^-(digits - 2), under the former limit
    10^-(digits - 4), is a divergence: MotiveError, and exit 3 from `lfun`
    with one error line."""
    original = motive.lambda_derivs

    def spoiled(spec, s0, order, pol, cutoff_A=None, *args, **kwargs):
        out = original(spec, s0, order, pol, cutoff_A, *args, **kwargs)
        if cutoff_A is not None:
            out[0] += pol.ctx.mpf(10) ** (2 - pol.target_digits)
        return out

    monkeypatch.setattr(motive, "lambda_derivs", spoiled)
    with pytest.raises(MotiveError, match="self-test residual"):
        motive_L(_character_spec(-4), 2, 0, PrecisionPolicy(8))
    code = cli.main(["--digits", "8", "lfun", str(_write_spec(-4, tmp_path)), "--s", "2"])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert len(out.err.splitlines()) == 1 and "self-test residual" in out.err


def test_self_test_is_judged_on_the_printed_L(monkeypatch, tmp_path, capsys):
    """A cutoff residual of 0.8 10^-digits on Lambda(2) of chi_-4 is under the
    limit on Lambda, but |N^(s/2) gamma(s)| = 4 pi^-3/2 Gamma(3/2) is about
    0.64 there, so on the printed L(2) it is 1.26 10^-digits: exit 3."""
    original = motive.lambda_derivs

    def spoiled(spec, s0, order, pol, cutoff_A=None, *args, **kwargs):
        out = original(spec, s0, order, pol, cutoff_A, *args, **kwargs)
        if cutoff_A is not None:
            out[0] += pol.ctx.mpf("0.8") * pol.tol
        return out

    monkeypatch.setattr(motive, "lambda_derivs", spoiled)
    code = cli.main(["--digits", "8", "lfun", str(_write_spec(-4, tmp_path)), "--s", "2"])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert len(out.err.splitlines()) == 1 and "self-test residual 1.25" in out.err


def test_self_test_checks_every_order(monkeypatch, tmp_path, capsys):
    """A cutoff residual of 10^-(digits - 2) in Lambda' alone leaves an
    order-0 request alone and fails an order-1 or order-2 one: MotiveError
    naming order 1, and exit 3 from `lfun` with one error line."""
    original = motive.lambda_derivs

    def spoiled(spec, s0, order, pol, cutoff_A=None, *args, **kwargs):
        out = original(spec, s0, order, pol, cutoff_A, *args, **kwargs)
        if cutoff_A is not None and order > 0:
            out[1] += pol.ctx.mpf(10) ** (2 - pol.target_digits)
        return out

    monkeypatch.setattr(motive, "lambda_derivs", spoiled)
    pol = PrecisionPolicy(8)
    motive_L(_character_spec(-4), 2, 0, pol)
    for order in (1, 2):
        with pytest.raises(MotiveError, match="self-test residual .* at order 1"):
            motive_L(_character_spec(-4), 2, order, pol)
    code = cli.main(["--digits", "8", "lfun", str(_write_spec(-4, tmp_path)), "--s", "2",
                     "--order", "2"])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert len(out.err.splitlines()) == 1 and "at order 1" in out.err


def test_rounding_bound_past_the_target_exits_3(monkeypatch, tmp_path, capsys):
    """With every kernel's rounding count scaled by 10^40, the bound on
    Lambda exceeds 10^-digits: MotiveError from lambda_derivs, and exit 3
    from `lfun` with one error line."""
    rounding = motive._Kernel.rounding
    monkeypatch.setattr(motive._Kernel, "rounding",
                        lambda self, order: [r * 10 ** 40 for r in rounding(self, order)])
    with pytest.raises(MotiveError, match="rounding bound .* exceeds 10\\^-8"):
        lambda_derivs(_character_spec(-4), 2, 0, PrecisionPolicy(8))
    code = cli.main(["--cache", str(tmp_path / "cache"), "--digits", "8", "lfun",
                     str(_write_spec(-4, tmp_path)), "--s", "2"])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert len(out.err.splitlines()) == 1 and "rounding bound" in out.err


def test_lost_working_precision_is_not_reported_as_missing_euler_data(monkeypatch, tmp_path,
                                                                      capsys):
    """With 60 bits fewer than the working precision in the kernel sums, the
    side sums stay above their stopping floor until the table runs out.  The
    side's own rounding bound, about 1.5e-4 against 10^-8, names the cause:
    the rounding-bound MotiveError, not CoverageError's "need roughly 894";
    `lfun` exits 3 with that one line."""
    monkeypatch.setattr(motive, "_GUARD_BITS", -60)
    monkeypatch.setattr(motive, "_kernel_cache", {})
    with pytest.raises(MotiveError, match="rounding bound .* exceeds 10\\^-8") as err:
        lambda_derivs(_character_spec(-4), 2, 0, PrecisionPolicy(8))
    assert not isinstance(err.value, motive.CoverageError)
    monkeypatch.setattr(motive, "_kernel_cache", {})
    code = cli.main(["--cache", str(tmp_path / "cache"), "--digits", "8", "lfun",
                     str(_write_spec(-4, tmp_path)), "--s", "2"])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert len(out.err.splitlines()) == 1 and "rounding bound" in out.err


def _hurwitz_L(D, s, order):
    """L^(order)(chi_D, s) at 60 digits from L(s) = q^-s sum_a chi_D(a)
    zeta(s, a/q), q = |D|: dirichlet_L for orders 0 and 1, and for order 2
    sum_a chi_D(a) q^-s (log^2 q zeta - 2 log q zeta' + zeta'') with mpmath's
    Hurwitz zeta derivatives."""
    pol = PrecisionPolicy(45)
    ctx = pol.ctx
    chi, s = kronecker_character(D), ctx.mpf(s.numerator) / s.denominator
    if order < 2:
        return dirichlet_L(chi, s, order, pol)
    q = abs(D)
    lq = ctx.log(q)
    total = ctx.mpf(0)
    for a in range(1, q):
        z0, z1, z2 = (ctx.zeta(s, ctx.mpf(a) / q, derivative=j) for j in range(3))
        total += chi.value(a, ctx) * (lq * lq * z0 - 2 * lq * z1 + z2)
    return ctx.power(q, -s) * total


@pytest.mark.parametrize("D, s", [(D, s) for D in (-4, 8, -3)
                                  for s in (Fraction(2), Fraction(1, 2))])
def test_derivatives_match_the_hurwitz_route(D, s):
    """L, L' and L'' by the AFE at 8 and 18 digits are within 10^-(digits + 10)
    of the Hurwitz-zeta route, which shares no code with the kernel."""
    spec = _character_spec(D)
    for digits in (8, 18):
        pol = PrecisionPolicy(digits)
        for order in (0, 1, 2):
            value, _ = motive_L(spec, s, order, pol)
            assert abs(value - _hurwitz_L(D, s, order)) < pol.ctx.mpf(10) ** -(digits + 10)


@pytest.mark.parametrize("s, digits", [("20", 8), ("20", 30), ("30", 8), ("30", 30), ("34", 8),
                                       ("34", 30), ("40", 8), ("40", 30)])
def test_large_s_prints_beta_in_every_digit(s, digits, tmp_path, capsys):
    """L(chi_-4, s) = beta(s) = 4^-s (zeta(s, 1/4) - zeta(s, 3/4)) far right
    of the critical strip, where |N^(s/2) gamma(s)| is 7e6 at s = 20, 3e15
    at s = 34 and 4e19 at s = 40: `lfun` exits 0 and prints beta(s), formed
    at 60 digits, to its last digit.  The kernels' rounding bound and the
    self-test are judged on the printed L.  Judged on Lambda, the bound
    refused s = 34 at 30 digits (2.4e-28 against 10^-30), and s = 30 came
    within a factor 1.1 of the limit; the self-test refused s = 34 at 8
    digits (1.5e-8) and s = 40 at 8 and 30 digits (6.1e-4 and 6.5e-27)."""
    code = cli.main(["--digits", str(digits), "lfun", str(_write_spec(-4, tmp_path)),
                     "--s", s])
    out = capsys.readouterr()
    assert code == 0, out.err
    ctx = PrecisionPolicy(45).ctx
    beta = ctx.power(4, -int(s)) * (ctx.zeta(int(s), ctx.mpf(1) / 4)
                                    - ctx.zeta(int(s), ctx.mpf(3) / 4))
    assert json.loads(out.out)["value"] == ctx.nstr(beta, digits)


def test_rounding_weight_past_binary64_exits_3(tmp_path, capsys):
    """At s = 1100 the mirror side's y_n^-c, c = 1100.75, overflows binary64
    for chi_-4 (y_1 = 1/2), and for zeta y_2^-c underflows to 0 where
    |a_2 2^-sigma| is past it (inf times 0): no finite rounding bound, so a
    MotiveError, and exit 3 from `lfun` with one error line, not a
    traceback."""
    primes = [p for p in range(2, EULER_P) if all(p % q for q in range(2, p))]
    zeta = LFunctionSpec(1, 0, 1, (("R", Fraction(0)),), 1,
                         euler.EulerFactorTable({p: [1, -1] for p in primes}, 1, "zeta"),
                         poles=((Fraction(1), 1), (Fraction(0), -1)))
    with pytest.raises(MotiveError, match="rounding bound past binary64"):
        motive_L(zeta, 1100, 0, PrecisionPolicy(8))
    code = cli.main(["--digits", "8", "lfun", str(_write_spec(-4, tmp_path)), "--s", "1100"])
    out = capsys.readouterr()
    assert code == 3 and out.out == ""
    assert out.err == "error: AFE kernel rounding bound past binary64\n"


def test_orders_stop_independently():
    """Each order keeps its own stopping rule: asking for more orders changes none."""
    pol = PrecisionPolicy(8)
    spec = _character_spec(-4)
    up_to_2 = lambda_derivs(spec, 2, 2, pol)
    assert up_to_2[:2] == lambda_derivs(spec, 2, 1, pol)
    assert up_to_2[:1] == lambda_derivs(spec, 2, 0, pol)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_motive_L_work_counts(monkeypatch):
    """One lambda_derivs per cutoff, one Dirichlet table each, one kernel per side."""
    monkeypatch.setattr(motive, "_kernel_cache", {})
    lam_calls = _count_calls(monkeypatch, motive, "lambda_derivs")
    coeff_calls = _count_calls(monkeypatch, motive, "dirichlet_coefficients")
    kernel_builds = _count_calls(monkeypatch, motive, "_build_kernel")
    motive_L(_character_spec(-4), 2, 1, PrecisionPolicy(8))
    assert len(lam_calls) == 2
    assert len(coeff_calls) <= 2
    assert len(kernel_builds) <= 2


def test_trivial_zero_wrong_order_fails_fast(monkeypatch):
    lam_calls = _count_calls(monkeypatch, motive, "lambda_derivs")
    with pytest.raises(PointError):
        motive_L(_character_spec(5), 0, 0, PrecisionPolicy(8))
    assert lam_calls == []


def _zeta_spec():
    """zeta(s): Gamma_R(s), simple poles of Lambda at s = 1 (residue 1) and 0 (-1)."""
    table = euler.EulerFactorTable({p: [1, -1] for p in (2, 3, 5, 7, 11, 13)}, 1, "zeta")
    return LFunctionSpec(1, 0, 1, (("R", Fraction(0)),), 1, table,
                         poles=((Fraction(1), 1), (Fraction(0), -1)), label="zeta")


@pytest.mark.parametrize("s0, order", [(1, 0), (Fraction(1), 2), (0, 1)])
def test_pole_of_lambda_fails_fast(monkeypatch, s0, order):
    """A point on a pole of Lambda is refused before any table or kernel is built."""
    monkeypatch.setattr(motive, "_kernel_cache", {})
    coeff_calls = _count_calls(monkeypatch, motive, "dirichlet_coefficients")
    kernel_builds = _count_calls(monkeypatch, motive, "_build_kernel")
    pol = PrecisionPolicy(8)
    with pytest.raises(PointError, match="pole of Lambda"):
        motive_L(_zeta_spec(), s0, order, pol)
    with pytest.raises(PointError, match="pole of Lambda"):
        lambda_derivs(_zeta_spec(), s0, order, pol)
    with pytest.raises(PointError, match="pole of Lambda"):
        lambda_derivs(_zeta_spec(), pol.ctx.convert(s0), order, pol)
    assert coeff_calls == [] and kernel_builds == []


def test_unsupported_order_fails_fast(monkeypatch):
    monkeypatch.setattr(motive, "_kernel_cache", {})
    coeff_calls = _count_calls(monkeypatch, motive, "dirichlet_coefficients")
    kernel_builds = _count_calls(monkeypatch, motive, "_build_kernel")
    for order in (-1, 3):
        with pytest.raises(MotiveError):
            motive_L(_character_spec(-4), 2, order, PrecisionPolicy(8))
    assert coeff_calls == [] and kernel_builds == []


def test_lambda_derivs_needs_euler_data(monkeypatch):
    monkeypatch.setattr(motive, "_kernel_cache", {})
    kernel_builds = _count_calls(monkeypatch, motive, "_build_kernel")
    spec = LFunctionSpec(1, 0, 4, (("R", Fraction(1)),), 1, None)
    with pytest.raises(MotiveError):
        lambda_derivs(spec, 2, 0, PrecisionPolicy(8))
    assert kernel_builds == []


def test_motive_L_builds_one_dirichlet_table(monkeypatch):
    """Main path and self-test share one Dirichlet table."""
    monkeypatch.setattr(motive, "_kernel_cache", {})
    lam_calls = _count_calls(monkeypatch, motive, "lambda_derivs")
    coeff_calls = _count_calls(monkeypatch, motive, "dirichlet_coefficients")
    motive_L(_character_spec(-4), 2, 1, PrecisionPolicy(8))
    assert len(lam_calls) == 2
    assert len(coeff_calls) == 1


def test_kernel_cache_is_bounded(monkeypatch):
    """Past the bound the oldest kernel is evicted; rebuilding it gives equal values."""
    assert isinstance(motive._KERNEL_CACHE_SIZE, int) and motive._KERNEL_CACHE_SIZE > 0
    monkeypatch.setattr(motive, "_kernel_cache", {})
    monkeypatch.setattr(motive, "_KERNEL_CACHE_SIZE", 2)
    spec = _character_spec(-4)
    pol = PrecisionPolicy(8)
    ctx = pol.ctx
    sigmas = [ctx.mpf(2) + ctx.mpf(i) / 7 for i in range(4)]
    y = ctx.mpf("0.3")
    first = motive._kernel(spec, sigmas[0], pol)
    values = first(y, 1)
    for sigma in sigmas[1:]:
        motive._kernel(spec, sigma, pol)
        assert len(motive._kernel_cache) <= 2
    assert all(k is not first for k in motive._kernel_cache.values())
    rebuilt = motive._kernel(spec, sigmas[0], pol)
    assert rebuilt is not first and rebuilt(y, 1) == values
    assert motive._kernel(spec, sigmas[0], pol) is rebuilt
    assert len(motive._kernel_cache) <= 2


QUINTIC_GAMMA = (("C", Fraction(0)), ("C", Fraction(0)))


def _kernel_at(gamma, sigma, digits):
    """The kernel of gamma data at sigma, on the rule's line."""
    pol = PrecisionPolicy(digits)
    return motive._build_kernel(LFunctionSpec(1, 0, 1, gamma), pol.ctx.mpf(sigma), pol)


@functools.cache
def _bound_check(gamma, sigma, digits):
    """check(y, order): every value of the kernel's call is within y^-c R_j
    (_Kernel.rounding) of its trapezoid at doubled precision, with the
    kernel's c, h and node count, the nodes gamma(sigma + u)/u at
    u = c + i h k from the per-kind mpc expressions, divided by u once and
    twice for I_2 and I_3, and the sum on mpc objects."""
    ker = _kernel_at(gamma, sigma, digits)
    rctx = PrecisionPolicy(digits).doubled().ctx
    spec = LFunctionSpec(1, 0, 1, gamma)
    c, h = rctx.mpf(ker.c), rctx.mpf(ker.h)
    us = [rctx.mpc(c, k * h) for k in range(len(ker._raw))]
    lists = [[_gamma_value(spec, rctx, rctx.mpf(sigma) + u) / u for u in us]]
    for _ in range(2):
        lists.append([g / u for g, u in zip(lists[-1], us)])

    def check(y, order):
        w = rctx.expj(-h * rctx.log(rctx.mpf(y)))
        decay = rctx.power(rctx.mpf(y), -c)
        for value, nodes, rounding in zip(ker(y, order), lists, ker.rounding(order)):
            acc, r = nodes[0] / 2, rctx.mpc(1)
            for g in nodes[1:]:
                r *= w
                acc += g * r
            assert abs(rctx.mpf(value) - decay * acc.real * h / rctx.pi) <= \
                decay * rctx.mpf(rounding)

    return ker.ctx, check


# (gamma data, sigma, digits): the two sides of the chi_-4 run at s = 2 and
# of the quintic run at s = 0; the 20-digit kernels of the larger sides are
# left out for time
@pytest.mark.parametrize("gamma, sigma, digits", [
    ((("R", Fraction(1)),), "2", 8),
    ((("R", Fraction(1)),), "-1", 8),
    ((("R", Fraction(1)),), "-1", 20),
    (QUINTIC_GAMMA, "0", 8),
    (QUINTIC_GAMMA, "0", 20),
    (QUINTIC_GAMMA, "1", 8),
])
def test_kernel_real_part_sum_is_within_its_bound(gamma, sigma, digits):
    """At y from 0.05 to 40 and every order, each value is within its
    counted rounding bound of the same trapezoid at doubled precision."""
    ctx, check = _bound_check(gamma, sigma, digits)
    for y in ("0.05", "0.7", "1", "3.9", "40"):
        for order in (2, 0, 1):
            check(ctx.mpf(y), order)


# Gamma_R(s) on the chi_8 mirror side at s = 2, Gamma_R(s + 1) on chi_-4's
# (sigma = -1), and the quintic's Gamma_C(s)^2 at s = 0, at 8 digits
BOUND_KERNELS = ((("R", Fraction(0)),), (("R", Fraction(1)),), QUINTIC_GAMMA)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BOUND_KERNELS),
       st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=10 ** 6),
       st.sampled_from([0, 1, 2]))
def test_kernel_sum_is_within_its_bound_at_any_y(gamma, y, order):
    """At any y in [1/1000, 1000], every order's value is within its bound
    of the doubled-precision trapezoid."""
    ctx, check = _bound_check(gamma, "0" if gamma == QUINTIC_GAMMA else "-1", 8)
    check(ctx.mpf(y.numerator) / y.denominator, order)


@functools.cache
def _mirror_kernel():
    """The Gamma_R(s + 1) kernel of the chi_-4 mirror side at s = 2
    (sigma = -1, 8 digits): one node list of 367 nodes."""
    pol = PrecisionPolicy(8)
    return motive._build_kernel(LFunctionSpec(1, 0, 4, (("R", Fraction(1)),)), pol.ctx.mpf(-1), pol)


# --- the table of kernel values ----------------------------------------------------

def _bits(values):
    return [v._mpf_ for v in values]


# (gamma data, sigma, digits): the chi_-4 mirror side at s = 2 at 8 and 20
# digits, and the quintic's Gamma_C(s)^2 at s = 0
@pytest.mark.parametrize("gamma, sigma, digits", [
    ((("R", Fraction(1)),), "-1", 8),
    ((("R", Fraction(1)),), "-1", 20),
    (QUINTIC_GAMMA, "0", 8),
])
def test_kernel_table_is_the_call_bit_for_bit(gamma, sigma, digits):
    """Every order the table serves, a hit, a miss or a longer refill, has the
    bits of the call of a fresh copy of the kernel, which reads no table."""
    ker = _kernel_at(gamma, sigma, digits)
    ctx = ker.ctx
    fresh = copy.copy(ker)
    for y in ("0.05", "0.7", "1", "3.9"):
        y = ctx.mpf(y)
        for order in (0, 2, 1, 0, 2):
            assert _bits(ker.values(y, order)) == _bits(fresh(y, order))


def _table_kernel():
    """A copy of _mirror_kernel(), whose table starts empty, and its context."""
    ker = copy.copy(_mirror_kernel())
    ker._values = {}
    return ker, ker.ctx


def test_lower_order_request_is_a_hit(monkeypatch):
    ker, ctx = _table_kernel()
    calls = _count_calls(monkeypatch, motive._Kernel, "__call__")
    y = ctx.mpf("0.3")
    both = ker.values(y, 1)
    assert len(calls) == 1
    assert ker.values(y, 0) == both[:1] and len(calls) == 1


def test_higher_order_request_evaluates_again(monkeypatch):
    ker, ctx = _table_kernel()
    calls = _count_calls(monkeypatch, motive._Kernel, "__call__")
    y = ctx.mpf("0.3")
    ker.values(y, 0)
    both = ker.values(y, 1)
    assert len(calls) == 2
    assert ker.values(y, 1) == both and ker.values(y, 0) == both[:1] and len(calls) == 2


def test_returned_list_is_a_copy():
    ker, ctx = _table_kernel()
    y = ctx.mpf("0.3")
    got = ker.values(y, 1)
    expected = list(got)
    got[0] = ctx.mpf(7)
    got.append(ctx.mpf(8))
    assert ker.values(y, 1) == expected and ker.values(y, 0) == expected[:1]


def test_kernel_table_is_bounded(monkeypatch):
    """Past the bound the oldest y is evicted, and asking for it evaluates again."""
    assert isinstance(motive._KERNEL_VALUES_SIZE, int) and motive._KERNEL_VALUES_SIZE > 0
    monkeypatch.setattr(motive, "_KERNEL_VALUES_SIZE", 3)
    ker, ctx = _table_kernel()
    ys = [ctx.mpf(n) / 7 for n in range(1, 6)]
    for y in ys:
        ker.values(y, 0)
        assert len(ker._values) <= 3
    calls = _count_calls(monkeypatch, motive._Kernel, "__call__")
    ker.values(ys[-1], 0)
    assert calls == []
    ker.values(ys[0], 0)
    assert len(calls) == 1 and len(ker._values) == 3


def test_repeated_lambda_derivs_evaluates_no_kernel(monkeypatch):
    """A second identical call reads every kernel value from the tables."""
    monkeypatch.setattr(motive, "_kernel_cache", {})
    spec = _character_spec(-4)
    pol = PrecisionPolicy(8)
    first = lambda_derivs(spec, 2, 1, pol)
    calls = _count_calls(monkeypatch, motive._Kernel, "__call__")
    again = lambda_derivs(spec, 2, 1, pol)
    assert calls == [] and _bits(again) == _bits(first)


@pytest.mark.parametrize("order", [0, 1])
def test_mirror_side_at_the_centre_reads_the_table(monkeypatch, order):
    """At s = (w + 1)/2 with cutoff 1 both sides use one kernel and the same
    y_n, so the mirror side evaluates nothing; its sums are the right side's
    bit for bit at every order, since the mirror's (-1)^j is applied by
    lambda_derivs, not in the sums."""
    monkeypatch.setattr(motive, "_kernel_cache", {})
    spec = _character_spec(-4)
    pol = PrecisionPolicy(8)
    ctx = pol.ctx
    s_val, A = ctx.mpf(1) / 2, ctx.mpf(1)
    a = euler.dirichlet_coefficients(spec.euler, spec.euler.p_max)
    right, right_bound, right_out = motive._sum_side(spec, s_val, pol, order, A, False, a)
    calls = _count_calls(monkeypatch, motive._Kernel, "__call__")
    left, left_bound, left_out = motive._sum_side(spec, s_val, pol, order, A, True, a)
    assert not right_out and not left_out
    assert calls == [] and _bits(left) == _bits(right)
    assert _bits(left_bound) == _bits(right_bound)


def test_kernel_table_is_not_saved(tmp_path):
    """The store entry of a kernel is the same before and after its table
    fills, and the kernel loaded from it makes a table of its own."""
    pol = PrecisionPolicy(8)
    ctx = pol.ctx
    spec, s_val = _character_spec(-4), ctx.mpf(-1)
    ker = motive._stored_kernel(tmp_path, spec, s_val, pol)
    (entry,) = tmp_path.iterdir()
    before = entry.read_bytes()
    y, key = ctx.mpf("0.3"), motive._store_key(spec, s_val, pol)
    filled = ker.values(y, 1)
    motive._write_entry(entry, key, ker)
    assert entry.read_bytes() == before
    loaded = motive._read_entry(entry, key, ctx)
    assert _bits(loaded.values(y, 1)) == _bits(filled) and len(loaded._values) == 1
