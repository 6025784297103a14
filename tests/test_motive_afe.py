"""The smoothed AFE evaluator: recorded CLI output, work counts, fail-fast paths."""

from __future__ import annotations

import functools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperreg import cli
from hyperreg.lfun import euler, motive
from hyperreg.lfun.dirichlet import kronecker_character
from hyperreg.lfun.euler import euler_from_character
from hyperreg.lfun.motive import (LFunctionSpec, MotiveError, PointError, lambda_derivs,
                                  motive_L)
from hyperreg.mpnum import PrecisionPolicy

EULER_P = 400

# stdout of `hyperreg --digits 8 lfun SPEC --s S --order K`, recorded before the
# AFE sides were fused into one pass; any change in a printed byte fails here.
GOLDEN = {
    (-4, "2", 0): '{\n "label": "chi_-4",\n "order": 0,\n "s": "2",\n'
                  ' "self_test_residual": "1.08e-23",\n "value": "0.91596559"\n}\n',
    (5, "0", 1): '{\n "label": "chi_5",\n "order": 1,\n "s": "0",\n'
                 ' "self_test_residual": "3.31e-24",\n "value": "0.48121183"\n}\n',
}


def _character_spec(D):
    """L(chi_D, s): gamma factor Gamma_R(s) if chi_D is even, Gamma_R(s + 1) if odd."""
    table = euler_from_character(kronecker_character(D), EULER_P)
    return LFunctionSpec(1, 0, abs(D), (("R", Fraction(0 if D > 0 else 1)),), 1,
                         table, label=f"chi_{D}")


def _write_spec(D, directory):
    euler_path = directory / f"chi{D}.jsonl"
    euler_path.write_text(_character_spec(D).euler.to_jsonl())
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
    kernel_builds = _count_calls(monkeypatch, motive, "_Kernel")
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
    kernel_builds = _count_calls(monkeypatch, motive, "_Kernel")
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
    kernel_builds = _count_calls(monkeypatch, motive, "_Kernel")
    for order in (-1, 3):
        with pytest.raises(MotiveError):
            motive_L(_character_spec(-4), 2, order, PrecisionPolicy(8))
    assert coeff_calls == [] and kernel_builds == []


def test_lambda_derivs_needs_euler_data(monkeypatch):
    monkeypatch.setattr(motive, "_kernel_cache", {})
    kernel_builds = _count_calls(monkeypatch, motive, "_Kernel")
    spec = LFunctionSpec(1, 0, 4, (("R", Fraction(1)),), 1, None)
    with pytest.raises(MotiveError):
        lambda_derivs(spec, 2, 0, PrecisionPolicy(8))
    assert kernel_builds == []


@pytest.mark.parametrize("cutoff_A", [None, "1.2"])
def test_motive_L_builds_one_dirichlet_table(monkeypatch, cutoff_A):
    """Main path and self-test share one Dirichlet table."""
    monkeypatch.setattr(motive, "_kernel_cache", {})
    lam_calls = _count_calls(monkeypatch, motive, "lambda_derivs")
    coeff_calls = _count_calls(monkeypatch, motive, "dirichlet_coefficients")
    motive_L(_character_spec(-4), 2, 1, PrecisionPolicy(8), cutoff_A=cutoff_A)
    assert len(lam_calls) == (2 if cutoff_A is None else 3)
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
    c = ctx.mpf("0.75")
    y = ctx.mpf("0.3")
    first = motive._kernel(spec, sigmas[0], c, pol, 1)
    values = first(y)
    for sigma in sigmas[1:]:
        motive._kernel(spec, sigma, c, pol, 0)
        assert len(motive._kernel_cache) <= 2
    assert all(k is not first for k in motive._kernel_cache.values())
    rebuilt = motive._kernel(spec, sigmas[0], c, pol, 1)
    assert rebuilt is not first and rebuilt(y) == values
    # a lower-order request keeps the higher-order entry
    assert motive._kernel(spec, sigmas[0], c, pol, 0) is rebuilt
    assert len(motive._kernel_cache) <= 2


def _nodes(ker):
    """The node values of orders 0..order as mpc objects, from their raw tuples."""
    return [[ker.ctx.make_mpc((r[:4], r[4:])) for r in raw] for raw in ker._raw]


def _mpc_object_sums(ker, y):
    """The kernel sums with mpc arithmetic, the imaginary part included.

    The reference bits for `_Kernel.__call__`, which forms only the real
    part on raw tuples.  Order d's value reads only its own nodes and the
    powers they meet, so a request for orders 0..k is the first k + 1
    entries of this list.
    """
    ctx = ker.ctx
    nodes = _nodes(ker)
    lny = ctx.log(y)
    rot = ctx.expj(-ker.h * lny)
    powers = []
    r = ctx.mpc(1)
    for _ in range(max(map(len, nodes)) - 1):
        r = r * rot
        powers.append(r)
    scale = ctx.power(y, -ker.c)
    values = []
    for order_nodes in nodes:
        acc = order_nodes[0] / 2
        for g, r in zip(order_nodes[1:], powers):
            acc += g * r
        total = 2 * acc.real * ker.h / (2 * ctx.pi)
        values.append(scale * total)
    return values


QUINTIC_GAMMA = (("C", Fraction(0)), ("C", Fraction(0)))


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
def test_kernel_real_part_sum_is_bit_identical(gamma, sigma, digits):
    """Summing only the real part on raw tuples keeps every bit of the mpc loop."""
    pol = PrecisionPolicy(digits)
    ctx = pol.ctx
    sigma = ctx.mpf(sigma)
    # the line abscissa _sum_side picks for weight 0
    c = max(1 - sigma + ctx.mpf("0.75"), ctx.mpf("0.75"))
    ker = motive._Kernel(LFunctionSpec(1, 0, 1, gamma), sigma, c, pol, 2)
    # each order's node list ends at its own floor, so the lists differ in length
    assert len({len(nodes) for nodes in ker._raw}) == 3
    # the raw sum reads a zero mantissa as zero, which needs finite nodes
    assert all(ctx.isfinite(v) for nodes in _nodes(ker) for v in nodes)
    for y in ("0.05", "0.7", "1", "3.9", "40"):
        y = ctx.mpf(y)
        expected = _mpc_object_sums(ker, y)
        assert ker(y) == expected
        for order in (0, 1, 2):
            assert ker(y, order) == expected[:order + 1]


@functools.cache
def _order2_kernel():
    """The order-2 Gamma_R(s + 1) kernel of the chi_-4 mirror side at s = 2
    (sigma = -1, 8 digits): three node lists of 367, 370 and 372 nodes."""
    pol = PrecisionPolicy(8)
    ctx = pol.ctx
    return motive._Kernel(LFunctionSpec(1, 0, 4, (("R", Fraction(1)),)), ctx.mpf(-1),
                          ctx.mpf("2.75"), pol, 2)


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=10 ** 6),
       st.sampled_from([None, 0, 1, 2]))
def test_kernel_sum_is_bit_identical_at_any_y(y, order):
    """At any y, every order's value is the mpc loop's, bit for bit."""
    ker = _order2_kernel()
    y = ker.ctx.mpf(y.numerator) / y.denominator
    expected = _mpc_object_sums(ker, y)
    assert ker(y, order) == (expected if order is None else expected[:order + 1])
