from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperreg.lfun.dirichlet import (LfunError, dedekind_quadratic_deriv0,
                                     dirichlet_L, functional_equation_residual,
                                     kronecker_character, quartic_character_mod5)
from hyperreg.lfun.euler import (EulerError, EulerFactorTable, dirichlet_coefficients,
                                 euler_ingest)
from hyperreg.lfun import motive
from hyperreg.lfun.motive import (CoverageError, LFunctionSpec, MotiveError,
                                  gamma_pole_order, lambda_derivs, motive_L)
from hyperreg.lfun.web import NotFoundError, lmfdb_fetch
from hyperreg.mpnum import PrecisionPolicy, special

from eulerfile import check_multiplicativity, euler_from_character, to_jsonl

F = Fraction


def test_L_chi4_at_2(pol):
    ctx = pol.ctx
    chi4 = kronecker_character(-4)
    assert abs(dirichlet_L(chi4, 2, 0, pol) - special("catalan", pol)) < pol.tol


def test_Lprime_chi5_at_0(pol):
    ctx = pol.ctx
    chi5 = kronecker_character(5)
    assert abs(dirichlet_L(chi5, 0, 1, pol)
               - ctx.log((1 + ctx.sqrt(5)) / 2)) < pol.tol


def test_intro_chi_minus3_identity(pol):
    ctx = pol.ctx
    theta = ctx.expjpi(ctx.mpf(2) / 3)
    lhs = ctx.sqrt(3) / 9 * ctx.pi ** 2 * ctx.im(ctx.polylog(2, theta))
    rhs = ctx.zeta(2) * dirichlet_L(kronecker_character(-3), 2, 0, pol)
    assert abs(lhs - rhs) < pol.tol


def test_dedekind_values(pol):
    ctx = pol.ctx
    assert abs(dedekind_quadratic_deriv0(5, pol)
               + ctx.log((1 + ctx.sqrt(5)) / 2) / 2) < pol.tol
    assert abs(dedekind_quadratic_deriv0(21, pol)
               + ctx.log((5 + ctx.sqrt(21)) / 2) / 2) < pol.tol
    with pytest.raises(LfunError):
        dedekind_quadratic_deriv0(12 + 3, pol)       # 15 not fundamental... is it?


def test_dedekind_vanishing_check_is_exact(pol, monkeypatch):
    """L(chi_D, 0) = -(1/D) sum_a a chi_D(a), checked as an integer identity:
    a character table off by one value fails it with the exact value."""
    from hyperreg.lfun import dirichlet
    with pytest.raises(LfunError, match="need a real quadratic field"):
        dedekind_quadratic_deriv0(-4, pol)
    true = dirichlet.kronecker_symbol
    monkeypatch.setattr(dirichlet, "kronecker_symbol",
                        lambda D, a: -true(D, a) if a == 2 else true(D, a))
    with pytest.raises(LfunError, match=r"^L\(chi_21, 0\) expected to vanish, got -4/21$"):
        dedekind_quadratic_deriv0(21, pol)


def test_functional_equations_ten_characters(pol):
    ctx = pol.ctx
    s_points = [ctx.mpc("0.7", "0.3"), ctx.mpc("1.4", "-0.8")]
    chars = [kronecker_character(D) for D in (5, -4, -3, 8, -8, 12, 13, 21, -7, 77)]
    chars.append(quartic_character_mod5())
    for chi in chars:
        for s in s_points:
            res = functional_equation_residual(chi, s, pol)
            assert res < ctx.mpf(10) ** (-pol.target_digits + 5)


def test_L_at_1(pol):
    ctx = pol.ctx
    chi5 = kronecker_character(5)
    expect = 2 * ctx.log((1 + ctx.sqrt(5)) / 2) / ctx.sqrt(5)
    assert abs(dirichlet_L(chi5, 1, 0, pol) - expect) < pol.tol


def test_euler_ingest_roundtrip(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"p": 2, "factor": [1]}\n{"p": 3, "factor": [1, -1, 3]}\n')
    table = euler_ingest(path, 2)
    assert table.factors == {2: [1], 3: [1, -1, 3]}
    # the table written back as JSON lines reads back to the same text
    text = to_jsonl(table)
    path2 = tmp_path / "t2.jsonl"
    path2.write_text(text)
    assert euler_ingest(path2, 2).factors == table.factors
    assert to_jsonl(euler_ingest(path2, 2)) == text


def test_euler_ingest_errors(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"p": 2, "factor": [1, -1]}\n{"p": 3, "factor": [2, 1]}\n')
    with pytest.raises(EulerError) as err:
        euler_ingest(bad, 1)
    assert ":2:" in str(err.value)          # reports the line number
    bad2 = tmp_path / "bad2.jsonl"
    bad2.write_text("not json\n")
    with pytest.raises(EulerError) as err2:
        euler_ingest(bad2, 1)
    assert ":1:" in str(err2.value)


@pytest.mark.parametrize("line", [
    '{"p": 3.9, "factor": [1, -1]}', '{"p": 3.0, "factor": [1, -1]}',
    '{"p": true, "factor": [1]}', '{"p": "3", "factor": [1, -1]}',
    '{"p": 3, "factor": [1, 1.99]}', '{"p": 3, "factor": [1, true]}',
    '{"p": 3, "factor": [true, -1]}', '{"p": 3, "factor": [1, "-1"]}',
])
def test_euler_ingest_refuses_non_integers(tmp_path, line):
    """p and every coefficient are JSON integers: 3.9 is not read as 3, nor
    1.99 or true as 1."""
    path = tmp_path / "t.jsonl"
    path.write_text('{"p": 2, "factor": [1, -1]}\n' + line + "\n")
    with pytest.raises(EulerError, match=":2: malformed line"):
        euler_ingest(path, 1)


@pytest.mark.parametrize("factors", [
    [[3.9, [1, -1]]], [[True, [1]]], [[2, [1, 1.99]]], [[2, [1, True]]], [[2, ["1"]]],
])
def test_web_table_refuses_non_integers(tmp_path, factors):
    body = json.dumps({"data": [{"degree": 2, "euler_factors": factors}]}).encode()
    with pytest.raises(EulerError, match="malformed response"):
        lmfdb_fetch(LABEL, tmp_path, opener=_opener([], body))


def test_degree_zero_bad_factor():
    table = EulerFactorTable({2: [1]}, 4)
    assert table.p_max == 2


def test_multiplicativity_brute(fixtures_dir):
    table = euler_ingest(fixtures_dir / "euler" / "quintic_field.jsonl", 4)
    a = dirichlet_coefficients(table, 10 ** 4)
    assert a[1] == 1
    assert check_multiplicativity(a)


def test_multiplicativity_closed_under_products():
    chi = kronecker_character(-4)
    table = euler_from_character(chi, 300)
    a = dirichlet_coefficients(table, 300)
    # also a_{p^2} = a_p^2 for this totally multiplicative character
    for p in (3, 5, 7, 13):
        assert a[p * p] == a[p] ** 2


def _dirichlet_inverse_of_product(factors, M):
    """a_1..a_M of prod_p 1/f_p(p^-s): expand P = prod_p f_p(p^-s), then invert
    it under Dirichlet convolution, a_n = -sum_{d | n, d > 1} P_d a_(n/d)."""
    prod = [0] * (M + 1)
    prod[1] = 1
    for p, f in factors.items():
        local = {p ** e: c for e, c in enumerate(f) if e and p ** e <= M}
        times_f = prod[:]
        for n in range(1, M + 1):
            for q, c in local.items():
                if n * q <= M:
                    times_f[n * q] += prod[n] * c
        prod = times_f
    a = [0] * (M + 1)
    a[1] = 1
    for n in range(2, M + 1):
        a[n] = -sum(prod[d] * a[n // d] for d in range(2, n + 1) if n % d == 0)
    return a


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dirichlet_coefficients_vs_brute_force(data):
    degree = data.draw(st.integers(1, 4), label="degree")
    M = data.draw(st.integers(1, 300), label="M")
    factors = {}
    for p in (p for p in range(2, M + 1) if all(p % q for q in range(2, p))):
        if data.draw(st.booleans()):
            factors[p] = [1]            # a gap: the factor 1, no local term
            continue
        factors[p] = [1] + data.draw(st.lists(st.integers(-9, 9), max_size=degree))
    table = EulerFactorTable(factors, degree)
    assert dirichlet_coefficients(table, M) == _dirichlet_inverse_of_product(factors, M)


LABEL = "test/label/1-2-3"
# the LMFDB API shape: one row per L-function, its Euler factors as [p, factor] pairs
BODY = json.dumps({"data": [{"degree": 2,
                             "euler_factors": [[2, [1, -1]], [3, [1, 2]]]}]}).encode()


def test_gamma_pole_order():
    spec = LFunctionSpec(4, 0, 2869, (("C", F(0)), ("C", F(0))), 1, None)
    assert gamma_pole_order(spec, F(0)) == 2
    assert gamma_pole_order(spec, F(1)) == 0
    spec2 = LFunctionSpec(4, 3, 1, (("C", F(0)), ("C", F(-1))), 1, None)
    assert gamma_pole_order(spec2, F(0)) == 2       # the K4 L''(0) regime
    assert gamma_pole_order(spec2, F(1)) == 1       # the K2 L'(1) regime


# gamma data whose poles the halving table places: each factor alone, with
# shifts 0 and 1, and mixed products
POLE_GAMMAS = {
    "R0": (("R", F(0)),), "R1": (("R", F(1)),), "C0": (("C", F(0)),), "C1": (("C", F(1)),),
    "R0R1": (("R", F(0)), ("R", F(1))), "C0C0": (("C", F(0)), ("C", F(0))),
    "R0C0": (("R", F(0)), ("C", F(0))), "C0C-1R1": (("C", F(0)), ("C", F(-1)), ("R", F(1))),
    "R1/2C1/2": (("R", F(1, 2)), ("C", F(1, 2))),
}


def _gamma_by_definition(ctx, gamma, s):
    """gamma(s) from Gamma_R(x) = pi^(-x/2) Gamma(x/2), Gamma_C(x) = 2 (2 pi)^(-x) Gamma(x)."""
    val = ctx.mpf(1)
    for kind, sh in gamma:
        x = s + ctx.mpf(sh.numerator) / sh.denominator
        val *= ctx.pi ** (-x / 2) * ctx.gamma(x / 2) if kind == "R" \
            else 2 * (2 * ctx.pi) ** (-x) * ctx.gamma(x)
    return val


@pytest.mark.parametrize("gamma", POLE_GAMMAS)
@pytest.mark.parametrize("s0", range(0, -6, -1))
def test_gamma_pole_order_and_limit_by_definition(gamma, s0):
    """The pole order m and lim (s - s0)^m gamma(s) at s0 agree with
    eps^m gamma(s0 + eps), eps = 10^-25, evaluated at 60 digits: |gamma|
    grows like eps^-m, and the limit agrees to 20 digits."""
    spec = LFunctionSpec(1, 0, 1, POLE_GAMMAS[gamma])
    m = gamma_pole_order(spec, F(s0))
    pol = PrecisionPolicy(30)
    limit = motive._gamma_pole_limit(spec, pol.ctx, F(s0))
    with mpmath.workdps(60):
        eps = mpmath.mpf(10) ** -25
        near = eps ** m * _gamma_by_definition(mpmath.mp, spec.gamma_shifts, s0 + eps)
        assert round(mpmath.log10(abs(near / eps ** m)) / 25) == m
        assert abs(limit - near) < mpmath.mpf(10) ** -20 * abs(near)


def _zeta_spec(p_below):
    """zeta(s): Gamma_R(s), simple poles of Lambda at s = 1 (residue 1) and
    0 (-1), Euler factors 1 - x for the primes below p_below."""
    primes = [p for p in range(2, p_below) if all(p % q for q in range(2, p))]
    table = EulerFactorTable({p: [1, -1] for p in primes}, 1, "zeta")
    return LFunctionSpec(1, 0, 1, (("R", F(0)),), 1, table,
                         poles=((F(1), 1), (F(0), -1)), label="zeta")


@pytest.mark.slow
def test_motive_zeta(pol):
    spec = _zeta_spec(120)
    pol12 = PrecisionPolicy(14)
    val, err = motive_L(spec, 2, 0, pol12)
    assert abs(val - pol12.ctx.pi ** 2 / 6) < pol12.ctx.mpf(10) ** -12


@pytest.mark.parametrize("cutoff", [None, "1.31", 2], ids=["A=1", "A=1.31", "A=2"])
@pytest.mark.parametrize("s", [F(2), F(3), F(1, 2)], ids=["s=2", "s=3", "s=1/2"])
def test_motive_zeta_derivatives_at_any_cutoff(s, cutoff):
    """zeta, zeta' and zeta'' within 10^-12 of mpmath's at the cutoff 1: the
    pole terms of Lambda at orders 0, 1 and 2.  At a cutoff A != 1, whose
    factor A^(-eps) enters every order, Lambda, Lambda' and Lambda'' within
    10^-12 of theirs at 1."""
    pol = PrecisionPolicy(12)
    spec = _zeta_spec(400)
    if cutoff is not None:
        at_A, at_1 = lambda_derivs(spec, s, 2, pol, cutoff), lambda_derivs(spec, s, 2, pol)
        assert all(abs(x - y) < pol.ctx.mpf(10) ** -12 for x, y in zip(at_A, at_1))
        return
    for order in (0, 1, 2):
        value, _ = motive_L(spec, s, order, pol)
        with mpmath.workdps(pol.working_digits):
            expected = mpmath.zeta(mpmath.mpf(s.numerator) / s.denominator, derivative=order)
            assert abs(mpmath.mpf(value) - expected) < mpmath.mpf(10) ** -12


@pytest.mark.slow
def test_motive_chi4_and_derivatives():
    pol = PrecisionPolicy(18)
    ctx = pol.ctx
    chi4 = kronecker_character(-4)
    spec = LFunctionSpec(1, 0, 4, (("R", F(1)),), 1,
                         euler_from_character(chi4, 400), label="chi_-4")
    val, err = motive_L(spec, 2, 0, pol)
    assert abs(val - ctx.catalan) < ctx.mpf(10) ** -15
    # derivative kernels vs central finite differences
    L1, _ = motive_L(spec, 2, 1, pol)
    L2, _ = motive_L(spec, 2, 2, pol)
    h = ctx.mpf(10) ** -4
    f = lambda s: motive_L(spec, s, 0, pol)[0]
    assert abs(L1 - (f(2 + h) - f(2 - h)) / (2 * h)) < ctx.mpf(10) ** -7
    assert abs(L2 - (f(2 + h) - 2 * f(2) + f(2 - h)) / h ** 2) < ctx.mpf(10) ** -6
    # and against the independent Hurwitz route
    assert abs(L1 - dirichlet_L(chi4, 2, 1, pol)) < ctx.mpf(10) ** -15


@pytest.mark.slow
def test_motive_trivial_zero_leading(pol):
    """L'(chi_5, 0) through the gamma-pole leading-coefficient path."""
    pol18 = PrecisionPolicy(18)
    ctx = pol18.ctx
    chi5 = kronecker_character(5)
    spec = LFunctionSpec(1, 0, 5, (("R", F(0)),), 1,
                         euler_from_character(chi5, 400), label="chi_5")
    val, _ = motive_L(spec, 0, 1, pol18)
    assert abs(val - ctx.log((1 + ctx.sqrt(5)) / 2)) < ctx.mpf(10) ** -15
    with pytest.raises(MotiveError):
        motive_L(spec, 0, 0, pol18)     # order must match the pole order


@pytest.mark.slow
def test_motive_cutoff_stability():
    """Varying the smoothing cutoff changes nothing beyond the error estimate."""
    pol = PrecisionPolicy(16)
    ctx = pol.ctx
    chi4 = kronecker_character(-4)
    spec = LFunctionSpec(1, 0, 4, (("R", F(1)),), 1,
                         euler_from_character(chi4, 400))
    v1, = lambda_derivs(spec, 2, 0, pol)
    v2, = lambda_derivs(spec, 2, 0, pol, 2)
    assert abs(v1 - v2) < ctx.mpf(10) ** -14


def test_coverage_error():
    table = EulerFactorTable({2: [1, -1], 3: [1, -1], 5: [1, -1], 7: [1, -1]}, 1)
    spec = LFunctionSpec(1, 0, 10 ** 6, (("R", F(0)),), 1, table,
                         poles=((F(1), 1), (F(0), -1)))
    pol = PrecisionPolicy(20)
    with pytest.raises(CoverageError) as err:
        motive_L(spec, 2, 0, pol)
    assert err.value.required > 7


def test_web_cache_roundtrip(tmp_path):
    body = BODY
    calls = []

    def opener(url):
        calls.append(url)
        return body

    t1 = lmfdb_fetch("test/label/1-2-3", tmp_path, opener=opener)
    assert t1.factors == {2: [1, -1], 3: [1, 2]}
    assert len(calls) == 1
    # re-fetch is a cache hit: bit-identical, no second network call
    t2 = lmfdb_fetch("test/label/1-2-3", tmp_path, opener=opener)
    assert len(calls) == 1
    assert t2.factors == t1.factors
    cached = list((tmp_path / "lmfdb").glob("*.json"))
    assert any(p.read_bytes() == body for p in cached)
    # offline miss is a distinct error
    with pytest.raises(NotFoundError):
        lmfdb_fetch("missing/label", tmp_path, offline=True)




def _opener(calls, body=BODY):
    def opener(url):
        calls.append(url)
        return body
    return opener


def _cache_files(tmp_path):
    return sorted(p.name for p in (tmp_path / "lmfdb").iterdir())


def test_web_cache_torn_body_is_a_miss(tmp_path):
    calls = []
    lmfdb_fetch(LABEL, tmp_path, opener=_opener(calls))
    body_path = next(p for p in (tmp_path / "lmfdb").glob("*.json")
                     if not p.name.endswith(".meta.json"))
    body_path.write_bytes(BODY[:17])          # a write cut short
    with pytest.raises(NotFoundError):
        lmfdb_fetch(LABEL, tmp_path, offline=True)
    table = lmfdb_fetch(LABEL, tmp_path, opener=_opener(calls))
    assert len(calls) == 2
    assert table.factors == {2: [1, -1], 3: [1, 2]}
    assert body_path.read_bytes() == BODY
    assert lmfdb_fetch(LABEL, tmp_path, offline=True).factors == table.factors


def test_web_cache_writes_body_then_meta_atomically(tmp_path, monkeypatch):
    from hyperreg.lfun import euler
    moved = []
    real_replace = euler.os.replace

    def replace(src, dst):
        moved.append(Path(dst).name)
        real_replace(src, dst)

    monkeypatch.setattr(euler.os, "replace", replace)
    lmfdb_fetch(LABEL, tmp_path, opener=_opener([]))
    assert len(moved) == 2
    assert not moved[0].endswith(".meta.json") and moved[1].endswith(".meta.json")
    assert _cache_files(tmp_path) == sorted(moved)


def test_web_cache_crash_before_rename_leaves_no_entry(tmp_path, monkeypatch):
    from hyperreg.lfun import euler

    def crash(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(euler.os, "replace", crash)
    calls = []
    with pytest.raises(OSError):
        lmfdb_fetch(LABEL, tmp_path, opener=_opener(calls))
    assert _cache_files(tmp_path) == []
    monkeypatch.undo()
    lmfdb_fetch(LABEL, tmp_path, opener=_opener(calls))
    assert len(calls) == 2


def test_web_unparseable_response_is_not_cached(tmp_path):
    calls = []
    with pytest.raises(EulerError):
        lmfdb_fetch(LABEL, tmp_path, opener=_opener(calls, BODY[:17]))
    assert not (tmp_path / "lmfdb").exists() or _cache_files(tmp_path) == []
    with pytest.raises(NotFoundError):
        lmfdb_fetch(LABEL, tmp_path, offline=True)
