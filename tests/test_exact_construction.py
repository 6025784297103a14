"""Exact construction without repeated work: the one-step operator action
against the theta chain it replaced, theta, now its one-factor case, against
theta's former loop, Frobenius rows against the direct Pochhammer product,
work counts, recorded CLI output and appB's probe points."""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperreg import cli, hypergeom, ode
from hyperreg.exactnum import EX_PI, ExactNum
from hyperreg.hypergeom import HGData, ck_s, frobenius_phi, parse_hg
from hyperreg.lfun import dirichlet
from hyperreg.lfun.dirichlet import dirichlet_L, kronecker_character
from hyperreg.mpnum import PrecisionPolicy
from hyperreg.regulators import appb, hadamard, k4
from hyperreg.regulators.reporting import CaseError
from hyperreg.series import LogSeries, PowSeries, SeriesError, sp_inv, sp_mul, theta

F = Fraction
REPO = Path(__file__).resolve().parents[1]
# stdout, stderr and exit code of `hyperreg ARGV` run from the repository root,
# recorded before the operator action and the Frobenius rows were rewritten
GOLDEN = json.loads((REPO / "tests" / "golden" / "verify_ode_k4.json").read_text())


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_cli_golden(argv, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    code = cli.main(argv.split())
    out = capsys.readouterr()
    want = GOLDEN[argv]
    assert (code, out.out, out.err) == (want["exit"], want["stdout"], want["stderr"])


# --- the operator action -------------------------------------------------------

def _theta_chain(factors, f: LogSeries) -> LogSeries:
    """prod (D + c) as deg P rounds of theta, scale and add (the replaced path)."""
    out = f
    for c in factors:
        out = theta(out) + out.scale(Fraction(c))
    return out


def _outcome(fn, *args):
    """The result, or the type of the SeriesError raised: OffsetMismatch when
    the parts' exponent lattices differ."""
    try:
        return fn(*args)
    except SeriesError as exc:
        return type(exc)


def _shape(ls: LogSeries) -> list:
    return [None if p is None else (p.offset, p.K) for p in ls.parts]


_small = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
_exact = st.builds(
    lambda q, a, b: ExactNum.from_rational(q) + EX_PI * a + ExactNum.atom("alpha1", 2, b),
    _small, _small, _small)


@st.composite
def _log_series(draw, min_size=1):
    coeff = draw(st.sampled_from(("fraction", "exact")))
    values = _small if coeff == "fraction" else _exact
    values = st.one_of(st.just(0), values)            # explicit zero coefficients
    base = draw(st.sampled_from((F(0), F(1, 2), F(-1, 3), F(2, 5))))
    parts = []
    for _ in range(draw(st.integers(1, 5))):          # log depth 0..4
        if parts and draw(st.booleans()):
            parts.append(None)
            continue
        offset = base + draw(st.integers(-1, 2))
        if draw(st.integers(0, 9)) == 0:
            offset += F(1, 7)                          # a lattice no add can match
        parts.append(PowSeries(offset, draw(st.lists(values, min_size=min_size, max_size=6))))
    if parts[-1] is None:
        parts[-1] = PowSeries(base, [F(1)])
    return LogSeries(parts)


@settings(max_examples=300, deadline=None)
@given(_log_series(), st.lists(_small, min_size=1, max_size=4))
def test_one_step_action_matches_theta_chain(f, factors):
    """Same parts, windows and values; parts hold at least one coefficient,
    as every series the program builds does."""
    got = _outcome(ode._apply_shifted_chain, factors, f)
    want = _outcome(_theta_chain, factors, f)
    if isinstance(want, type):
        assert isinstance(got, type)
        return
    assert _shape(got) == _shape(want)
    assert got == want


def _theta_loop(a: LogSeries) -> LogSeries:
    """theta by its own loop (the replaced path): each part times its
    exponents, plus j times part j moved down to log power j - 1."""
    out: list = [None] * len(a.parts)
    for j, p in enumerate(a.parts):
        if p is None:
            continue
        scaled = PowSeries(p.offset, [(p.offset + k) * c for k, c in enumerate(p.coeffs)])
        out[j] = scaled if out[j] is None else out[j] + scaled
        if j >= 1:
            down = p.scale(j)
            out[j - 1] = down if out[j - 1] is None else out[j - 1] + down
    return LogSeries(out)


@settings(max_examples=300, deadline=None)
@given(_log_series(min_size=0))
@example(LogSeries([PowSeries(F(1, 2), [])]))                         # a lone empty part
@example(LogSeries([None, None, PowSeries(F(-1, 3), [])]))
@example(LogSeries([PowSeries(0, [0, F(1), 0]), PowSeries(-1, [0, 0, F(3)])]))  # zeros
@example(LogSeries([PowSeries(0, [F(1)]), PowSeries(F(1, 7), [F(2)])]))     # two lattices
@example(LogSeries([PowSeries(0, []), PowSeries(0, [F(1)])]))     # windows that miss
def test_theta_matches_the_replaced_loop(f):
    """Same parts, windows and values, and the same error where the loop raised."""
    got, want = _outcome(theta, f), _outcome(_theta_loop, f)
    if isinstance(want, type):
        assert got is want
        return
    assert _shape(got) == _shape(want)
    assert got == want


def test_theta_of_a_lone_empty_part_is_an_empty_part():
    assert _shape(theta(LogSeries([PowSeries(F(1, 2), [])]))) == [(F(1, 2), 0)]
    assert _shape(theta(LogSeries([None, PowSeries(F(2), [])]))) == [(F(2), 0), (F(2), 0)]


def test_operator_on_symbolic_E_matches_theta_chain():
    """L applied to E = alpha Phi with symbolic alpha, slot by slot."""
    h = parse_hg("1/4,1/2,1/2,3/4;1,1,1,1")
    E = hypergeom._s_series_times(hypergeom.alpha_s(h, 4, "symbolic"),
                                  hypergeom.frobenius_phi(h, 8, 4))
    for key, v in E.terms.items():
        lead = _theta_chain([bj - 1 for bj in h.b], v)
        tail = _theta_chain(list(h.a), v).shift(1)
        want = lead - tail
        got = ode.apply_operator(h, v)
        assert _shape(got) == _shape(want) and got == want, key


# --- Frobenius rows ----------------------------------------------------------

def _ck_direct(h: HGData, k: int, order: int) -> list:
    """prod_j [a_j+s]_k / prod_j [b_j+s]_k from the Pochhammer products."""
    def poch(c0):
        out = [F(1)] + [F(0)] * order
        for i in range(k):
            out = sp_mul(out, [c0 + i, F(1)], order)
        return out

    num = [F(1)] + [F(0)] * order
    for aj in h.a:
        num = sp_mul(num, poch(aj), order)
    den = [F(1)] + [F(0)] * order
    for bj in h.b:
        den = sp_mul(den, poch(bj), order)
    return sp_mul(num, sp_inv(den, order), order)


_index = st.integers(1, 12).flatmap(lambda q: st.builds(F, st.integers(1, q), st.just(q)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.lists(_index, min_size=m, max_size=m), st.lists(_index, min_size=m, max_size=m))),
    st.integers(1, 12), st.integers(0, 4))
def test_frobenius_rows_match_pochhammer_product(ab, K, order):
    h = HGData(tuple(ab[0]), tuple(ab[1]))
    direct = [_ck_direct(h, k, order) for k in range(K)]
    assert [ck_s(h, k, order) for k in range(K)] == direct
    phi = frobenius_phi(h, K, order)
    for m in range(order + 1):
        # the z^(k+s) log^0 coefficient of the s^m slot is c_k's s^m piece
        assert phi.slot(m).part(0).coeffs == [row[m] for row in direct]


def test_ck_s_rejects_negative_k():
    with pytest.raises(hypergeom.HGError):
        ck_s(parse_hg("1/2;1"), -1, 2)


# --- ExactNum times or plus a rational -----------------------------------------

@settings(max_examples=200, deadline=None)
@given(_exact, st.one_of(st.integers(-5, 5), _small))
def test_exactnum_rational_fast_path_gives_generic_terms(x, q):
    generic = ExactNum.from_rational(q)
    for got, want in ((x * q, x * generic), (q * x, x * generic),
                      (x + q, x + generic), (q + x, x + generic)):
        assert list(got.terms.items()) == list(want.terms.items())


# --- work counts ---------------------------------------------------------------

def test_residual_frobenius_builds_phi_once(monkeypatch):
    calls = []
    real = hypergeom.frobenius_phi

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hypergeom, "frobenius_phi", counted)
    monkeypatch.setattr(ode, "frobenius_phi", counted)
    rep = ode.residual_frobenius(parse_hg("1/2,1/2,1/2,1/2;1,1,1,1"), 4, 12)
    assert rep.exact_zero
    assert len(calls) == 1


def test_k4_floats_entries_once_per_K_and_precision(monkeypatch):
    k4._entries_checked.cache_clear()
    k4._built.clear()
    floats = _count_calls(monkeypatch, LogSeries, "to_floating")
    pol = PrecisionPolicy(20)
    t = k4.T_POINTS[3]
    first = k4.k4_det(t, pol).r_value
    assert len(floats) == 8                  # 4 entries at K and at 2K (doubled precision)
    assert k4.k4_det(t, pol).r_value == first
    assert k4.k4_det(t, PrecisionPolicy(20)).r_value == first
    assert len(floats) == 8
    k4.k4_det(t, PrecisionPolicy(24))        # another precision, another K
    assert len(floats) == 16


@pytest.mark.parametrize("digits", [20, 30])
@pytest.mark.parametrize("n", [7, 11, 15, 17, 19, 21, 23])
def test_cy0_log_sine_sum_matches_the_hurwitz_route(n, digits, monkeypatch):
    """zeta_K'(0) by the log-sine sum: no Hurwitz zeta, no character table,
    and within 10^-(digits+10) of -L'(chi_D, 0)/2 by the Hurwitz route."""
    pol = PrecisionPolicy(digits)
    D = n * (n - 4)
    want = -dirichlet_L(kronecker_character(D), 0, 1, pol) / 2
    hurwitz = _count_calls(monkeypatch, dirichlet, "hurwitz_zeta")
    zetas = _count_calls(monkeypatch, pol.ctx, "zeta")
    tables = _count_calls(monkeypatch, dirichlet.DirichletChar, "__new__")
    got = dirichlet.dedekind_quadratic_deriv0(D, pol)
    assert hurwitz == zetas == tables == []
    assert abs(got - want) < pol.ctx.mpf(10) ** -(digits + 10)


# --- appB's finite-difference probe --------------------------------------------

_PROBE_EDGES = ("1/1000000000", "1/100000000", str(appb.T_SUP - F(1, 10 ** 9)),
                str(appb.T_SUP - F(1, 10 ** 8)))


@pytest.mark.parametrize("t", _PROBE_EDGES)
def test_appB_probe_step_points_are_usage_errors(t, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    sums = _count_calls(monkeypatch, appb, "column_sums")
    assert cli.main(["regulator", "--case", "appB", "--t", t]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: t = {t} is within the finite-difference probe step 10^-8")
    with pytest.raises(CaseError, match="probe step"):
        appb.appB_det(F(t), PrecisionPolicy(20))
    assert sums == []


def test_binomial_and_harmonic_lists_match_the_chained_loops():
    """math.comb and accumulate give the lists the chained loops built."""
    K = 80
    b, b2, b4, H, H2 = 1, [1], [1], [F(0)], [F(0)]
    for k in range(1, K + 1):
        b = b * 2 * (2 * k - 1) // k
        b2.append(b ** 2)
        b4.append(b ** 4)
        H.append(H[-1] + F(1, k))
        H2.append(H2[-1] + F(1, k * k))
    assert k4.binom4_list(K) == b4 and hadamard._binom2_list(K) == b2
    assert k4.harmonic(K) == H and k4.harmonic2(K) == H2
