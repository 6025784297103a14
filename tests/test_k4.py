from __future__ import annotations

from fractions import Fraction

import pytest

from hyperreg.exactnum import ExactNum, ex_zeta2, two_pi_i_pow
from hyperreg.regulators.hadamard import (hadamard_regulator, k4_engine,
                                          k4_expected, k2_r0_engine,
                                          k2_r0_expected, _pure_tate_shift)
from hyperreg.regulators.k4 import (G_list, T_POINTS, _gp_from, log_primitive_series,
                                    sqrt_primitive_inner, frobenius_generator,
                                    k4_det, k4_entries)
from hyperreg.regulators.reporting import CaseError
from hyperreg.series import LogSeries, theta

F = Fraction


def test_harmonic_atoms():
    G = G_list(2)
    assert G[1] == F(1, 2)
    Gp = _gp_from(G)
    assert Gp[1] == ExactNum.from_rational(F(1, 2)) + ex_zeta2()


def test_log_primitive_coefficients():
    ls = log_primitive_series(3)
    assert ls.part(0).coeffs[1] == 16          # binom(2,1)^4 / 1
    assert ls.part(0).coeffs[2] == 648         # 6^4 / 2
    assert ls.part(1).coeffs[0] == 1           # the log t slot


def test_dual_path_K40():
    k4_entries(40)


def test_frobenius_rm1_slot():
    M = frobenius_generator(8, 2, F(0))
    assert M.slot(-1) == LogSeries.constant(F(1), 9)


def generator_derivative_identity(K: int) -> bool:
    """D applied to the deformed antiderivative reproduces the deformed
    period slotwise: theta of sum binom^4(s) t^(k+s)/(k+s) equals
    sum binom^4(s) t^(k+s) in every retained (s, log) slot."""
    M = frobenius_generator(K, 2, F(0))
    E = frobenius_generator(K, 2, None)
    for m in range(-1, 3):
        if not (theta(M.slot(m)) == E.slot(m)):
            return False
    return True


def test_generator_derivative_identity():
    assert generator_derivative_identity(10)


def test_theta_ladder():
    K = 10
    per_coeffs = log_primitive_series(K)
    from hyperreg.regulators.k4 import binom4_list
    from hyperreg.series import PowSeries
    per = LogSeries([PowSeries(0, [F(b) for b in binom4_list(K)])])
    assert theta(log_primitive_series(K)) == per
    inner = sqrt_primitive_inner(K)
    assert theta(inner) + inner.scale(F(1, 2)) == per


def test_det_values_and_stability(pol):
    ctx = pol.ctx
    rep = k4_det(T_POINTS[0], pol)
    assert rep.crosschecks[0][1] < ctx.mpf(10) ** -25
    # interval guard
    from hyperreg.regulators.reporting import CaseError
    with pytest.raises(CaseError):
        k4_det(F(1, 100), pol)


def test_det_vs_direct_summation(pol):
    """Freeze-check r(4^-5) against a fully independent direct evaluation."""
    ctx = pol.ctx
    t = T_POINTS[0]
    tv = ctx.mpf(t.numerator) / t.denominator
    # brute force: sum the four series termwise with floating harmonic numbers
    K = 90
    H = [ctx.mpf(0)]
    for j in range(1, 2 * K + 1):
        H.append(H[-1] + ctx.mpf(1) / j)
    H2 = [ctx.mpf(0)]
    for j in range(1, 2 * K + 1):
        H2.append(H2[-1] + ctx.mpf(1) / j ** 2)
    z2 = ctx.pi ** 2 / 6
    b = 1
    B = [1]
    for k in range(1, K + 1):
        b = b * 2 * (2 * k - 1) // k
        B.append(b ** 4)
    lt = ctx.log(tv)
    o_lp = lt
    o_sp = ctx.mpf(0)
    o_sd = ctx.mpf(0)
    o_ld = -8 * ctx.zeta(3) + (4 * z2) * lt + lt ** 3 / 6
    for k in range(K + 1):
        tk = tv ** k
        G = H[2 * k] - H[k]
        Gp = 8 * G ** 2 - 2 * H2[2 * k] + H2[k] + z2
        kh = k + ctx.mpf(1) / 2
        o_sp += B[k] / kh * tk
        o_sd += B[k] * tk * ((4 * Gp * kh * kh - 8 * G * kh + 1) / kh ** 3
                            + (8 * G * kh - 1) / kh ** 2 * lt + lt ** 2 / (2 * kh))
        if k > 0:
            o_lp += ctx.mpf(B[k]) / k * tk
            o_ld += B[k] * tk * ((4 * Gp * k * k - 8 * G * k + 1) / ctx.mpf(k) ** 3
                                + (8 * G * k - 1) / ctx.mpf(k) ** 2 * lt
                                + lt ** 2 / (2 * k))
    sq = ctx.sqrt(tv)
    pref = -1 / (4 * ctx.pi ** 2)
    direct = (sq * o_sp) * (pref * o_ld) - (sq * pref * o_sd) * o_lp
    rep = k4_det(t, pol)
    assert abs(rep.r_value - direct) < ctx.mpf(10) ** -25


def test_hadamard_k4_engine():
    out = hadamard_regulator("k4", 20)
    assert out == k4_expected(20)
    assert _pure_tate_shift(k4_engine(8) - k4_expected(8)) == 1


def test_tate_shift_compares_every_slot(monkeypatch):
    """The k4 constant slot may differ by q (2 pi i)^3 pi i = 8 q pi^4, and
    no other slot may differ at all."""
    from hyperreg.regulators import hadamard
    from hyperreg.series import PowSeries
    unit = two_pi_i_pow(3) * ExactNum.atom("pi") * ExactNum.atom("i")
    assert unit == ExactNum.atom("pi", 4, 8)
    assert _pure_tate_shift(LogSeries([PowSeries(0, [unit * 2, 0])])) == 2
    assert _pure_tate_shift(LogSeries([PowSeries(0, [0, 0])])) == 0
    assert _pure_tate_shift(LogSeries([PowSeries(0, [unit / 2])])) is None
    assert _pure_tate_shift(LogSeries([PowSeries(0, [unit, F(1, 3)])])) is None
    assert _pure_tate_shift(LogSeries([PowSeries(0, [unit]),
                                       PowSeries(0, [F(0), F(1)])])) is None
    assert _pure_tate_shift(LogSeries([PowSeries(0, [unit + 1])])) is None

    def stray(K):
        return k4_engine(K) + LogSeries([PowSeries(0, [F(0), F(1)] + [F(0)] * (K - 1))])

    monkeypatch.setattr(hadamard, "k4_engine", stray)
    with pytest.raises(CaseError):
        hadamard_regulator("k4", 8)


def test_hadamard_vs_o_lp(pol):
    """The engine output is (2 pi i)^3 (pi i + o_lp) coefficientwise."""
    K = 12
    out = hadamard_regulator("k4", K)
    pi_i = ExactNum.atom("pi") * ExactNum.atom("i")
    target = (log_primitive_series(K) + LogSeries.constant(pi_i, K + 1)).scale(two_pi_i_pow(3))
    assert out == target


def test_k2_r0_engine():
    out = k2_r0_engine(10)
    assert out == k2_r0_expected(10)
    c = out.parts[0].coeffs
    assert c[1] == two_pi_i_pow(3) * 16
    assert c[3] == two_pi_i_pow(3) * 16 * (-16)


def test_entries_cache_hands_out_copies():
    """Mutating what k4_entries returns leaves later calls untouched."""
    from hyperreg.regulators import k4
    first = k4_entries(12)
    first["log_primitive"].parts[0].coeffs[1] = F(0)
    first["sqrt_deformed_inner"].parts[0].coeffs[0].terms.clear()
    first["log_deformed_inner"].parts.pop()
    again = k4_entries(12)
    assert again == k4._build_entries(12)
    assert again["log_primitive"].part(0).coeffs[1] == 16


def test_failed_check_is_not_cached(monkeypatch):
    """A failing dual-path check raises on every call and poisons nothing."""
    from hyperreg.regulators import k4
    from hyperreg.regulators.reporting import CaseError
    k4._entries_checked.cache_clear()
    k4._built.clear()
    monkeypatch.setattr(k4, "log_primitive_series",
                        lambda K: LogSeries.constant(F(0), K + 1))
    for _ in range(2):
        with pytest.raises(CaseError, match="dual-path"):
            k4_entries(6)
    monkeypatch.undo()
    k4._built.clear()                         # it holds the broken build
    assert k4_entries(6)["log_primitive"] == log_primitive_series(6)


def test_dual_path_reads_hypergeom_rows(monkeypatch):
    """The Frobenius side of the check is built from hypergeom's c_k(s)
    rows: one corrupted row makes the dual-path check fail."""
    from hyperreg import hypergeom
    from hyperreg.regulators import k4
    from hyperreg.regulators.reporting import CaseError
    real = hypergeom._ck_rows

    def corrupted(*args):
        rows = real(*args)
        rows[3][0] += 1
        return rows

    monkeypatch.setattr(hypergeom, "_ck_rows", corrupted)
    k4._entries_checked.cache_clear()
    k4._built.clear()
    with pytest.raises(CaseError, match="dual-path"):
        k4_entries(8)


def test_det_builds_entries_once_per_K(pol, monkeypatch):
    from hyperreg.regulators import k4
    k4._entries_checked.cache_clear()
    k4._built.clear()
    builds = []
    real = k4.log_primitive_series
    monkeypatch.setattr(k4, "log_primitive_series", lambda K: builds.append(K) or real(K))
    t = T_POINTS[3]
    first = k4_det(t, pol).r_value
    assert len(builds) == 2 and builds[1] == 2 * builds[0]
    assert k4_det(t, pol).r_value == first
    assert len(builds) == 2


@pytest.mark.parametrize("K", [32, 53, 99])
def test_entries_of_K_are_a_prefix_of_2K(K):
    """Each coefficient depends on k alone, so the entries of K are the first
    K + 1 coefficients of those of 2K: a smaller K can be served from a
    larger build."""
    from hyperreg.regulators import k4
    small, large = k4._build_entries(K), k4._build_entries(2 * K).prefix(K)
    for name, ls in small.items():
        assert [p.coeffs for p in ls.parts] == [p.coeffs for p in large[name].parts]
        assert [p.offset for p in ls.parts] == [p.offset for p in large[name].parts]


def test_point_list_builds_and_floats_the_largest_K_once(monkeypatch):
    """A four-point list at 30 digits (K = 99, 53, 38, 32 and their doubles)
    builds the entries of 99 and 198 only, and converts each exact
    coefficient at most once per precision."""
    from hyperreg import series
    from hyperreg.mpnum import PrecisionPolicy
    from hyperreg.regulators import k4
    k4._entries_checked.cache_clear()
    k4._built.clear()
    builds, floats = [], {}
    real_build, real_to_mp = k4.log_primitive_series, series._to_mp
    monkeypatch.setattr(k4, "log_primitive_series", lambda K: builds.append(K) or real_build(K))

    def counted(c, ctx):
        if not isinstance(c, ctx.mpf):
            floats[ctx.prec] = floats.get(ctx.prec, 0) + 1
        return real_to_mp(c, ctx)

    monkeypatch.setattr(series, "_to_mp", counted)
    pol = PrecisionPolicy(30)
    first = [k4_det(t, pol).r_value for t in T_POINTS]
    assert builds == [99, 198]
    # 10 parts over the four entries: 2 + 1 + 3 + 4
    assert floats == {pol.ctx.prec: 10 * 100, pol.doubled().ctx.prec: 10 * 199}
    assert [k4_det(t, pol).r_value for t in T_POINTS] == first
    assert builds == [99, 198] and sum(floats.values()) == 10 * 299
