from __future__ import annotations

from fractions import Fraction

import pytest

from hyperreg.lfun.ratio import ratio_report
from hyperreg.mpnum import PrecisionPolicy
from hyperreg.regulators import k2
from hyperreg.regulators.reporting import CaseError

F = Fraction


def test_gamma_half_zero(pol):
    ctx = pol.ctx
    g = k2.gamma_alpha0(F(1, 2), pol)
    assert abs(g - 2 * ctx.sqrt(2) * ctx.pi) < pol.tol


def test_S_at_infinity(pol):
    """S_alpha(z) -> Gamma^alpha_0 as z -> infinity (k = 0 term only)."""
    ctx = pol.ctx
    for alpha in (F(1, 4), F(1, 2), F(3, 4)):
        big = ctx.mpf(10) ** 18
        assert abs(k2._stream_sums(alpha, big, pol, "S")[0] - k2.gamma_alpha0(alpha, pol)) \
            < ctx.mpf(10) ** -15


def test_theta_ladder_exact():
    assert k2.theta_ladder_residual(24) == 0


def test_entries_real(pol):
    ctx = pol.ctx
    mat = k2.k2_entries(ctx.mpf(1024), pol)
    for row in mat.entries:
        for e in row:
            assert getattr(e, "imag", 0) == 0 or abs(ctx.im(e)) < pol.tol


def test_mb_three_way(pol):
    ctx = pol.ctx
    tol15 = ctx.mpf(10) ** -15
    for z in ("0.5", "0.9"):
        dev, _ = k2.mb_compare(ctx.mpf(z), pol)
        assert dev < tol15, z
    for z in ("1.2", "2", "10"):
        dev, q = k2.mb_compare(ctx.mpf(z), pol)
        assert q is not None and dev < tol15, z


def test_mb_right_leading_term(pol):
    """n = 0 term of the right series is 2 sqrt(z)."""
    ctx = pol.ctx
    z = ctx.mpf(10) ** -24
    val = k2.mb_right_series(z, pol)
    assert abs(val - 2 * ctx.sqrt(z)) < ctx.mpf(10) ** -30


def test_dtilde_harmonic_atom():
    """D~ bracket at k = 1: 4 H_5 - 10 H_2 + 6 H_1 + 1/1 = 137/15 - 8 = 17/15."""
    H = [F(0)]
    for j in range(1, 6):
        H.append(H[-1] + F(1, j))
    assert 4 * H[5] == F(137, 15)
    val = 4 * H[5] - 10 * H[2] + 6 * H[1] + F(1, 1)
    assert val == F(17, 15)


def test_monodromy_chain_reality(pol):
    ctx = pol.ctx
    R1, R2, R3, R4 = k2.k2_monodromy_chain(ctx.mpf(1024), pol)
    assert abs(ctx.im(R1)) < pol.tol
    assert abs(ctx.im(R4)) < pol.tol


def test_monodromy_rotation(pol):
    """Once-around substitution: R4 -> R3 and R3 -> -R4."""
    ctx = pol.ctx
    zv = ctx.mpf(1024)
    _, _, R3, R4 = k2.k2_monodromy_chain(zv, pol)
    At = k2._stream_sums(F(1, 4), zv, pol, "R", alternating=True)[0]
    Bt = k2._stream_sums(F(3, 4), zv, pol, "R", alternating=True)[0]
    i = ctx.mpc(0, 1)
    z14 = zv ** ctx.mpf("0.25")
    R4_rot = 4 * ctx.pi * At * (i * z14) + 4 * ctx.pi * Bt * (-i / z14)
    assert abs(R4_rot - R3) < pol.tol * max(1, abs(R3))
    R3_rot = 4 * ctx.pi * i * At * (i * z14) - 4 * ctx.pi * i * Bt * (-i / z14)
    assert abs(R3_rot + R4) < pol.tol * max(1, abs(R4))


def test_chain_vs_entries(pol):
    dev = k2.chain_vs_entries(pol.ctx.mpf(1024), pol)
    assert dev < 100 * pol.tol


def test_det_continuity(pol):
    ctx = pol.ctx
    zv = ctx.mpf(1024)
    r1 = k2.k2_entries(zv, pol).det()
    r2 = k2.k2_entries(zv * (1 + ctx.mpf(10) ** -8), pol).det()
    assert abs(r1 - r2) < ctx.mpf(10) ** -6


def test_integral_model_points():
    # o = 41: (2^41 + 1)^2 / 4^41, past any fixed count of multiplications by 4
    for t in (F(1, 16), F(1, 4), F(1), F(9), F(25), F(49), F(4, 1), F(9, 4),
              F((2 ** 41 + 1) ** 2, 4 ** 41)):
        assert k2.integral_model_point(t), t
    for t in (F(2), F(3), F(5, 4), F(1, 2)):
        assert not k2.integral_model_point(t), t


def test_k2_det_reports(pol, fixtures_dir):
    """k2_det carries no expected ratio; ratio_report reads t = 9's from the fixture."""
    rep = k2.k2_det(F(9), pol)
    assert rep.expected_ratio is None
    assert rep.r_value > 0
    assert ratio_report("k2", F(9), pol, fixtures_dir).expected_ratio == F(3)
    rep2 = k2.k2_det(F(2), pol)
    assert any("not of the form" in n for n in rep2.notes)
    with pytest.raises(CaseError):
        k2.k2_det(F(1, 2048), pol)


# The three summation loops k2 had before they became one pass, kept as the
# reference the one pass must match bit for bit.

def _ref_gamma_ratios_rel(alpha, K):
    out = [F(1)]
    for k in range(K):
        num = (alpha + k) ** 4
        den = F(1)
        for ai in k2.A4:
            den *= alpha + k + ai
        out.append(out[-1] * (num / den))
    return out


def _ref_S_alpha(alpha, z, pol):
    ctx = pol.ctx
    K = k2._suggest_K(z, pol)
    rel = _ref_gamma_ratios_rel(alpha, K)
    g0 = k2.gamma_alpha0(alpha, pol)
    zin = 1 / ctx.convert(z)
    acc = ctx.mpf(0)
    zp = ctx.mpf(1)
    for k in range(K + 1):
        c = rel[k]
        acc += ctx.mpf(c.numerator) / c.denominator * zp
        zp *= zin
    return g0 * acc


def _ref_R_alpha(alpha, z, pol):
    ctx = pol.ctx
    K = k2._suggest_K(z, pol)
    rel = _ref_gamma_ratios_rel(alpha, K)
    g0 = k2.gamma_alpha0(alpha, pol)
    zin = 1 / ctx.convert(z)
    acc = ctx.mpf(0)
    zp = ctx.mpf(1)
    start = 1 if alpha == F(1, 2) else 0
    for k in range(K + 1):
        if k >= start:
            c = rel[k] / (k - F(1, 2) + alpha)
            acc += ctx.mpf(c.numerator) / c.denominator * zp
        zp *= zin
    return g0 * acc


def _ref_tilde_series(alpha, z, pol, harmonic_factor=False):
    ctx = pol.ctx
    K = k2._suggest_K(z, pol)
    rel = _ref_gamma_ratios_rel(alpha, K)
    g0 = k2.gamma_alpha0(alpha, pol)
    zin = 1 / ctx.convert(z)
    acc = ctx.mpf(0)
    zp = ctx.mpf(1)
    H = [F(0)]
    for j in range(1, 4 * K + 2):
        H.append(H[-1] + F(1, j))
    for k in range(K + 1):
        if harmonic_factor:
            if k == 0:
                zp *= zin
                continue
            c = rel[k] * (4 * H[4 * k + 1] - 10 * H[2 * k] + 6 * H[k] + F(1, k)) / k
        else:
            if k == 0 and alpha == F(1, 2):
                zp *= zin
                continue
            c = rel[k] / (k + alpha - F(1, 2))
        c = (-1) ** k * c
        acc += ctx.mpf(c.numerator) / c.denominator * zp
        zp *= zin
    return g0 * acc


@pytest.mark.parametrize("digits", [15, 30])
@pytest.mark.parametrize("z", ["1.2", "2", "10", "1024"])
def test_stream_sums_match_the_separate_loops(digits, z):
    pol = PrecisionPolicy(digits)
    zv = pol.ctx.mpf(z)
    for alpha in (F(1, 4), F(1, 2), F(3, 4)):
        assert k2._stream_sums(alpha, zv, pol, "S")[0] == _ref_S_alpha(alpha, zv, pol)
        assert k2._stream_sums(alpha, zv, pol, "R")[0] == _ref_R_alpha(alpha, zv, pol)
        for harmonic in (False, True):
            assert k2._stream_sums(alpha, zv, pol, "D" if harmonic else "R",
                                   alternating=True)[0] \
                == _ref_tilde_series(alpha, zv, pol, harmonic_factor=harmonic)


def _count_gamma_alpha0(monkeypatch):
    calls = []
    real = k2.gamma_alpha0

    def counting(alpha, pol):
        calls.append(alpha)
        return real(alpha, pol)

    monkeypatch.setattr(k2, "gamma_alpha0", counting)
    return calls


def test_one_pass_per_stream(monkeypatch, pol):
    """k2_entries, the left assembly and the monodromy chain sum each
    Gamma^alpha stream once."""
    calls = _count_gamma_alpha0(monkeypatch)
    for run in (k2.k2_entries, k2.mb_left_assembly, k2.k2_monodromy_chain):
        calls.clear()
        run(pol.ctx.mpf(2), pol)
        assert sorted(calls) == [F(1, 4), F(1, 2), F(3, 4)], run.__name__


def _ref_chain_vs_entries(z, pol):
    """chain_vs_entries as it was, with its own three R_alpha passes."""
    ctx = pol.ctx
    zv = ctx.convert(z)
    mat = k2.k2_entries(zv, pol)
    log4z = ctx.log(4 * zv)
    sq2 = ctx.sqrt(ctx.mpf(2))
    R1_tw = -16 * sq2 * ctx.pi * k2._stream_sums(F(1, 2), zv, pol, "R")[0] \
        + 64 * ctx.pi ** 2 * (log4z + 4)
    dev1 = abs(mat.entries[0][0] - ctx.re(-(R1_tw / (2 * ctx.pi * ctx.mpc(0, 1)) ** 2) / 4))
    z14 = zv ** ctx.mpf("0.25")
    R4_tw = 4 * ctx.pi * k2._stream_sums(F(1, 4), zv, pol, "R")[0] * z14 \
        + 4 * ctx.pi * k2._stream_sums(F(3, 4), zv, pol, "R")[0] / z14
    dev2 = abs(mat.entries[1][0] - ctx.re((R4_tw / (2 * ctx.pi * ctx.mpc(0, 1)) ** 2) / 4))
    return max(dev1, dev2)


@pytest.mark.parametrize("digits, z", [(30, 1024), (20, 2), (50, 49 * 1024)])
def test_chain_vs_entries_reuses_the_matrix_sums(monkeypatch, digits, z):
    """3 Gamma^alpha passes, not 6, and the deviation keeps its bits."""
    pol = PrecisionPolicy(digits)
    zv = pol.ctx.mpf(z)
    want = _ref_chain_vs_entries(zv, pol)
    calls = _count_gamma_alpha0(monkeypatch)
    assert k2.chain_vs_entries(zv, pol) == want
    assert len(calls) == 3


@pytest.mark.parametrize("alpha", (F(1, 4), F(1, 2), F(3, 4)))
def test_gamma_ratios_rel_matches_fraction_loop(alpha):
    for K in (0, 1, 60):
        assert k2.gamma_ratios_rel(alpha, K) == _ref_gamma_ratios_rel(alpha, K)
