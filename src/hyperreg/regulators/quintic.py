"""Rank-2 number-field regulators from Puiseux-type hypergeometric series.

For index data (a, b) define
    G(s)   = prod_i Gamma(s - a_i + 1)^-1 * prod_i Gamma(-s + b_i)^-1,
    S_Aj(t) = sum_l G(l + a_j) (lam t)^(l + a_j) / (l + a_j),
    S_n(t) = (1/G(0)) sum_j e(n a_j) S_Aj(t),
with lam = exp(sum psi(a_i) - sum psi(b_i)) = 1/C, C the exact rational
scale of the data.  Exponentials of suitable S_n are roots of quintic
polynomials; their logs assemble the rank-2 regulator determinant.

Each column j forms G(a_j) once (`column_sums`), and each sum requested
of it (several t, weight 1/(l + a_j) or 1/t) is summed by `ratio_sum` from
its first term G(a_j) (lam t)^a_j / a_j or / t and its exact ratio, in
which G(s+1)/G(s) = prod_i (b_i - s - 1) / (s + 1 - a_i).  The branches n
only recombine the column values with their phases, so each (data, t, j)
column is summed once per determinant.
"""

from __future__ import annotations

from fractions import Fraction

from ..hgdata import HGData, parse_hg, scale_C
from ..mpnum import PrecisionPolicy, ratio_sum
from .reporting import CaseError, RegulatorMatrix, RegulatorReport

DATA_J0 = parse_hg("1/10,3/10,7/10,9/10;1/4,1/2,3/4,1")
DATA_J1 = parse_hg("1/5,2/5,3/5,4/5;1/4,1/2,3/4,1")
T = Fraction(1)         # the point of the quintic case


def gamma_big(h: HGData, s, pol: PrecisionPolicy):
    """G(s) = prod Gamma(s - a_i + 1)^-1 prod Gamma(-s + b_i)^-1."""
    ctx = pol.ctx
    val = ctx.mpf(1)
    for ai in h.a:
        val /= ctx.gamma(s - ctx.mpf(ai.numerator) / ai.denominator + 1)
    for bi in h.b:
        val /= ctx.gamma(-s + ctx.mpf(bi.numerator) / bi.denominator)
    return val


def column_sums(h: HGData, j: int, requests, pol: PrecisionPolicy) -> list:
    """The sums of column j, one per (t, derivative) request, in request order.

    Request (t, False) is S_Aj(t); (t, True) is its t-derivative
    sum_l G(l + a_j) (lam t)^(l + a_j) / t.  G(a_j) is formed once for the
    column; each request is summed by `ratio_sum` from its first term and
    its exact ratio, with a stop relative to its sum.  Every request is
    checked before any is summed.
    """
    ctx = pol.ctx
    C = scale_C(h)
    aj = h.a[j]
    a_mp = ctx.mpf(aj.numerator) / aj.denominator
    g0 = gamma_big(h, a_mp, pol)
    jobs = []
    for t, derivative in requests:
        lam_t = Fraction(t, 1) / C
        if not (0 < lam_t < 1):
            raise CaseError(f"series for S_A diverges at t = {t} (lam t = {lam_t})")
        # t_(l+1) / t_l = (-1)^m lam_t prod_i (s + 1 - b_i) / (s + 1 - a_i) at
        # s = l + a_j, times (l + a_j) / (l + a_j + 1) for the weight 1 / (l + a_j)
        wt = () if derivative else (aj,)
        ratio = ((-1) ** h.m * lam_t, tuple(aj + 1 - bi for bi in h.b) + wt,
                 tuple(aj + 1 - ai for ai in h.a) + tuple(a + 1 for a in wt))
        w = ctx.mpf(t.numerator) / t.denominator if derivative else a_mp
        first = g0 * ctx.power(ctx.mpf(lam_t.numerator) / lam_t.denominator, a_mp) / w
        jobs.append((first, ratio, "S_A'" if derivative else "S_A"))
    return [ratio_sum(first, ratio, pol, name, relative=True)[0] for first, ratio, name in jobs]


def S_A(h: HGData, j: int, t: Fraction, pol: PrecisionPolicy):
    """S_{A_j}(t), converging for |t| < C (ratio lam*t = t/C)."""
    return column_sums(h, j, ((t, False),), pol)[0]


def S_n(h: HGData, n: int, cols: list, pol: PrecisionPolicy):
    """S_n = (1/G(0)) sum_j e(n a_j) S_Aj from the column values S_Aj."""
    ctx = pol.ctx
    g0 = gamma_big(h, ctx.mpf(0), pol)
    acc = ctx.mpc(0)
    for aj, col in zip(h.a, cols):
        phase = ctx.expjpi(2 * n * ctx.mpf(aj.numerator) / aj.denominator)
        acc += phase * col
    return acc / g0


def _columns(t: Fraction, pol: PrecisionPolicy):
    """The S_Aj columns of the J0 data at 256 t^2 and of the J1 data at t^2."""
    return ([S_A(DATA_J0, j, 256 * t * t, pol) for j in range(DATA_J0.m)],
            [S_A(DATA_J1, j, t * t, pol) for j in range(DATA_J1.m)])


def _exponentials(c0: list, c1: list, pol: PrecisionPolicy):
    """exp(S0_n / 5) and exp(S1_n) for the branches n = 1..4."""
    ctx = pol.ctx
    return ([ctx.exp(S_n(DATA_J0, n, c0, pol) / 5) for n in range(1, 5)],
            [ctx.exp(S_n(DATA_J1, n, c1, pol)) for n in range(1, 5)])


def _poly_J1(x, t, ctx):
    return (x - 1) ** 5 - t ** 2 * x


def _poly_J0(X, t, ctx):
    return (X - 1) ** 5 + 16 * t * (X ** 3 + X ** 2)


def _roots_residuals(x0: list, x1: list, t: Fraction, pol: PrecisionPolicy):
    ctx = pol.ctx
    tv = ctx.mpf(t.numerator) / t.denominator
    best0 = best1 = None
    for n in range(1, 5):
        r1 = abs(_poly_J1(x1[n - 1], tv, ctx))
        if best1 is None or r1 < best1[0]:
            best1 = (r1, n)
        r0 = abs(_poly_J0(x0[n - 1], tv * tv, ctx))
        if best0 is None or r0 < best0[0]:
            best0 = (r0, n)
    return best0[0], best1[0], best0[1], best1[1]


def _intertwining(x0: list, x1: list, t: Fraction, pol: PrecisionPolicy):
    ctx = pol.ctx
    tv = ctx.mpf(t.numerator) / t.denominator
    best = None
    for n in range(1, 5):
        phi = -((x1[n - 1] - 1) ** 3 - tv * x1[n - 1] + tv / 2) * 2 / tv
        for n0 in range(1, 5):
            r = abs(phi - x0[n0 - 1])
            if best is None or r < best[0]:
                best = (r, n, n0)
    return best


def quintic_roots_residuals(pol: PrecisionPolicy):
    """Residuals of the Puiseux exponentials in their quintics at t = 1,
    minimized over the branch index n; returns (res0, res1, branch0, branch1)."""
    return _roots_residuals(*_exponentials(*_columns(T, pol), pol), T, pol)


def quintic_intertwining(pol: PrecisionPolicy):
    """phi(exp(S1(t^2))) = exp(S0(256 t^2)/5) at t = 1 with
    phi(x) = -((x-1)^3 - t x + t/2) * 2/t; residual minimized over branches."""
    return _intertwining(*_exponentials(*_columns(T, pol), pol), T, pol)


def quintic_det(pol: PrecisionPolicy) -> RegulatorReport:
    """(25/2) det Re [[S0_1(256), S1_1(1)], [S0_3(256), S1_3(1)]]."""
    ctx = pol.ctx
    c0, c1 = _columns(T, pol)
    m = RegulatorMatrix([[ctx.re(S_n(DATA_J0, n, c0, pol)), ctx.re(S_n(DATA_J1, n, c1, pol))]
                         for n in (1, 3)])
    val = ctx.mpf(25) / 2 * m.det()
    rep = RegulatorReport("quintic", None, val)
    x0, x1 = _exponentials(c0, c1, pol)
    res0, res1, b0, b1 = _roots_residuals(x0, x1, T, pol)
    rep.check("puiseux_root_residual_J0", res0, pol)
    rep.check("puiseux_root_residual_J1", res1, pol)
    inter = _intertwining(x0, x1, T, pol)
    rep.check("phi_intertwining_residual", inter[0], pol)
    rep.notes.append(f"branch assignment: roots (n0={b0}, n1={b1}), "
                     f"intertwining pair {inter[1:]} chosen by minimal residual")
    return rep
