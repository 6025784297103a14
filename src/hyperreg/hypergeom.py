"""Hypergeometric data and the Frobenius deformation machinery.

Everything here is exact: the deformed coefficients c_k(s) =
prod [a_j+s]_k / prod [b_j+s]_k (rational s-series), the deformation
generating series Phi(s, z), the inhomogeneous solutions W_r, and the
cycle-type classifier.  The data, the gamma-vector dictionary and
the coefficient streams come from :mod:`hyperreg.hgdata`, re-exported here.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

from .exactnum import EX_B4, EX_CAT, EX_LN2, EX_Z3, ExactNum
from .hgdata import (CycleType, GammaVector, HGData, HGError, coeff_stream,  # noqa: F401
                     from_gamma, parse_gamma, parse_hg, ratio_stream, scale_C)
from .series import LogSeries, PowSeries, SLaurent, _linear_product, sp_exp

__all__ = ["HGData", "GammaVector", "CycleType", "HGError",
           "parse_hg", "parse_gamma", "from_gamma", "scale_C",
           "coeff_stream", "ck_s", "alpha_s",
           "frobenius_phi", "z_s_logs", "W_r", "classify"]


# ---------------------------------------------------------------------------
# s-deformation
# ---------------------------------------------------------------------------

def _ck_rows(h: HGData, K: int, s_order: int) -> list:
    """[c_0(s), ..., c_(K-1)(s)] by c_(k+1) = c_k prod_j (a_j+k+s) / prod_j (b_j+k+s).

    One truncated-series step per k, so O(K) products for all K rows.  The
    steps run in integers: with D the common denominator of the indices and
    u = D s, both products are integer polynomials in u, and each row is an
    integer u-series over one denominator, reduced after every step.
    """
    D = lcm(*(x.denominator for x in h.a + h.b))
    v, d = [1] + [0] * s_order, 1
    rows = [[Fraction(1)] + [Fraction(0)] * s_order]
    for k in range(K - 1):
        num = _linear_product([int(D * (aj + k)) for aj in h.a], s_order)
        den = _linear_product([int(D * (bj + k)) for bj in h.b], s_order)
        # v num / den times q0^(s_order+1): every division below is exact
        q0 = den[0]
        qo = q0 ** (s_order + 1)
        w = []
        for n in range(s_order + 1):
            acc = qo * sum(num[i] * v[n - i] for i in range(n + 1))
            acc -= sum(den[i] * w[n - i] for i in range(1, n + 1))
            w.append(acc // q0)
        d *= qo
        g = gcd(d, *w)
        v, d = [x // g for x in w], d // g
        rows.append([Fraction(x * D ** n, d) for n, x in enumerate(v)])
    return rows


def ck_s(h: HGData, k: int, s_order: int) -> list:
    """c_k(s) = prod_j [a_j+s]_k / prod_j [b_j+s]_k, truncated s-series.

    For b all ones this is a_k(s)/alpha(s), the Frobenius-normalized
    deformation with purely rational coefficients.
    """
    if k < 0:
        raise HGError("k must be nonnegative")
    return _ck_rows(h, k + 1, s_order)[k]


# psi^(m)(a) - psi^(m)(1) for the supported exact indices
_PSI_BASE_DIFF = {
    (Fraction(1), 0): ExactNum.from_rational(0),
    (Fraction(1), 1): ExactNum.from_rational(0),
    (Fraction(1), 2): ExactNum.from_rational(0),
    (Fraction(1), 3): ExactNum.from_rational(0),
    (Fraction(1, 2), 0): -2 * EX_LN2,
    (Fraction(1, 2), 1): ExactNum.atom("pi", 2, Fraction(1, 3)),
    (Fraction(1, 2), 2): -12 * EX_Z3,
    (Fraction(1, 2), 3): ExactNum.atom("pi", 4, Fraction(14, 15)),
    (Fraction(1, 4), 0): -3 * EX_LN2 - ExactNum.atom("pi", 1, Fraction(1, 2)),
    (Fraction(1, 4), 1): ExactNum.atom("pi", 2, Fraction(5, 6)) + 8 * EX_CAT,
    (Fraction(1, 4), 2): ExactNum.atom("pi", 3, Fraction(-2)) - 54 * EX_Z3,
    (Fraction(1, 4), 3): ExactNum.atom("pi", 4, Fraction(119, 15)) + 768 * EX_B4,
    (Fraction(3, 4), 0): -3 * EX_LN2 + ExactNum.atom("pi", 1, Fraction(1, 2)),
    (Fraction(3, 4), 1): ExactNum.atom("pi", 2, Fraction(5, 6)) - 8 * EX_CAT,
    (Fraction(3, 4), 2): ExactNum.atom("pi", 3, Fraction(2)) - 54 * EX_Z3,
    (Fraction(3, 4), 3): ExactNum.atom("pi", 4, Fraction(119, 15)) - 768 * EX_B4,
}

EXACT_INDICES = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4))


def psi_diff_exact(a: Fraction, m: int) -> ExactNum:
    """psi^(m)(a) - psi^(m)(1) in harmonic-number atoms."""
    if (a, m) not in _PSI_BASE_DIFF:
        raise HGError(f"no exact polygamma reduction for index {a}, order {m}")
    return _PSI_BASE_DIFF[(a, m)]


def alpha_s(h: HGData, s_order: int, mode: str = "exact") -> list:
    """alpha(s) = prod_j Gamma(s+a_j) / (Gamma(a_j) Gamma(s+1)) as an s-series.

    mode "exact" needs all a_j in {1, 1/2, 1/4, 3/4} (harmonic-number
    atoms); "symbolic" returns opaque generators alpha_1..alpha_order,
    useful for residual checks that must hold for arbitrary alpha.
    """
    if not h.b_all_ones():
        raise HGError("alpha(s) is defined for maximal unipotent data (b all ones)")
    if mode == "symbolic":
        out = [ExactNum.from_rational(1)]
        out += [ExactNum.atom(f"alpha{m}") for m in range(1, s_order + 1)]
        return out
    if mode == "exact":
        if any(aj not in EXACT_INDICES for aj in h.a):
            raise HGError(f"unsupported a_j for exact mode in {h}")
        log_alpha = [ExactNum.from_rational(0)] * (s_order + 1)
        for m in range(1, s_order + 1):
            acc = ExactNum.from_rational(0)
            for aj in h.a:
                acc = acc + psi_diff_exact(aj, m - 1)
            log_alpha[m] = acc * Fraction(1, factorial(m))
        return sp_exp(log_alpha, s_order)
    raise HGError(f"unknown mode {mode!r}")


def z_s_logs(s_order: int, K: int = 1) -> SLaurent:
    """z^s = sum_j s^j log^j z / j! as an SLaurent with K retained z-terms."""
    terms = {}
    for j in range(s_order + 1):
        ps = PowSeries(0, [Fraction(1, factorial(j))] + [0] * (K - 1))
        terms[(j, 0)] = LogSeries.from_pow(ps, j)
    return SLaurent(terms, s_order, 0)


def _rows_slaurent(rows: list, s_order: int) -> SLaurent:
    """sum_k rows[k](s) x^(k+s) as an SLaurent in s, each row an s-series.

    x^s = sum_j s^j log^j x / j!, so slot m, log-power j holds the s^(m-j)
    piece of every row over j!.
    """
    fac = [factorial(j) for j in range(s_order + 1)]
    terms = {}
    for m in range(s_order + 1):
        terms[(m, 0)] = LogSeries([
            PowSeries(0, [row[m - j] * Fraction(1, fac[j]) for row in rows])
            for j in range(m + 1)])
    return SLaurent(terms, s_order, 0)


def _s_series_times(c: list, F: SLaurent) -> SLaurent:
    """c(s) F(s) for a truncated s-series c and an F without negative slots."""
    terms = {}
    for m in range(F.s_order + 1):
        acc = None
        for i in range(m + 1):
            sub = F.slot(m - i)
            if sub.is_zero():
                continue
            piece = sub.scale(c[i])
            acc = piece if acc is None else acc + piece
        if acc is not None:
            terms[(m, 0)] = acc
    return SLaurent(terms, F.s_order, 0)


def frobenius_phi(h: HGData, K: int, s_order: int) -> SLaurent:
    """Phi-hat(s, z) = sum_k c_k(s) z^(k+s), exact rational coefficients.

    For b = 1's this is the generating series of Frobenius periods:
    its s^m coefficient phi_m satisfies phi_m - log^m z / m! -> 0 at z=0.
    The rows c_0(s)..c_(K-1)(s) come from one pass of the term-ratio
    recurrence, not from K separate Pochhammer products.
    """
    if s_order > 4:
        raise HGError("s_order is capped at 4")
    return _rows_slaurent(_ck_rows(h, K, s_order), s_order)


def W_r(h: HGData, r: int, K: int) -> LogSeries:
    """The unique solution of L(.) = z^(1/r) vanishing at z = 0:
    W_r(z) = sum_k prod_j ([a_j + 1/r]_k / [1/r]_(k+1)) z^(k + 1/r)."""
    if not h.b_all_ones():
        raise HGError("W_r requires b all ones")
    if r < 2:
        raise HGError("r must be at least 2")
    rr = Fraction(1, r)
    # prod_j 1 / [1/r]_(k+1) = r^m / prod_j [1/r + 1]_k
    stream = ratio_stream(1, tuple(aj + rr for aj in h.a), (rr + 1,) * h.m, K)
    return LogSeries.from_pow(PowSeries(rr, [r ** h.m * c for c in stream]))


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------

_TABLE_LABELS = {
    (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5)): "Ia",
    (Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), Fraction(3, 4)): "Ib",
    (Fraction(1, 3), Fraction(1, 3), Fraction(2, 3), Fraction(2, 3)): "II",
    (Fraction(1, 2),) * 4: "IV",
}


def classify(h: HGData) -> CycleType:
    """Cycle type expected for the second normal function (weight-3 regime).

    Implements the observed table rule: p = 2 + #(a_j = 1/2)/2 and
    K-theory type K_(2p-4).  Outside the (1,1,1,1) maximal unipotent
    regime the type is generic/undetermined.
    """
    if len(h.a) != 4 or not h.b_all_ones():
        return CycleType("generic", None, None)
    halves = sum(1 for x in h.a if x == Fraction(1, 2))
    if halves % 2:
        raise HGError("odd count of a_j = 1/2 in the 14-case regime")
    p = 2 + halves // 2
    label = _TABLE_LABELS.get(tuple(sorted(h.a)), "generic")
    return CycleType(label, p, f"K{2 * p - 4}")

