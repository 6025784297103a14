"""Degree-zero Calabi-Yau case: quadratic fields along x^2 + (2 - 1/t)x + 1 = 0.

The regulator r(t) = log x_+ - log x_- is computed two independent ways
(hypergeometric series and the quadratic formula); for t = 1/n with
n(n-4) squarefree it interpolates Dirichlet-regulator data, and the ratio
-zeta_K'(0) / (2 r(1/n)) is matched against the exact class-number oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..hgdata import is_squarefree
from ..lfun.dirichlet import _is_fundamental, dedekind_quadratic_deriv0
from ..mpnum import PrecisionPolicy, capped_terms, ratio_sum
from .reporting import CaseError, RegulatorReport, detect_rational


def _series_value(t: Fraction, pol: PrecisionPolicy):
    """-2 log t - 2 sum_{k>0} binom(2k,k) t^k / k."""
    ctx = pol.ctx
    tv = ctx.mpf(t.numerator) / t.denominator
    # t_1 = 2t, t_(k+1) / t_k = 4t (k + 1/2) k / (k + 1)^2
    ratio = (4 * t, (Fraction(1, 2), 0), (1, 1))
    return -2 * ctx.log(tv) - 2 * ratio_sum(2 * tv, ratio, pol, "cy0 series", start=1)[0]


def cy0_regulator(t: Fraction, pol: PrecisionPolicy):
    """r(t) for 0 < t < 1/4, series and closed form cross-checked."""
    if not (0 < t < Fraction(1, 4)):
        raise CaseError(f"t = {t} outside (0, 1/4)")
    ctx = pol.ctx
    tv = ctx.mpf(t.numerator) / t.denominator
    u = 1 / tv - 2
    # x_minus = (u - sqrt(u^2-4))/2 rationalized to avoid cancellation
    x_minus = 2 / (u + ctx.sqrt(u * u - 4))
    closed = -2 * ctx.log(x_minus)
    series = _series_value(t, pol)
    if abs(closed - series) > pol.tol:
        raise CaseError("series / closed-form disagreement in cy0 regulator")
    return closed, abs(closed - series)


# --- exact real-quadratic class number -------------------------------------

def class_number_real_quadratic(D: int) -> int:
    """h(D) for a fundamental discriminant D > 1: the rho-cycles of reduced
    indefinite forms, taken up to the sign (a, b, c) -> (-a, b, -c).

    That sign is the class of the ideal (sqrt D), so the cycles up to it are
    the wide classes (Cohen, GTM 138, 5.6).  A fundamental D makes every form
    primitive and is no square, so x < sqrt(D) iff x <= s = isqrt(D): a form
    is held as (a, b, -c) with a, -c > 0, the reduced ones are
    0 < b <= s, s - b < 2a <= s + b, and rho followed by the sign takes
    (a, b, k) to (k, b', (D - b'^2)/4k) with b' = s - (s + b) mod 2k.
    """
    if D <= 1 or not _is_fundamental(D):
        raise CaseError(f"{D} is not a fundamental discriminant > 1")
    s = math.isqrt(D)
    forms = {(a, b, (D - b * b) // (4 * a))
             for b in range(1, s + 1) for a in range((s - b) // 2 + 1, (s + b) // 2 + 1)
             if (D - b * b) % (4 * a) == 0}
    seen = set()
    cycles = 0
    for f in sorted(forms):
        if f in seen:
            continue
        cycles += 1
        g = f
        while True:
            seen.add(g)
            _, b, k = g
            b = s - (s + b) % (2 * k)
            g = (k, b, (D - b * b) // (4 * k))
            if g == f:
                break
            if g not in forms:
                raise CaseError(f"rho left the reduced set at {g} (D={D})")
    return cycles


def check_class_number_point(n: int, pol: PrecisionPolicy) -> int:
    """D = n(n - 4) for t = 1/n; CaseError unless n > 5 and D is squarefree.

    zeta_K'(0) reads chi_D at all D residues mod D, counted against the
    policy's cap: DivergenceError, naming --max-terms, when D exceeds it.
    That is checked first, so the squarefree test's trial division, which
    grows like sqrt(D), only runs on a D that can be summed.
    """
    if n <= 5:
        raise CaseError("need n > 5")
    D = capped_terms(n * (n - 4), pol, "cy0 residue sum")
    if not is_squarefree(D):
        raise CaseError(f"discriminant {D} = {n}({n}-4) not squarefree")
    return D


def check_point(t: Fraction, pol: PrecisionPolicy) -> int:
    """D for a ratio point t = 1/n; CaseError unless t has that form and
    check_class_number_point accepts n under pol."""
    if t.numerator != 1:
        raise CaseError("cy0 ratio points are t = 1/n")
    return check_class_number_point(t.denominator, pol)


def cy0_class_number_check(n: int, pol: PrecisionPolicy) -> RegulatorReport:
    """Measured ratio -zeta'_K(0) / (2 r(1/n)) against the h/8 oracle."""
    D = check_class_number_point(n, pol)
    ctx = pol.ctx
    t = Fraction(1, n)
    r, dev = cy0_regulator(t, pol)
    zkp = dedekind_quadratic_deriv0(D, pol)
    measured = -zkp / (2 * r)
    h = class_number_real_quadratic(D)
    oracle = Fraction(h, 8)
    rep = RegulatorReport("cy0", t, r, expected_ratio=oracle, measured_ratio=measured)
    rep.check("series_vs_quadratic_formula", dev, pol)
    rep.check("ratio_vs_class_number_oracle",
              abs(measured - ctx.mpf(oracle.numerator) / oracle.denominator), pol)
    rep.detected_ratio = detect_rational(measured, pol.tol)
    rep.notes.append(f"h({D}) = {h}; measured ratio is h/8 under this normalization")
    return rep


def selected_cy0_cases(n_max: int = 50) -> list:
    """Odd n in (5, n_max] with n(n-4) squarefree and h = 1."""
    out = []
    for n in range(7, n_max + 1, 2):
        D = n * (n - 4)
        if not is_squarefree(D):
            continue
        if class_number_real_quadratic(D) != 1:
            continue
        out.append(n)
    return out
