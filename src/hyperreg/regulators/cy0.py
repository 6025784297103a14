"""Degree-zero Calabi-Yau case: quadratic fields along x^2 + (2 - 1/t)x + 1 = 0.

The regulator r(t) = log x_+ - log x_- is computed two independent ways
(hypergeometric series and the quadratic formula); for t = 1/n with
n(n-4) squarefree it interpolates Dirichlet-regulator data, and the ratio
-zeta_K'(0) / (2 r(1/n)) is matched against the exact class-number oracle.
"""

from __future__ import annotations

from fractions import Fraction

from ..hgdata import is_squarefree
from ..lfun.dirichlet import dedekind_quadratic_deriv0
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

def _reduced_forms(D: int) -> set:
    """All reduced indefinite forms (a,b,c) of discriminant D > 0."""
    import math
    s = math.isqrt(D)
    forms = set()
    for a in range(-s, s + 1):
        if a == 0:
            continue
        for b in range(1, s + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if _reduced(a, b, c, D):
                forms.add((a, b, c))
    return forms


def _reduced(a: int, b: int, c: int, D: int) -> bool:
    """0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b, exactly."""
    if b <= 0 or b * b >= D:
        return False
    ta = 2 * abs(a)
    # sqrt(D) < ta + b  <=>  D < (ta+b)^2 ; ta < sqrt(D)+b <=> (ta-b)^2 < D or ta<=b
    if D >= (ta + b) ** 2:
        return False
    if ta > b and (ta - b) ** 2 >= D:
        return False
    return True


def _rho(form: tuple, D: int) -> tuple:
    """Reduction step on reduced indefinite forms."""
    import math
    a, b, c = form
    s = math.isqrt(D)
    # choose b' = -b + 2|c| m with sqrt(D) - 2|c| < b' < sqrt(D)
    ac = abs(c)
    m = (s + b) // (2 * ac)
    bp = -b + 2 * ac * m
    while bp > s:
        bp -= 2 * ac
    while s - 2 * ac >= bp:
        bp += 2 * ac
    cp = (bp * bp - D) // (4 * c)
    return (c, bp, cp)


def class_number_real_quadratic(D: int) -> int:
    """h(D) for a fundamental discriminant D > 0.

    Counts rho-cycles of reduced indefinite forms (the narrow class
    number), then halves when the fundamental unit has norm +1, detected
    by the parity of the continued-fraction period of (1+sqrt(D))/2.
    """
    if D <= 0:
        raise CaseError("D must be a positive fundamental discriminant")
    forms = _reduced_forms(D)
    seen = set()
    cycles = 0
    for f in sorted(forms):
        if f in seen:
            continue
        cycles += 1
        g = f
        while True:
            seen.add(g)
            g = _rho(g, D)
            if g == f:
                break
            if g not in forms:
                raise CaseError(f"rho left the reduced set at {g} (D={D})")
    h_narrow = cycles
    if _fundamental_unit_norm(D) == -1:
        return h_narrow
    assert h_narrow % 2 == 0, (D, h_narrow)
    return h_narrow // 2


def _fundamental_unit_norm(D: int) -> int:
    """Norm of the fundamental unit: -1 iff the CF period of omega is odd."""
    import math
    if D % 4 == 1:
        # omega = (1 + sqrt(D))/2: states (P + sqrt(d))/Q with Q | d - P^2
        d, P, Q = D, 1, 2
    elif D % 4 == 0:
        d, P, Q = D // 4, 0, 1
    else:
        raise CaseError(f"{D} is not a discriminant")
    s = math.isqrt(d)
    seen = {}
    period = 0
    state = (P, Q)
    while True:
        if state in seen:
            period -= seen[state]
            break
        seen[state] = period
        P, Q = state
        if Q <= 0:
            raise CaseError(f"continued fraction left the positive-Q regime (D={D})")
        a = (P + s) // Q
        P2 = a * Q - P
        Q2 = (d - P2 * P2) // Q
        state = (P2, Q2)
        period += 1
    return -1 if period % 2 else 1


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
