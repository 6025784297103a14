"""CY0 (quadratic fields) and the elliptic-family identities."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from hyperreg.lfun.dirichlet import _is_fundamental
from hyperreg.mpnum import PrecisionPolicy, ratio_sum, special
from hyperreg.regulators.cy0 import (class_number_real_quadratic,
                                     cy0_class_number_check, cy0_regulator,
                                     is_squarefree, selected_cy0_cases)
from hyperreg.regulators.elliptic import _sum_quadrature, conifold_catalan_identity
from hyperreg.regulators.reporting import CaseError

F = Fraction


def test_cy0_closed_form(pol):
    ctx = pol.ctx
    r, dev = cy0_regulator(F(1, 7), pol)
    assert abs(r - 2 * ctx.log((5 + ctx.sqrt(21)) / 2)) < pol.tol
    assert dev < pol.tol
    r5, _ = cy0_regulator(F(1, 5), pol)
    assert abs(r5 - 2 * ctx.log((3 + ctx.sqrt(5)) / 2)) < pol.tol
    with pytest.raises(CaseError):
        cy0_regulator(F(1, 3), pol)


def test_cy0_small_t_limit(pol):
    ctx = pol.ctx
    t = F(1, 10 ** 10)
    r, _ = cy0_regulator(t, pol)
    assert abs(r + 2 * ctx.log(ctx.mpf(1) / 10 ** 10)) < ctx.mpf(10) ** -9


def test_class_numbers_known():
    known = {5: 1, 8: 1, 12: 1, 13: 1, 21: 1, 24: 1, 77: 1,
             165: 2, 229: 3, 33: 1, 136: 2, 305: 2}
    for D, h in known.items():
        assert class_number_real_quadratic(D) == h, D


# --- the replaced oracle: the narrow count over both signs of a, halved when
# the fundamental unit has norm +1 (the continued-fraction period is even)

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


def _narrow_class_number_halved(D: int) -> int:
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


def test_class_number_matches_the_narrow_count_halved():
    """The cycles up to sign equal the narrow count halved on every fundamental
    D < 6000, the unit-norm -1 branch (D = 5, 13, 229, ...) among them."""
    Ds = [D for D in range(2, 6000) if _is_fundamental(D)]
    assert len(Ds) == 1826
    assert {_fundamental_unit_norm(D) for D in (5, 13, 229)} == {-1}
    for D in Ds:
        assert class_number_real_quadratic(D) == _narrow_class_number_halved(D), D


@pytest.mark.parametrize("D", (0, 1, 4, 9, 20, 80, 7))
def test_class_number_refuses_a_non_fundamental_D(D):
    """D = 80 is a discriminant of a non-maximal order, where the count of
    reduced forms over all of them, imprimitive ones too, read 2."""
    with pytest.raises(CaseError, match="not a fundamental discriminant"):
        class_number_real_quadratic(D)


def test_cy0_ratio_oracle(pol):
    ctx = pol.ctx
    for n, h in ((7, 1), (11, 1), (15, 2)):
        rep = cy0_class_number_check(n, pol)
        oracle = F(h, 8)
        assert rep.expected_ratio == oracle
        assert abs(rep.measured_ratio
                   - ctx.mpf(oracle.numerator) / oracle.denominator) < 100 * pol.tol
        assert rep.detected_ratio == oracle
    with pytest.raises(CaseError):
        cy0_class_number_check(9, pol)      # 45 not squarefree


# h(n(n - 4)) for every n in (5, 65] with n(n - 4) squarefree: D < 4000, the
# default cap, by the reduced-form cycle count
_CY0_CLASS_NUMBERS = {7: 1, 11: 1, 15: 2, 17: 2, 19: 2, 21: 2, 23: 1, 33: 2, 35: 2,
                      37: 4, 39: 4, 41: 2, 43: 4, 47: 3, 51: 2, 55: 4, 57: 6, 59: 4,
                      61: 4, 65: 4}


def test_cy0_class_number_sweep():
    """The log-sine zeta_K'(0) detects h/8 at every squarefree point under the cap."""
    assert sorted(_CY0_CLASS_NUMBERS) == [n for n in range(6, 66) if is_squarefree(n * (n - 4))]
    pol = PrecisionPolicy(20)
    limit = pol.ctx.mpf(10) ** -(pol.target_digits - 5)
    for n, h in _CY0_CLASS_NUMBERS.items():
        assert class_number_real_quadratic(n * (n - 4)) == h
        rep = cy0_class_number_check(n, pol)
        assert [name for name, _ in rep.crosschecks] == ["series_vs_quadratic_formula",
                                                          "ratio_vs_class_number_oracle"]
        assert all(dev <= limit for _, dev in rep.crosschecks), n
        assert rep.expected_ratio == rep.detected_ratio == F(h, 8), n


def test_cy0_intro_anchor(pol):
    """zeta'_{Q(sqrt5)}(0) = -(1/2) log((1+sqrt5)/2)."""
    from hyperreg.lfun.dirichlet import dedekind_quadratic_deriv0
    ctx = pol.ctx
    val = dedekind_quadratic_deriv0(5, pol)
    assert abs(val + ctx.log((1 + ctx.sqrt(5)) / 2) / 2) < pol.tol


def _trial_division_squarefree(n: int) -> bool:
    """The replaced test: no d^2 with 2 <= d <= sqrt(n) divides n >= 1."""
    if n < 1:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def test_squarefree_matches_trial_division():
    assert [n for n in range(-3, 5001) if is_squarefree(n)] \
        == [n for n in range(-3, 5001) if _trial_division_squarefree(n)]


def test_selected_cases():
    sel = selected_cy0_cases(50)
    assert sel and all(is_squarefree(n * (n - 4)) for n in sel)
    assert all(class_number_real_quadratic(n * (n - 4)) == 1 for n in sel)
    assert 7 in sel and 11 in sel


def test_conifold_identity(pol40):
    ctx = pol40.ctx
    dev, lhs = conifold_catalan_identity(pol40)
    assert dev < ctx.mpf(10) ** -30
    assert abs(lhs - 8 * special("catalan", pol40) / ctx.pi) < ctx.mpf(10) ** -30


def _sum_interior(t, pol):
    """sum_{m>0} binom(2m,m)^2 t^m / m by geometric summation, for t well
    inside (0, 1/16): the reference elliptic._sum_quadrature is checked against."""
    tv = pol.ctx.mpf(t.numerator) / t.denominator
    # t_1 = 4t, t_(m+1) / t_m = 16t (m + 1/2)^2 m / (m + 1)^3
    ratio = (16 * t, (F(1, 2), F(1, 2), 0), (1, 1, 1))
    return ratio_sum(4 * tv, ratio, pol, "elliptic series", start=1)[0]


def test_psi_interior_and_limit(pol):
    ctx = pol.ctx
    # Psi(t)/(-2 pi i) - log t = sum_{m>0} binom(2m,m)^2 t^m / m, term by term at
    # t = 1/32, where the terms fall like 2^-m
    direct = ctx.fsum(ctx.mpf(comb(2 * m, m) ** 2) / (m * 32 ** m) for m in range(1, 250))
    assert abs(_sum_interior(F(1, 32), pol) - direct) < 10 * pol.tol
    # and it -> 0 as t -> 0
    assert abs(_sum_interior(F(1, 10 ** 12), pol)) < ctx.mpf(10) ** -11


def test_quadrature_vs_summation_overlap(pol):
    """Quadrature and direct summation agree on the overlap of their domains."""
    for t in (F(1, 20), F(1, 32), F(3, 64)):
        assert abs(_sum_interior(t, pol) - _sum_quadrature(t, pol)) < 10 * pol.tol


@pytest.mark.parametrize("digits", (30, 50))
def test_detect_rational_uses_the_value_precision(digits):
    """The candidate is formed at the value's own precision, not mpmath's global 15 digits."""
    from hyperreg.mpnum import PrecisionPolicy
    from hyperreg.regulators.reporting import detect_rational
    pol = PrecisionPolicy(digits)
    ctx = pol.ctx
    assert detect_rational(ctx.mpf(64) / 3, pol.tol) == F(64, 3)
    assert detect_rational(ctx.mpf(1) / 640, pol.tol) == F(1, 640)
    assert detect_rational(ctx.mpc(1, 0) / 7, pol.tol) == F(1, 7)
    assert detect_rational(ctx.mpc(1, 1) / 7, pol.tol) is None
    assert detect_rational(ctx.pi, pol.tol) is None
