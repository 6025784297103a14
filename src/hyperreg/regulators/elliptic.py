"""Elliptic family: the series of the vanishing-cycle period and its boundary value.

The period is Psi(t) = -2 pi i (log t + S(t)); psi_sum gives
S(t) = sum_{m>0} binom(2m,m)^2 t^m / m for 0 < t <= 1/16.  At the conifold
boundary t = 1/16 the series converges only like 1/m^2, so the value is
produced by quadrature of the hypergeometric integrand, and the identity
log 16 - sum = (8/pi) L(chi_-4, 2) is checked to full precision.
"""

from __future__ import annotations

from fractions import Fraction

from ..mpnum import PrecisionPolicy, ratio_sum, special
from .reporting import CaseError


def _sum_interior(t: Fraction, pol: PrecisionPolicy):
    ctx = pol.ctx
    tv = ctx.mpf(t.numerator) / t.denominator
    # t_1 = 4t, t_(m+1) / t_m = 16t (m + 1/2)^2 m / (m + 1)^3
    ratio = (16 * t, (Fraction(1, 2), Fraction(1, 2), 0), (1, 1, 1))
    return ratio_sum(4 * tv, ratio, pol, "elliptic series", start=1)[0]


def _sum_quadrature(t: Fraction, pol: PrecisionPolicy):
    """sum_{m>0} binom(2m,m)^2 t^m / m = int_0^t (2F1(1/2,1/2;1;16x) - 1) dx/x,
    valid up to and including the conifold boundary t = 1/16.  The integrand
    reads 2F1(1/2,1/2;1;m) = (2/pi) K(m), with K computed by the AGM."""
    ctx = pol.ctx
    tv = ctx.mpf(t.numerator) / t.denominator
    with ctx.workdps(pol.working_digits + 10):
        def f(x):
            return (2 * ctx.ellipk(16 * x) / ctx.pi - 1) / x
        val = ctx.quad(f, [0, tv / 2, 3 * tv / 4, tv])
    return +val


def psi_sum(t: Fraction, pol: PrecisionPolicy):
    """sum_{m>0} binom(2m,m)^2 t^m / m on (0, 1/16]."""
    if not (0 < t <= Fraction(1, 16)):
        raise CaseError(f"t = {t} outside (0, 1/16]")
    if 16 * t > Fraction(99, 100):
        # too close to the boundary for geometric summation
        return _sum_quadrature(t, pol)
    return _sum_interior(t, pol)


def conifold_catalan_identity(pol: PrecisionPolicy):
    """|log 16 - sum_{m>0} binom(2m,m)^2/(16^m m) - 8 Catalan / pi|."""
    ctx = pol.ctx
    lhs = ctx.log(16) - _sum_quadrature(Fraction(1, 16), pol)
    rhs = 8 * special("catalan", pol) / ctx.pi
    return abs(lhs - rhs), lhs
