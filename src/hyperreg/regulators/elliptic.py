"""Elliptic family: the boundary value of the vanishing-cycle period's series.

The period is Psi(t) = -2 pi i (log t + S(t)) with
S(t) = sum_{m>0} binom(2m,m)^2 t^m / m for 0 < t <= 1/16.  At the conifold
boundary t = 1/16 the series converges only like 1/m^2, so the value is
produced by quadrature of the hypergeometric integrand, and the identity
log 16 - S(1/16) = (8/pi) L(chi_-4, 2) is checked to full precision.
"""

from __future__ import annotations

from fractions import Fraction

from ..mpnum import PrecisionPolicy, special


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


def conifold_catalan_identity(pol: PrecisionPolicy):
    """|log 16 - sum_{m>0} binom(2m,m)^2/(16^m m) - 8 Catalan / pi|."""
    ctx = pol.ctx
    lhs = ctx.log(16) - _sum_quadrature(Fraction(1, 16), pol)
    rhs = 8 * special("catalan", pol) / ctx.pi
    return abs(lhs - rhs), lhs
