"""Dirichlet characters and native L / L' evaluation via Hurwitz zeta.

L(chi, s) = q^(-s) sum_a chi(a) zeta(s, a/q); the s-derivative routes
through the Hurwitz-zeta derivative.  dedekind_quadratic_deriv0 uses Lerch's
zeta'(0, x) = log Gamma(x) - log(2 pi)/2 (`verify identities` checks it at
x = k/12) with Gamma reflection: its log-sine sum is the cyclotomic-unit
form of the class number formula (Washington, GTM 83, ch. 4).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from ..hgdata import is_squarefree
from ..mpnum import PrecisionPolicy, hurwitz_zeta

__all__ = ["DirichletChar", "kronecker_character", "quartic_character_mod5",
           "dirichlet_L", "dedekind_quadratic_deriv0", "gauss_sum",
           "completed_lambda", "functional_equation_residual", "LfunError"]


class LfunError(ValueError):
    pass


class DirichletChar(namedtuple("DirichletChar", "modulus angles")):
    """Character values stored as exact angles: chi(a) = e(angles[a]).

    angles[a] is a Fraction in [0,1) for units, None when gcd(a,q) > 1.
    """
    __slots__ = ()

    def __new__(cls, modulus, angles):
        q = modulus
        if q < 1 or len(angles) != q:
            raise LfunError("angle table must have length q")
        for a in range(q):
            unit = gcd(a, q) == 1
            if unit != (angles[a] is not None):
                raise LfunError("angle table support must be the units mod q")
        # multiplicativity on the table, in integer numerators over the lcm L
        # of the angle denominators: e(x) = 1 iff L x = 0 mod L
        L = lcm(*(x.denominator for x in angles if x is not None))
        num = [None if x is None else x.numerator * (L // x.denominator)
               for x in angles]
        units = [b for b in range(1, q) if num[b] is not None]
        for a in units:
            for b in units:
                if (num[a] + num[b] - num[a * b % q]) % L:
                    raise LfunError(f"table not multiplicative at ({a},{b})")
        return super().__new__(cls, modulus, angles)

    @property
    def parity(self) -> str:
        if self.modulus <= 2:
            return "even"
        ang = self.angles[self.modulus - 1]
        return "even" if ang == 0 else "odd"

    def is_principal(self) -> bool:
        return all(a is None or a == 0 for a in self.angles)

    def value(self, a: int, ctx):
        ang = self.angles[a % self.modulus]
        if ang is None:
            return ctx.mpf(0)
        if ang == 0:
            return ctx.mpf(1)
        if 2 * ang == 1:
            return ctx.mpf(-1)
        return ctx.expjpi(2 * ctx.mpf(ang.numerator) / ang.denominator)

    def conjugate(self) -> "DirichletChar":
        return DirichletChar(self.modulus,
                             tuple(None if a is None else (-a) % 1 for a in self.angles))


def kronecker_symbol(D: int, n: int) -> int:
    """Kronecker symbol (D|n)."""
    if n == 0:
        return 1 if D in (1, -1) else 0
    a, b = D, n
    if b < 0:
        b = -b
        sign = -1 if a < 0 else 1
    else:
        sign = 1
    result = sign
    # factor out 2's from b
    if b % 2 == 0:
        if a % 2 == 0:
            return 0
        t = 0
        while b % 2 == 0:
            b //= 2
            t += 1
        if t % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= b
    while a:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                result = -result
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            result = -result
        a %= b
    return result if b == 1 else 0


def kronecker_character(D: int) -> DirichletChar:
    """The quadratic character chi_D of a fundamental discriminant D."""
    if not _is_fundamental(D):
        raise LfunError(f"{D} is not a fundamental discriminant")
    q = abs(D)
    angles = []
    for a in range(q):
        if gcd(a, q) != 1:
            angles.append(None)
        else:
            s = kronecker_symbol(D, a)
            angles.append(Fraction(0) if s == 1 else Fraction(1, 2))
    return DirichletChar(q, tuple(angles))


def quartic_character_mod5() -> DirichletChar:
    """The order-4 odd character mod 5 with chi(2) = i."""
    return DirichletChar(5, (None, Fraction(0), Fraction(1, 4),
                             Fraction(3, 4), Fraction(1, 2)))


def _is_fundamental(D: int) -> bool:
    if D == 1:
        return True
    if D % 4 == 1:
        return is_squarefree(abs(D))
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and is_squarefree(abs(m))
    return False


def dirichlet_L(chi: DirichletChar, s, derivative_order: int, pol: PrecisionPolicy):
    """L(chi, s) or L'(chi, s) by the Hurwitz-zeta decomposition."""
    if derivative_order not in (0, 1):
        raise LfunError("derivative_order must be 0 or 1")
    ctx = pol.ctx
    q = chi.modulus
    sc = ctx.mpc(s)
    if sc.imag == 0:
        sc = sc.real
    if sc == 1:
        if chi.is_principal():
            raise LfunError("pole of the principal L-function at s = 1")
        if derivative_order != 0:
            raise LfunError("derivative at s = 1 not supported")
        # zeta(s, x) = 1/(s-1) - psi(x) + O(s-1) and sum_a chi(a) = 0
        acc = ctx.mpf(0)
        for a in range(1, q):
            v = chi.value(a, ctx)
            if v:
                acc += v * (-ctx.psi(0, ctx.mpf(a) / q))
        return acc / q
    # sum_a chi(a) zeta^(d)(s, a/q) over a = 1..q, in ascending a, for d = 0..order
    totals = []
    for d in range(derivative_order + 1):
        total = ctx.mpf(0)
        for a in range(1, q + 1):
            v = chi.value(a, ctx)
            if v:
                total += v * hurwitz_zeta(sc, Fraction(a, q), d, pol)
        totals.append(total)
    qs = ctx.power(q, -sc)
    out = qs * totals[0] if derivative_order == 0 else qs * (totals[1] - ctx.log(q) * totals[0])
    if isinstance(out, ctx.mpc) and out.imag == 0:
        return out.real
    return out


def dedekind_quadratic_deriv0(D: int, pol: PrecisionPolicy):
    """zeta_K'(0) = -L'(chi_D, 0)/2 for real quadratic K, with no Hurwitz zeta.

    chi_D(a) = kronecker_symbol(D, a) is even, so zeta(0, x) = 1/2 - x makes
    L(chi_D, 0) = -(1/D) sum_a a chi_D(a), checked as that integer identity, and
    Lerch's formula with Gamma reflection gives (1/2) sum_{0<a<D/2} chi_D(a) log sin(pi a/D).
    """
    if D <= 1:
        raise LfunError("need a real quadratic field (D > 1)")
    if not _is_fundamental(D):
        raise LfunError(f"{D} is not a fundamental discriminant")
    chi = [kronecker_symbol(D, a) for a in range(D)]
    moment = sum(a * c for a, c in enumerate(chi))
    if moment:
        raise LfunError(f"L(chi_{D}, 0) expected to vanish, got {Fraction(-moment, D)}")
    ctx = pol.ctx
    return ctx.fsum(chi[a] * ctx.log(ctx.sinpi(ctx.mpf(a) / D))
                    for a in range(1, (D + 1) // 2) if chi[a]) / 2


def gauss_sum(chi: DirichletChar, pol: PrecisionPolicy):
    ctx = pol.ctx
    q = chi.modulus
    acc = ctx.mpf(0)
    for a in range(1, q + 1):
        v = chi.value(a, ctx)
        if v:
            acc += v * ctx.expjpi(2 * ctx.mpf(a) / q)
    return acc


def completed_lambda(chi: DirichletChar, s, pol: PrecisionPolicy):
    """Lambda(chi, s) = (q/pi)^((s+a)/2) Gamma((s+a)/2) L(chi, s)."""
    ctx = pol.ctx
    a = 0 if chi.parity == "even" else 1
    sc = ctx.mpc(s)
    L = dirichlet_L(chi, sc, 0, pol)
    return ctx.power(ctx.mpf(chi.modulus) / ctx.pi, (sc + a) / 2) \
        * ctx.gamma((sc + a) / 2) * L


def functional_equation_residual(chi: DirichletChar, s, pol: PrecisionPolicy):
    """|Lambda(chi, s) - eps(chi) Lambda(conj chi, 1 - s)|, small for primitive chi."""
    ctx = pol.ctx
    a = 0 if chi.parity == "even" else 1
    eps = gauss_sum(chi, pol) / (ctx.mpc(0, 1) ** a * ctx.sqrt(ctx.mpf(chi.modulus)))
    lhs = completed_lambda(chi, s, pol)
    rhs = eps * completed_lambda(chi.conjugate(), 1 - ctx.mpc(s), pol)
    return abs(lhs - rhs)
