"""Exact scalars for series coefficients.

Coefficients of the regulator series are rational numbers together with a
few transcendental atoms (pi, log 2, Catalan's constant, zeta(3), beta(4),
the imaginary unit, ...).  We keep them symbolic as long as possible so
that identities between series can be asserted *exactly*, and substitute
numeric values only when a series is finally evaluated.

An :class:`ExactNum` is a Q-linear combination of monomials in named atoms.
The imaginary unit is an atom with the reduction i^2 = -1 applied during
multiplication, so coefficients stay plain Fractions.  Opaque generators
(with no numeric value) are allowed; they support checks such as
"this residual vanishes identically for *any* value of alpha_1..alpha_4".
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

from .mpnum import special

__all__ = ["ExactNum", "EX_I", "EX_PI", "EX_LN2", "EX_CAT", "EX_Z3", "EX_B4",
           "ex_zeta2", "two_pi_i_pow", "AtomValueError"]


class AtomValueError(KeyError):
    """An atom without a numeric value reached numeric evaluation."""


# atom name -> name of its constant in mpnum.special
_SPECIAL_ATOMS = {"pi": "pi", "ln2": "ln2", "cat": "catalan", "z3": "zeta3", "b4": "b4"}


def _reduce_i(mono: dict) -> tuple:
    """Apply i^2 = -1; return (sign, cleaned monomial tuple)."""
    sign = 1
    e = mono.get("i", 0)
    if e:
        q, r = divmod(e, 2)
        if q % 2:
            sign = -sign
        if r:
            mono["i"] = 1
        else:
            del mono["i"]
    return sign, tuple(sorted(mono.items()))


class ExactNum:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: dict mapping monomial tuple ((atom, exp), ...) -> Fraction
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    # -- constructors -------------------------------------------------
    @classmethod
    def from_rational(cls, q) -> "ExactNum":
        q = Fraction(q)
        return cls({(): q} if q else {})

    @classmethod
    def atom(cls, name: str, exp: int = 1, coeff=1) -> "ExactNum":
        if exp == 0:
            return cls.from_rational(coeff)
        mono = {name: exp}
        sign, key = _reduce_i(mono)
        return cls({key: Fraction(coeff) * sign})

    # -- helpers ------------------------------------------------------
    @staticmethod
    def _coerce(x):
        if isinstance(x, ExactNum):
            return x
        if isinstance(x, Rational):
            return ExactNum.from_rational(x)
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return not self.terms or set(self.terms) == {()}

    def as_rational(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if set(self.terms) != {()}:
            raise ValueError(f"not rational: {self}")
        return self.terms[()]

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            out = dict(self.terms)
            if other:
                out[()] = out.get((), Fraction(0)) + other
            return ExactNum(out)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return ExactNum(out)

    __radd__ = __add__

    def __neg__(self):
        return ExactNum({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExactNum({k: v * other for k, v in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                mono = dict(k1)
                for name, e in k2:
                    mono[name] = mono.get(name, 0) + e
                    if mono[name] == 0:
                        del mono[name]
                sign, key = _reduce_i(mono)
                out[key] = out.get(key, Fraction(0)) + sign * v1 * v2
        return ExactNum(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Rational):
            q = Fraction(other)
            return ExactNum({k: v / q for k, v in self.terms.items()})
        if isinstance(other, ExactNum) and other.is_rational():
            return self / other.as_rational()
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported")
        out = ExactNum.from_rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items()):
            atoms = "*".join(f"{n}^{e}" if e != 1 else n for n, e in mono)
            parts.append(f"{c}" + (f"*{atoms}" if atoms else ""))
        return " + ".join(parts)

    # -- numerics -----------------------------------------------------
    def to_mp(self, ctx):
        """Numeric value under an mpmath context.

        The transcendental atoms come from the per-precision memo
        ``mpnum.special``; an atom without a value raises AtomValueError.
        """
        vals = {"i": ctx.mpc(0, 1)}
        total = ctx.mpf(0)
        for mono, c in self.terms.items():
            term = ctx.mpf(c.numerator) / c.denominator
            for name, e in mono:
                if name not in vals:
                    if name not in _SPECIAL_ATOMS:
                        raise AtomValueError(f"atom {name!r} has no numeric value")
                    vals[name] = special(_SPECIAL_ATOMS[name], ctx)
                term = term * vals[name] ** e
            total = total + term
        if ctx.im(total) == 0:
            return ctx.re(total)
        return total


EX_I = ExactNum.atom("i")
EX_PI = ExactNum.atom("pi")
EX_LN2 = ExactNum.atom("ln2")
EX_CAT = ExactNum.atom("cat")
EX_Z3 = ExactNum.atom("z3")
EX_B4 = ExactNum.atom("b4")


def ex_zeta2() -> ExactNum:
    return ExactNum.atom("pi", 2, Fraction(1, 6))


def two_pi_i_pow(m: int) -> ExactNum:
    """(2 pi i)^m as an exact scalar, m >= 0."""
    return (ExactNum.atom("pi") * ExactNum.atom("i") * 2) ** m
