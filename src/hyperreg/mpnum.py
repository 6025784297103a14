"""Arbitrary-precision numeric kernel.

Everything downstream computes with mpmath reals/complexes at a working
precision fixed by a :class:`PrecisionPolicy`.  Each policy owns a private
mpmath context, so concurrent evaluations with different policies never
fight over a global precision setting.

:func:`special` is the one memo of transcendental constants (pi, log 2,
Catalan's constant, zeta(3), beta(4)), keyed by the context's binary
precision and filled on first use; the exact-to-float boundary
(``ExactNum.to_mp``) reads its atoms from it.

:func:`ratio_sum` sums every numeric series of the package that stops
where its terms fall below the working precision: from the first term and
the exact term ratio it forms every later term itself, in fixed point, and
owns the stopping index, the cap, the tail bound the ratio certifies and
the bound on its own rounding.
:func:`fixed_terms` owns the truncations fixed in advance from a decay
rate (the k4 entries and k2's z^-k streams), and holds them to the same
cap, ``max_terms``, through :func:`capped_terms`, which also caps cy0's
finite residue sum; :func:`power_sums` sums those truncations, all rows
of one point in one pass.  They live here, beside the policy they read,
so that a process that sums a series loads no series algebra.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from fractions import Fraction
from operator import attrgetter

_CONSTANT_NAMES = ("pi", "ln2", "catalan", "zeta3", "b4")


_GUARD_BITS = 32        # bits beyond the working precision of the fixed-point sums:
                        # ratio_sum's running term and the AFE kernel's trapezoid


class MPNumError(ValueError):
    pass


class PolesError(MPNumError):
    """Argument hit a pole of the requested function."""


class DivergenceError(ArithmeticError):
    pass


class TailBoundError(ArithmeticError):
    pass


class Record:
    """Field-wise repr and equality, and no hash; __slots__ names the fields in order."""
    __slots__ = ()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        get = attrgetter(*self.__slots__)
        return get(self) == get(other) if other.__class__ is self.__class__ else NotImplemented


class PrecisionPolicy(namedtuple("PrecisionPolicy", "target_digits guard_digits max_terms")):
    """Requested accuracy plus working headroom.

    working precision (decimal digits) = target_digits + guard_digits,
    with guard_digits >= 10 so the last requested digit is trustworthy.
    """

    def __new__(cls, target_digits=30, guard_digits=15, max_terms=4000):
        if target_digits < 1:
            raise MPNumError("target_digits must be positive")
        if guard_digits < 10:
            raise MPNumError("guard_digits must be at least 10")
        if max_terms < 16:
            raise MPNumError("max_terms must be at least 16")
        self = super().__new__(cls, target_digits, guard_digits, max_terms)
        self._local = threading.local()     # not a field: outside ==, hash and repr
        return self

    @property
    def working_digits(self) -> int:
        return self.target_digits + self.guard_digits

    @property
    def ctx(self):
        """Private mpmath context at the working precision.

        One clone per thread: sharing a live context between threads is
        not bit-deterministic, and the concurrency contract promises
        results independent of scheduling.  mpmath is imported here, at the
        first context, so a run that never asks for one never loads it.
        """
        c = getattr(self._local, "ctx", None)
        if c is None:
            from mpmath import mp
            c = mp.clone()
            c.dps = self.working_digits
            self._local.ctx = c
        return c

    def doubled(self) -> "PrecisionPolicy":
        return PrecisionPolicy(2 * self.target_digits, self.guard_digits,
                               2 * self.max_terms)

    @property
    def tol(self):
        return self.ctx.mpf(10) ** (-self.target_digits)


# (name, binary precision) -> mpf; the values are the same in every
# context at that precision, so one table serves all policies
_const_cache: dict = {}
_const_lock = threading.Lock()


def special(name: str, pol):
    """Transcendental constant at the precision of `pol`, memoized per precision.

    `pol` is a :class:`PrecisionPolicy` or an mpmath context; the value is
    returned as an mpf of that context.
    """
    ctx = pol.ctx if isinstance(pol, PrecisionPolicy) else pol
    key = (name, ctx.prec)
    with _const_lock:
        val = _const_cache.get(key)
    if val is not None:
        return ctx.make_mpf(val)
    if name == "pi":
        val = +ctx.pi
    elif name == "ln2":
        val = +ctx.ln2
    elif name == "catalan":
        val = +ctx.catalan
    elif name == "zeta3":
        val = ctx.zeta(3)
    elif name == "b4":
        val = (ctx.zeta(4, ctx.mpf(1) / 4) - ctx.zeta(4, ctx.mpf(3) / 4)) / ctx.mpf(4) ** 4
    else:
        raise MPNumError(f"unknown constant {name!r}; expected one of {_CONSTANT_NAMES}")
    with _const_lock:
        _const_cache[key] = val._mpf_
    return val


# ---------------------------------------------------------------------------
# numeric summation with a tail certified by the exact term ratio
# ---------------------------------------------------------------------------

def ratio_sum(first, ratio: tuple, pol: PrecisionPolicy, name: str = "series",
              start: int = 0, relative: bool = False, flag: str = "--max-terms",
              count: int | None = None):
    """Sum t_start, t_(start+1), ... from t_start = `first`; certify tail and rounding.

    ratio = (x, alpha, beta) declares t_(k+1) / t_k = x prod_i (k + alpha_i) /
    (k + beta_i) exactly, x rational; every later term is formed from it as
    an integer mantissa T of _GUARD_BITS more bits than the working precision,
    by one exact product with the integers p, q of `hgdata.term_step` and one
    truncating division, with error bound E <- ceil(E |p| / q) + 1 units of T.
    The sum is an integer in the units of the first term's T, returned
    exactly (so with more bits than the working precision); `rounding`
    bounds its error, the E included (that of `first` is the caller's).

    `count` terms, at least 1, are summed in full.  Otherwise the sum stops at the first
    k > 8 with |t_k| < 10^-(working digits + 5), times max(1, |sum|) if
    `relative`, and raises DivergenceError past k = max_terms.  With t_n the
    last term added, the rest of the series is at most |t_n| rho / (1 - rho)
    for rho = sup over k >= n of |t_(k+1) / t_k|: the explicit-ratio case of
    Mezzarobba and Salvy (JSC 2010); |t_n| is taken as (|T| + E) 2^e.
    TailBoundError, naming `flag`, when rho >= 1 or tail + rounding exceeds
    10^-digits; MPNumError, before any term, when some k >= start is a pole
    of the ratio (k + beta_i = 0).  Returns (sum, tail, rounding).
    """
    ctx = pol.ctx
    wp = ctx.prec + _GUARD_BITS
    x, alpha, beta = ratio
    poles = [-b for b in beta if -b >= start and b == int(b)]
    if poles:
        raise MPNumError(f"{name}: the term ratio t_(k+1) / t_k has a pole at k = {min(poles)}")
    from .hgdata import term_step     # here, so that lfun, which sums no series, loads no hgdata
    step = term_step(x, alpha, beta)
    T, e = _man_exp(ctx.mpf(first))
    T, e = T << (wp - T.bit_length()), e - (wp - T.bit_length())
    # t_k is T 2^e within E 2^e; the sum is S 2^es within R 2^es
    S, es, E, R, k = T, e, 0, 0, start
    tm, te = _man_exp(ctx.mpf(10) ** (-pol.working_digits - 5))
    last = None if count is None else start + count - 1
    while k != last:
        if count is None:
            stop = (tm * abs(S), te + es) if relative and _below(1, 0, abs(S), es) else (tm, te)
            if k > 8 and _below(abs(T), e, *stop):
                break
            if k > pol.max_terms:
                raise DivergenceError(f"{name} truncation cap hit after {pol.max_terms} "
                                      "terms (raise --max-terms)")
        p, q = step(k)
        # shift so that the new T again has about wp bits
        s = wp + q.bit_length() - T.bit_length() - p.bit_length() if T and p else 0
        p, q = (p << s, q) if s >= 0 else (p, q << -s)
        T, E, e, k = T * p // q, -(-E * abs(p) // abs(q)) + 1, e - s, k + 1
        d = e - es
        S, R = (S + (T << d), R + (E << d)) if d >= 0 else (S + (T >> -d), R + (E >> -d) + 2)
    rho = abs(Fraction(x))
    for a, b in zip(alpha, beta, strict=True):
        if k + a < 0 or k + b <= 0:         # not past this factor's zero and pole
            rho = Fraction(1)
            break
        # past them (j + a) / (j + b) is monotone in j with limit 1
        rho *= max(Fraction(k + a) / (k + b), 1)
    if rho >= 1:
        raise TailBoundError(f"{name}: the term ratio past k = {k} is not bounded below 1, "
                             f"so the tail is not certified (raise {flag}, or the point "
                             "lies outside the disk of convergence)")
    tail = ctx.ldexp(abs(T) + E, e) * (ctx.mpf(rho.numerator) / (rho.denominator - rho.numerator))
    rounding = ctx.ldexp(R, es)
    if tail + rounding > pol.tol:
        raise TailBoundError(f"{name}: certified tail bound {ctx.nstr(tail + rounding, 3)} "
                             f"exceeds 10^-{pol.target_digits} after {k + 1 - start} terms "
                             f"(raise {flag})")
    return ctx.ldexp(S, es), tail, rounding


def _man_exp(v) -> tuple:
    """(m, e), integers with m 2^e = v for an mpf v."""
    sign, m, e, _ = v._mpf_
    return (-m if sign else m), e


def _below(m: int, e: int, n: int, f: int) -> bool:
    """m 2^e < n 2^f, exactly."""
    return m << (e - f) < n if e >= f else m < n << (f - e)


def fixed_terms(rate: float, pol: PrecisionPolicy, least: int, pad: int, name: str) -> int:
    """Truncation index K of a series whose terms fall like e^(-rate k).

    K = max(least, int((working digits + 10) ln 10 / rate) + pad), the last
    index summed.  DivergenceError, naming --max-terms, when K exceeds
    max_terms: the cap ratio_sum keeps for the series it stops itself.
    """
    return capped_terms(max(least, int((pol.working_digits + 10) * math.log(10) / rate) + pad),
                        pol, name)


def power_sums(rows, x, ctx) -> list:
    """[sum_k row[k] x^k for each row of ctx numbers], in one pass over k
    ascending: x^k is formed once, by repeated multiplication, and a zero
    row[k] adds nothing.  A row ends at the K fixed_terms chose; no tail is
    bounded here."""
    accs = [ctx.mpf(0)] * len(rows)
    xp = ctx.mpf(1)
    for k in range(max(map(len, rows), default=0)):
        for i, row in enumerate(rows):
            if k < len(row) and row[k]:
                accs[i] = accs[i] + row[k] * xp
        xp = xp * x
    return accs


def capped_terms(K: int, pol: PrecisionPolicy, name: str) -> int:
    """K, the terms a sum fixed in advance takes; DivergenceError, naming
    --max-terms, when K exceeds max_terms."""
    if K > pol.max_terms:
        raise DivergenceError(f"{name} truncation cap hit: it needs {K} terms, more than "
                              f"{pol.max_terms} (raise --max-terms)")
    return K


def hurwitz_zeta(s, x, derivative_in_s: int, pol: PrecisionPolicy):
    """zeta(s, x) or d/ds zeta(s, x) for x in (0, 1]."""
    ctx = pol.ctx
    if derivative_in_s not in (0, 1):
        raise MPNumError("derivative_in_s must be 0 or 1")
    sc = ctx.mpc(s)
    if sc == 1:
        raise PolesError("Hurwitz zeta pole at s = 1")
    xr = ctx.mpf(x) if not isinstance(x, Fraction) else ctx.mpf(x.numerator) / x.denominator
    if not (0 < xr <= 1):
        raise MPNumError("x must lie in (0, 1]")
    if sc.imag == 0:
        sc = sc.real
    return ctx.zeta(sc, xr, derivative_in_s)
