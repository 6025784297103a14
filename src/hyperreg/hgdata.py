"""Hypergeometric data (a, b), gamma vectors, the scale C and the exact stream a_k C^k.

A datum (a, b) is a pair of equal-length lists of rationals in (0, 1].
Every exact series here and in the case studies steps by a hypergeometric
term ratio x prod_i (k + alpha_i) / (k + beta_i); `term_step` is the one
place that step is written, as a pair of integers: `ratio_stream` is its
exact running product, and `mpnum.ratio_sum` its fixed-point one.
Standard library only, so an exact ``period`` loads neither mpmath nor the
series algebra.  :mod:`hyperreg.hypergeom` re-exports the data and stream names.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm, prod


class HGError(ValueError):
    pass


class HGData(namedtuple("HGData", "a b")):
    __slots__ = ()

    def __new__(cls, a, b):
        if len(a) != len(b):
            raise HGError("index lists must have equal cardinality")
        if not a:
            raise HGError("empty hypergeometric data")
        for x in a + b:
            if not isinstance(x, Fraction) or not (0 < x <= 1):
                raise HGError(f"index {x} outside (0, 1]")
        return super().__new__(cls, a, b)

    @property
    def m(self) -> int:
        return len(self.a)

    def b_all_ones(self) -> bool:
        return all(x == 1 for x in self.b)

    def __str__(self):
        fa = ",".join(str(x) for x in self.a)
        fb = ",".join(str(x) for x in self.b)
        return f"{fa};{fb}"


class GammaVector(namedtuple("GammaVector", "entries")):
    __slots__ = ()

    def __new__(cls, entries):
        if not entries or any(g == 0 for g in entries):
            raise HGError("gamma entries must be nonzero")
        if sum(entries) != 0:
            raise HGError("gamma entries must sum to 0")
        return super().__new__(cls, entries)


CycleType = namedtuple("CycleType", "label p k_theory")   # Ia|Ib|II|IV|generic, twist, K0|K2|K4


def parse_hg(text: str) -> HGData:
    try:
        sa, sb = text.split(";")
        a = tuple(Fraction(x) for x in sa.split(",") if x.strip())
        b = tuple(Fraction(x) for x in sb.split(",") if x.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise HGError(f"cannot parse hypergeometric data {text!r}: {exc}") from None
    if not a or not b:
        raise HGError(f"empty index list in {text!r}")
    return HGData(a, b)


def parse_gamma(text: str) -> GammaVector:
    try:
        entries = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise HGError(f"cannot parse gamma vector {text!r}: {exc}") from None
    return GammaVector(entries)


# ---------------------------------------------------------------------------
# gamma vector <-> (a, b), and the rational scale C
# ---------------------------------------------------------------------------

def _mobius(n: int) -> int:
    result, p, m = 1, 2, n
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def is_squarefree(n: int) -> bool:
    return n >= 1 and _mobius(n) != 0


def _roots_of_unity(n: int) -> list:
    """Roots of T^n - 1 as fractions in (0, 1]."""
    return [Fraction(j, n) if j else Fraction(1) for j in range(n)]


def from_gamma(g: GammaVector) -> tuple:
    """Match roots of prod_{g>0}(T^g - 1) / prod_{g<0}(T^|g| - 1) into (a, b).

    Returns (HGData, C) where z = C t is the rational rescaling making the
    t-coefficients integral; C = prod |gamma_i|^{gamma_i}, with sides
    canonicalized so that an all-ones list (maximal unipotent side) is b.
    """
    num: dict = {}
    den: dict = {}
    for gam in g.entries:
        target = num if gam > 0 else den
        for r in _roots_of_unity(abs(gam)):
            target[r] = target.get(r, 0) + 1
    # cancel
    for r in sorted(set(num) & set(den)):
        c = min(num[r], den[r])
        num[r] -= c
        den[r] -= c
        if not num[r]:
            del num[r]
        if not den[r]:
            del den[r]
    a = tuple(sorted(r for r, c in num.items() for _ in range(c)))
    b = tuple(sorted(r for r, c in den.items() for _ in range(c)))
    C = Fraction(1)
    for gam in g.entries:
        C *= Fraction(abs(gam)) ** gam
    if not a and not b:
        # degenerate trivial local system
        return HGData((Fraction(1),), (Fraction(1),)), Fraction(1)
    if len(a) != len(b):
        raise HGError("gamma vector produced unbalanced data")
    h = HGData(a, b)
    if not h.b_all_ones() and all(x == 1 for x in a):
        h = HGData(b, a)
        C = 1 / C
    return h, C


def _cyclotomic_counts(indices: tuple) -> dict:
    """Decompose a Galois-stable multiset of e(p/q) into cyclotomic counts."""
    counts: dict = {}
    pool: dict = {}
    for x in indices:
        pool[x] = pool.get(x, 0) + 1
    while pool:
        x = next(iter(pool))
        q = x.denominator if x != 1 else 1
        prim = [Fraction(p, q) for p in range(1, q + 1) if gcd(p, q) == 1]
        if q == 1:
            prim = [Fraction(1)]
        mult = min(pool.get(r, 0) for r in prim)
        if mult == 0:
            raise HGError(f"index multiset not Galois-stable at denominator {q}")
        counts[q] = counts.get(q, 0) + mult
        for r in prim:
            pool[r] -= mult
            if not pool[r]:
                del pool[r]
    return counts


def scale_C(h: HGData) -> Fraction:
    """The rational C with z = C t (equivalently 1/lambda of the S-series)."""
    ca = _cyclotomic_counts(h.a)
    cb = _cyclotomic_counts(h.b)
    exps: dict = {}
    for counts, sign in ((ca, 1), (cb, -1)):
        for q, c in counts.items():
            for d in range(1, q + 1):
                if q % d == 0:
                    mu = _mobius(q // d)
                    if mu:
                        exps[d] = exps.get(d, 0) + sign * mu * c
    C = Fraction(1)
    for d, e in exps.items():
        C *= Fraction(d) ** (d * e)
    return C


# ---------------------------------------------------------------------------
# coefficient streams
# ---------------------------------------------------------------------------

def term_step(x, alpha, beta):
    """k -> (p, q), integers with p / q = t_(k+1) / t_k = x prod_i (k + alpha_i) / (k + beta_i).

    x and the alpha_i, beta_i (as many of each) are ints or Fractions.  With
    D the common denominator of the alpha_i and beta_i, p = x_n prod_i
    (D k + D alpha_i) and q = x_d prod_i (D k + D beta_i) for x = x_n / x_d:
    every factor is an integer at integer k, and the powers of D cancel.
    """
    D = lcm(*(c.denominator for c in (*alpha, *beta)))
    A, B = [int(D * c) for c in alpha], [int(D * c) for c in beta]
    xn, xd = x.as_integer_ratio()

    def step(k):
        Dk = D * k
        return xn * prod(map(Dk.__add__, A)), xd * prod(map(Dk.__add__, B))
    return step


def ratio_stream(x, alpha, beta, K: int) -> list:
    """[t_0, ..., t_(K-1)] from t_0 = 1 and t_(k+1) / t_k = x prod_i (k + alpha_i) / (k + beta_i).

    The running product is a pair of integers, and each step is one
    Fraction of the integers of `term_step`.
    """
    step = term_step(x, alpha, beta)
    out, N, M = [Fraction(1)], 1, 1
    for k in range(K - 1):
        p, q = step(k)
        t = Fraction(N * p, M * q)
        N, M = t.numerator, t.denominator
        out.append(t)
    return out


def coeff_stream(h: HGData, K: int, scale: Fraction = Fraction(1)) -> list:
    """[a_0, a_1 C, a_2 C^2, ...]: coefficients in t when z = C t."""
    return ratio_stream(scale, h.a, h.b, K)
