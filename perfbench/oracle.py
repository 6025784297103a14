"""Reference values the benchmark checks hyperreg's output against.

Nothing here imports hyperreg: every reference is either recomputed
independently (exact Pochhammer products, mpmath's own hypergeometric and
Hurwitz-zeta routines at raised precision, closed forms) or read from
``reference.json``, which ``make_reference.py`` recorded at the seed commit
with a higher ``--digits`` than the workloads use.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath

REF_DIGITS = 60
CTX = mpmath.mp.clone()
CTX.dps = REF_DIGITS


@functools.cache
def reference() -> dict:
    return json.loads(Path(__file__).with_name("reference.json").read_text())


class Mismatch(Exception):
    """An output disagrees with its reference; the message gives the deviation."""


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# printed-digit comparison
# ---------------------------------------------------------------------------

def check_digits(printed: str, ref, digits: int, what: str):
    """`printed` must be `ref` rounded to `digits` significant digits.

    mpmath's nstr drops trailing zeros, so the unit in the last place comes
    from the requested digit count, not from the printed string.  A printed
    digit string is correct when it lies within half a unit of the reference.
    """
    ref = CTX.mpf(ref)
    val = CTX.mpf(printed)
    if ref == 0:
        raise Mismatch(f"{what}: zero reference")
    ulp = CTX.mpf(10) ** (int(CTX.floor(CTX.log10(abs(ref)))) - digits + 1)
    dev = abs(val - ref)
    if dev > ulp / 2 * (1 + CTX.mpf(10) ** -6):
        raise Mismatch(f"{what}: printed {printed}, reference "
                       f"{CTX.nstr(ref, digits + 5)}, deviation {CTX.nstr(dev / ulp, 3)} ulp")


# ---------------------------------------------------------------------------
# hypergeometric coefficient streams
# ---------------------------------------------------------------------------

def parse_data(text: str):
    a, b = text.split(";")
    return [Fraction(x) for x in a.split(",")], [Fraction(x) for x in b.split(",")]


def pochhammer_coefficients(a, b, K: int, scale: Fraction) -> list:
    """[a_k scale^k for k < K] with a_k = prod (a_i)_k / prod (b_j)_k."""
    out, c = [], Fraction(1)
    for k in range(K):
        out.append(c)
        c = c * math.prod(ai + k for ai in a) / math.prod(bj + k for bj in b) * scale
    return out


def integral_scale(a, b) -> Fraction:
    """C with z = C t: exp(sum_i (psi(1) - psi(a_i)) - sum_j (psi(1) - psi(b_j)))."""
    log_c = sum(CTX.psi(0, 1) - CTX.psi(0, CTX.mpf(x.numerator) / x.denominator) for x in a) \
        - sum(CTX.psi(0, 1) - CTX.psi(0, CTX.mpf(x.numerator) / x.denominator) for x in b)
    c = CTX.exp(log_c)
    n = int(CTX.nint(c))
    if abs(c - n) > CTX.mpf(10) ** -30:
        raise Mismatch(f"scale of {a};{b} is not an integer: {CTX.nstr(c, 20)}")
    return Fraction(n)


def hypergeometric_value(a, b, x: Fraction):
    """sum_k prod (a_i)_k / prod (b_j)_k x^k by mpmath.hyper."""
    mp = lambda q: CTX.mpf(q.numerator) / q.denominator
    return CTX.hyper([mp(q) for q in a] + [1], [mp(q) for q in b], mp(x))


# ---------------------------------------------------------------------------
# Dirichlet L-values
# ---------------------------------------------------------------------------

def kronecker(D: int, n: int) -> int:
    """Kronecker symbol (D|n) for n >= 1, by quadratic reciprocity."""
    result = 1
    while n % 2 == 0:
        n //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            result = -result
    a, m = D % n, n
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def dirichlet_L(D: int, s: Fraction, order: int):
    """d^order/ds^order L(chi_D, s) = q^-s sum_a chi(a) zeta(s, a/q), s != 1."""
    q = abs(D)
    sv = CTX.mpf(s.numerator) / s.denominator
    logq = CTX.log(q)
    total = CTX.mpf(0)
    for a in range(1, q + 1):
        c = kronecker(D, a)
        if not c:
            continue
        x = CTX.mpf(a) / q
        # Leibniz rule on q^-s * zeta(s, x)
        total += c * sum(math.comb(order, k) * (-logq) ** (order - k)
                         * CTX.zeta(sv, x, k) for k in range(order + 1))
    return total * CTX.power(q, -sv)


def closed_form_L(D: int, s: Fraction, order: int):
    """Catalan's constant and log of the golden ratio, or None elsewhere."""
    if (D, s, order) == (-4, 2, 0):
        return +CTX.catalan
    if (D, s, order) == (5, 0, 1):
        return CTX.log((1 + CTX.sqrt(5)) / 2)
    return None
