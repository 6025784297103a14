"""Truncated log-power series algebra.

The carriers here are:

* :class:`PowSeries` -- sum_k c_k z^(rho+k), rho a rational leading
  exponent, truncated after K coefficients;
* :class:`LogSeries` -- sum_j (log z)^j * PowSeries_j, the universal
  carrier of periods and regulator entries;
* :class:`SLaurent`  -- truncated Laurent series in a deformation
  parameter s whose coefficients are LogSeries, with an optional log(s)
  marker slot, used by Frobenius deformations and the annulus-residue
  ("Hadamard") computations, whose eps-expansions are SLaurents in eps.

P(D) = prod (D + c), D = z d/dz, acts exactly in one step through P's Taylor
table (``_apply_shifted_chain``); :func:`theta` is its one-factor case P(x) = x,
and ``_linear_product`` expands prod (x + c) for it, ``ode`` and ``hypergeom``.

:func:`ratio_sum`, re-exported from :mod:`mpnum`, forms and sums numeric
series from a first term and an exact term ratio, to a stopping index or
cap, with a certified tail and rounding.
``LogSeries.evaluate`` sums a stored truncation through :func:`mpnum.power_sums`,
the one fixed-point pass of the sums fixed in advance (``mpnum.fixed_terms``),
and bounds no tail.

Coefficients are exact (int / Fraction / ExactNum) or floating (mpf/mpc);
the two modes are never mixed inside one series.  Exact series convert
losslessly to floating at any precision policy via ``to_floating``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, factorial
from numbers import Rational

from .exactnum import ExactNum
from .mpnum import DivergenceError, PrecisionPolicy, TailBoundError, power_sums, ratio_sum

__all__ = ["PowSeries", "LogSeries", "SLaurent",
           "SeriesError", "OffsetMismatch", "DivergenceError", "TailBoundError",
           "ratio_sum",
           "theta", "anti_dlog", "hadamard", "residue_extract",
           "sp_mul", "sp_inv", "sp_exp"]


class SeriesError(ValueError):
    pass


class OffsetMismatch(SeriesError):
    """Offsets differ by a non-integer; padding cannot reconcile them."""


def _czero(c) -> bool:
    if isinstance(c, ExactNum):
        return c.is_zero()
    return c == 0


def _to_mp(c, ctx):
    if isinstance(c, ExactNum):
        return c.to_mp(ctx)
    if isinstance(c, Rational):
        return ctx.mpf(c.numerator) / c.denominator
    return c


# ---------------------------------------------------------------------------
# PowSeries
# ---------------------------------------------------------------------------

class PowSeries:
    """sum_{k<K} coeffs[k] * z^(offset+k), truncated at z^(offset+K)."""

    __slots__ = ("offset", "coeffs")

    def __init__(self, offset, coeffs):
        self.offset = Fraction(offset)
        self.coeffs = list(coeffs)

    @property
    def K(self) -> int:
        return len(self.coeffs)

    @property
    def bound(self) -> Fraction:
        """Exponent through which the series is trusted (exclusive)."""
        return self.offset + len(self.coeffs)

    def copy(self) -> "PowSeries":
        return PowSeries(self.offset, self.coeffs)

    def __repr__(self):
        head = ", ".join(repr(c) for c in self.coeffs[:4])
        tail = ", ..." if len(self.coeffs) > 4 else ""
        return f"PowSeries(z^{self.offset} * [{head}{tail}], K={self.K})"

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "PowSeries") -> "PowSeries":
        d = other.offset - self.offset
        if d.denominator != 1:
            raise OffsetMismatch(
                f"offsets {self.offset} and {other.offset} differ by a non-integer")
        lo = min(self.offset, other.offset)
        hi = min(self.bound, other.bound)
        n = int(hi - lo)
        if n <= 0:
            raise SeriesError("truncation windows do not overlap")
        out = [0] * n
        for src in (self, other):
            base = int(src.offset - lo)
            for k, c in enumerate(src.coeffs):
                j = base + k
                if j < n:
                    out[j] = out[j] + c
        return PowSeries(lo, out)

    def __neg__(self) -> "PowSeries":
        return PowSeries(self.offset, [-c for c in self.coeffs])

    def __sub__(self, other: "PowSeries") -> "PowSeries":
        return self + (-other)

    def __mul__(self, other: "PowSeries") -> "PowSeries":
        n = min(self.K, other.K)
        if n == 0:
            return PowSeries(self.offset + other.offset, [])
        out = [0] * n
        for i, a in enumerate(self.coeffs[:n]):
            if _czero(a):
                continue
            for j, b in enumerate(other.coeffs[: n - i]):
                if _czero(b):
                    continue
                out[i + j] = out[i + j] + a * b
        return PowSeries(self.offset + other.offset, out)

    def scale(self, c) -> "PowSeries":
        return PowSeries(self.offset, [c * x for x in self.coeffs])

    def shift(self, m) -> "PowSeries":
        """Multiply by z^m."""
        return PowSeries(self.offset + Fraction(m), self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, PowSeries):
            return NotImplemented
        return _ps_equal(self, other)

    def to_floating(self, pol: PrecisionPolicy) -> "PowSeries":
        ctx = pol.ctx
        return PowSeries(self.offset, [_to_mp(c, ctx) for c in self.coeffs])


def _ps_equal(a: PowSeries, b: PowSeries) -> bool:
    """Equality of the stored coefficient windows (zero-padded alignment)."""
    d = b.offset - a.offset
    if d.denominator != 1:
        return all(_czero(c) for c in a.coeffs) and all(_czero(c) for c in b.coeffs)
    # both windows from the lower offset; zip_longest pads the shorter end
    pad = [0] * abs(int(d))
    ca, cb = (a.coeffs, pad + b.coeffs) if d > 0 else (pad + a.coeffs, b.coeffs)
    for x, y in zip_longest(ca, cb, fillvalue=0):
        if isinstance(x, ExactNum) or isinstance(y, ExactNum):
            if ExactNum._coerce(x) != ExactNum._coerce(y):
                return False
        elif x != y:
            return False
    return True


# ---------------------------------------------------------------------------
# LogSeries
# ---------------------------------------------------------------------------

class LogSeries:
    """sum_j (log z)^j * parts[j]; parts[j] is a PowSeries or None."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = list(parts)
        while parts and parts[-1] is None:
            parts.pop()
        self.parts = parts

    @classmethod
    def from_pow(cls, ps: PowSeries, log_power: int = 0) -> "LogSeries":
        return cls([None] * log_power + [ps])

    @classmethod
    def constant(cls, c, K: int = 1) -> "LogSeries":
        return cls([PowSeries(0, [c] + [0] * (K - 1))])

    def part(self, j: int):
        if 0 <= j < len(self.parts):
            return self.parts[j]
        return None

    def is_zero(self) -> bool:
        return all(p is None or all(_czero(c) for c in p.coeffs) for p in self.parts)

    def __repr__(self):
        body = ", ".join(f"log^{j}: {p!r}" for j, p in enumerate(self.parts) if p is not None)
        return f"LogSeries({body})"

    def __add__(self, other: "LogSeries") -> "LogSeries":
        n = max(len(self.parts), len(other.parts))
        out = []
        for j in range(n):
            a, b = self.part(j), other.part(j)
            if a is None:
                out.append(b.copy() if b is not None else None)
            elif b is None:
                out.append(a.copy())
            else:
                out.append(a + b)
        return LogSeries(out)

    def __neg__(self) -> "LogSeries":
        return LogSeries([None if p is None else -p for p in self.parts])

    def __sub__(self, other: "LogSeries") -> "LogSeries":
        return self + (-other)

    def __mul__(self, other: "LogSeries") -> "LogSeries":
        out: list = [None] * (len(self.parts) + len(other.parts) - 1) if self.parts and other.parts else []
        for i, a in enumerate(self.parts):
            if a is None:
                continue
            for j, b in enumerate(other.parts):
                if b is None:
                    continue
                prod = a * b
                out[i + j] = prod if out[i + j] is None else out[i + j] + prod
        return LogSeries(out)

    def scale(self, c) -> "LogSeries":
        return LogSeries([None if p is None else p.scale(c) for p in self.parts])

    def shift(self, m) -> "LogSeries":
        return LogSeries([None if p is None else p.shift(m) for p in self.parts])

    def __eq__(self, other):
        if not isinstance(other, LogSeries):
            return NotImplemented
        n = max(len(self.parts), len(other.parts))
        zero = PowSeries(0, [])
        for j in range(n):
            a = self.part(j) or zero
            b = other.part(j) or zero
            if not _ps_equal(a, b):
                return False
        return True

    def to_floating(self, pol: PrecisionPolicy) -> "LogSeries":
        return LogSeries([None if p is None else p.to_floating(pol) for p in self.parts])

    # -- evaluation ------------------------------------------------------
    def evaluate(self, z0, pol: PrecisionPolicy):
        """Value at z0 > 0 of the stored truncation.

        The real and imaginary parts of every log-part's coefficients, floated
        at pol's precision, are summed in one power_sums pass, and the parts
        are added as sum_j z0^offset (log z0)^j s_j in ascending j.  Neither
        power_sums' rounding bound nor a tail is returned: the truncation is
        the caller's.
        """
        ctx = pol.ctx
        z = ctx.mpf(z0.numerator) / z0.denominator if isinstance(z0, Rational) else ctx.convert(z0)
        if z <= 0:
            raise SeriesError("evaluation point must be positive")
        parts = [(j, p) for j, p in enumerate(self.parts) if p is not None]
        vals = [[ctx.convert(_to_mp(c, ctx)) for c in p.coeffs] for _, p in parts]
        sums, _ = power_sums([[ctx.re(v)._mpf_ for v in row] for row in vals]
                             + [[ctx.im(v)._mpf_ for v in row] for row in vals], z, ctx)
        lg = ctx.log(z)
        total = ctx.mpf(0)
        for (j, p), re, im in zip(parts, sums, sums[len(parts):]):
            acc = ctx.mpc(re, im) if im else re
            total = total + acc * z ** _to_mp(p.offset, ctx) * lg ** j
        return total

    # -- serialization ---------------------------------------------------
    def to_doc(self, pol: PrecisionPolicy) -> dict:
        def enc(c):
            if isinstance(c, int):
                return f"{c}/1"
            if isinstance(c, Rational):
                return f"{c.numerator}/{c.denominator}"
            if isinstance(c, ExactNum):
                if c.is_rational():
                    q = c.as_rational()
                    return f"{q.numerator}/{q.denominator}"
                c = c.to_mp(pol.ctx)
            return pol.ctx.nstr(c, pol.target_digits)

        return {"parts": [
            None if p is None else {
                "offset": f"{p.offset.numerator}/{p.offset.denominator}",
                "coeffs": [enc(c) for c in p.coeffs],
            }
            for p in self.parts]}

    def to_json(self, pol: PrecisionPolicy) -> str:
        """to_doc as JSON text, which perfbench/api_warm.py parses."""
        import json
        return json.dumps(self.to_doc(pol), sort_keys=True)


# ---------------------------------------------------------------------------
# P(D) = prod (D + c), theta = z d/dz its one-factor case, and theta's inverse
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _taylor_table(factors: tuple, offset: Fraction, K: int) -> tuple:
    """Rows (P(e), P'(e), ..., P^(n)(e)) at e = offset + k for k < K,
    where P(x) = prod_c (x + c) over the n factors."""
    table = []
    for k in range(K):
        t = _linear_product([offset + k + c for c in factors], len(factors))  # P(e + x)
        table.append(tuple(factorial(i) * x for i, x in enumerate(t)))
    return tuple(table)


def _apply_shifted_chain(factors, f: LogSeries) -> LogSeries:
    """prod (D + c) applied to f, exactly, in one step.

    With P(x) = prod (x + c), D acts on z^e log^j z as e plus the lowering
    map log^j -> j log^(j-1), so

        P(D) z^e log^j z = sum_i C(j, i) P^(i)(e) z^e log^(j-i) z.

    P's Taylor table is computed once per exponent.  Output part m gathers
    the input parts m .. m + deg P on the window PowSeries addition gives
    them: from the lowest offset up to the lowest bound.  A lone part keeps
    its own window, even an empty one.
    """
    factors = tuple(Fraction(c) for c in factors)
    n = len(factors)
    out = []
    for m in range(len(f.parts)):
        src = [(m + i, p) for i, p in enumerate(f.parts[m:m + n + 1]) if p is not None]
        if not src:
            out.append(None)
            continue
        lo = min(p.offset for _, p in src)
        if any((p.offset - lo).denominator != 1 for _, p in src):
            raise OffsetMismatch("log-parts on exponent lattices differing by a non-integer")
        width = int(min(p.bound for _, p in src) - lo)
        if width <= 0 and len(src) > 1:
            raise SeriesError("truncation windows do not overlap")
        acc = [None] * width
        for j, p in src:
            i = j - m
            b = comb(j, i)
            base = int(p.offset - lo)
            table = _taylor_table(factors, p.offset, p.K)
            for k, c in enumerate(p.coeffs[:max(0, width - base)]):
                w = table[k][i]
                if not w or _czero(c):
                    continue
                term = c * (w if b == 1 else b * w)
                prev = acc[base + k]
                acc[base + k] = term if prev is None else prev + term
        out.append(PowSeries(lo, [0 if x is None else x for x in acc]))
    return LogSeries(out)


def theta(a: LogSeries) -> LogSeries:
    """D = z d/dz, the chain of the one factor D + 0:
    D(z^e log^j z) = e z^e log^j z + j z^e log^(j-1) z."""
    return _apply_shifted_chain((0,), a)


def anti_dlog(a: LogSeries, constant=0) -> LogSeries:
    """Primitive under D with value `constant` in the z^0 log^0 slot.

    theta(anti_dlog(a, c)) == a exactly.  A nonzero z^0 log^j coefficient
    integrates to log^(j+1) z / (j+1).
    """
    out_parts: dict = {}

    def put(j, e, c):
        if _czero(c):
            return
        slots = out_parts.setdefault(j, {})
        slots[e] = slots.get(e, 0) + c

    maxj = len(a.parts) + 1
    for j, p in enumerate(a.parts):
        if p is None:
            continue
        for k, c in enumerate(p.coeffs):
            if _czero(c):
                continue
            e = p.offset + k
            if e == 0:
                put(j + 1, Fraction(0), Fraction(1, j + 1) * c)
                continue
            # D(z^e sum_i d_i log^i) = a-term requires d_j = c/e and the
            # downward ladder d_i = -(i+1) d_{i+1} / e
            cur = c / e
            put(j, e, cur)
            for i in range(j - 1, -1, -1):
                cur = -((i + 1) * cur) / e
                put(i, e, cur)
    put(0, Fraction(0), constant)

    # the D-primitive is known through the same exponent bound as the input
    bounds = [p.bound for p in a.parts if p is not None and p.K]
    B = min(bounds) if bounds else Fraction(1)

    parts = []
    for j in range(maxj):
        slots = out_parts.get(j)
        if not slots:
            parts.append(None)
            continue
        exps = sorted(slots)
        lo = exps[0]
        span = B - lo
        n = max(int(exps[-1] - lo) + 1,
                int(span) if span.denominator == 1 else int(span) + 1)
        coeffs = [0] * n
        for e, c in slots.items():
            step = e - lo
            if step.denominator != 1:
                raise OffsetMismatch("primitive produced mixed exponent lattices")
            coeffs[int(step)] = c
        parts.append(PowSeries(lo, coeffs))
    return LogSeries(parts)


def hadamard(a: PowSeries, b: PowSeries) -> PowSeries:
    """Coefficientwise product (A . B)_k = a_k b_k (integer-offset-0 series)."""
    if a.offset != 0 or b.offset != 0:
        raise SeriesError("hadamard requires both offsets 0")
    n = min(a.K, b.K)
    return PowSeries(0, [a.coeffs[k] * b.coeffs[k] for k in range(n)])


# ---------------------------------------------------------------------------
# Laurent series in the deformation parameter s
# ---------------------------------------------------------------------------

class SLaurent:
    """Truncated Laurent series in s with LogSeries coefficients.

    terms maps (s_exponent, log_s_power in {0,1}) -> LogSeries.
    Frobenius-deformation instances keep min_order >= -1; annulus-residue
    integrands may go deeper (min_order = -K).  The eps-expansions of
    ``residue_extract`` are instances in eps: slot (m, 0) holds eps^m and
    slot (0, 1) holds log(eps).
    """

    __slots__ = ("terms", "s_order", "min_order")

    def __init__(self, terms: dict, s_order: int, min_order: int = -1):
        self.terms = {k: v for k, v in terms.items() if v is not None and not v.is_zero()}
        self.s_order = s_order
        self.min_order = min_order
        for (m, lg) in self.terms:
            if lg not in (0, 1):
                raise SeriesError("log(s) power must be 0 or 1")
            if m < min_order or m > s_order:
                raise SeriesError(f"s-exponent {m} outside [{min_order}, {s_order}]")

    def slot(self, m: int, lg: int = 0) -> LogSeries:
        return self.terms.get((m, lg), LogSeries([]))

    def __add__(self, other: "SLaurent") -> "SLaurent":
        s_order = min(self.s_order, other.s_order)
        min_order = min(self.min_order, other.min_order)
        out = {}
        keys = set(self.terms) | set(other.terms)
        for k in keys:
            if not (min_order <= k[0] <= s_order):
                continue
            a, b = self.terms.get(k), other.terms.get(k)
            out[k] = a + b if a is not None and b is not None else (a or b)
        return SLaurent(out, s_order, min_order)

    def __neg__(self) -> "SLaurent":
        return SLaurent({k: -v for k, v in self.terms.items()}, self.s_order, self.min_order)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "SLaurent") -> "SLaurent":
        # truncation: degrees above min(s_order_i + min_order_j shifts) are unsafe;
        # we keep the conservative window [min1+min2, min(so1+min2, so2+min1)]
        s_order = min(self.s_order + other.min_order, other.s_order + self.min_order)
        min_order = self.min_order + other.min_order
        out: dict = {}
        for (m1, l1), a in self.terms.items():
            for (m2, l2), b in other.terms.items():
                if l1 + l2 > 1:
                    raise SeriesError("unsupported integrand shape: log(s)^2 or deeper")
                m = m1 + m2
                if m > s_order or m < min_order:
                    continue
                key = (m, l1 + l2)
                prod = a * b
                out[key] = prod if key not in out else out[key] + prod
        return SLaurent(out, s_order, min_order)

    def __eq__(self, other):
        if not isinstance(other, SLaurent):
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        for k in keys:
            a = self.terms.get(k, LogSeries([]))
            b = other.terms.get(k, LogSeries([]))
            if not (a == b):
                return False
        return True


def residue_extract(integrand: SLaurent) -> SLaurent:
    """(1/2 pi i) * contour integral of integrand * ds/s over |s| = eps,
    counterclockwise, as an SLaurent in eps on the integrand's window.

    Closed-form table:
      s^m, no log:  m == 0 -> coefficient, else 0;
      s^0 log s  -> log(eps);
      s^m log s (m != 0) -> (-1)^|m| eps^m / m, which vanishes as eps -> 0
      for m > 0.
    """
    out = {}
    for (m, lg), v in integrand.terms.items():
        if lg and m:
            out[(m, 0)] = v.scale(Fraction((-1) ** abs(m), m))
        elif m == 0:
            out[(0, lg)] = v
    return SLaurent(out, integrand.s_order, integrand.min_order)


# ---------------------------------------------------------------------------
# dense truncated power series helpers in one auxiliary variable
# (used for expansions in the Frobenius parameter s)
# ---------------------------------------------------------------------------

def sp_mul(a: list, b: list, order: int) -> list:
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if _czero(x):
            continue
        for j, y in enumerate(b[: order + 1 - i]):
            if _czero(y):
                continue
            out[i + j] = out[i + j] + x * y
    return out


def _linear_product(roots: list, order: int) -> list:
    """Coefficients of prod_c (c + u) in u, through u^order."""
    out = [1]
    for c in roots:
        out = [c * out[0]] + [c * out[i] + out[i - 1] for i in range(1, len(out))] + [out[-1]]
    return (out + [0] * order)[:order + 1]


def sp_inv(a: list, order: int) -> list:
    """Multiplicative inverse of a truncated series, a[0] != 0."""
    if _czero(a[0]):
        raise SeriesError("cannot invert series with zero constant term")
    c0 = a[0]
    inv0 = Fraction(1) / c0 if isinstance(c0, Rational) else 1 / c0
    out = [inv0] + [0] * order
    for n in range(1, order + 1):
        acc = 0
        for i in range(1, n + 1):
            if i < len(a) and not _czero(a[i]):
                acc = acc + a[i] * out[n - i]
        out[n] = -inv0 * acc
    return out


def sp_exp(a: list, order: int) -> list:
    """exp of a truncated series with a[0] == 0."""
    if a and not _czero(a[0]):
        raise SeriesError("sp_exp requires zero constant term")
    out = [1] + [0] * order
    # out' = a' * out  =>  (n+1) out[n+1] = sum_{i} (i+1) a[i+1] out[n-i]
    for n in range(order):
        acc = 0
        for i in range(n + 1):
            if i + 1 < len(a) and not _czero(a[i + 1]):
                acc = acc + (i + 1) * a[i + 1] * out[n - i]
        out[n + 1] = Fraction(1, n + 1) * acc
    return out
