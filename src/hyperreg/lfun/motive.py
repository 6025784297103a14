"""Smoothed approximate-functional-equation evaluator for motive L-functions.

Lambda(s) = N^(s/2) gamma(s) L(s) with gamma(s) a product of
Gamma_R(s + mu) = pi^(-(s+mu)/2) Gamma((s+mu)/2) and
Gamma_C(s + nu) = 2 (2 pi)^(-(s+nu)) Gamma(s + nu) factors, satisfying
Lambda(s) = sign * Lambda(w + 1 - s).  Both are 2^(1-e) (2^(1-e) pi)^(-x/2^e)
Gamma(x/2^e), with the halvings e = 1 and 0 held in _HALVINGS, which the
pole order and the limit at a pole read as well.

The incomplete-Mellin kernel F(s, y) = (1/2 pi i) int gamma(s+u) y^(-u) du/u
is computed on a truncated vertical line with a uniform trapezoid rule.  It
has the same value on every line right of the poles of gamma(s+u)/u, so the
line is free, and one rule (_abscissa) puts every kernel's 2.75 right of its
rightmost pole: the strip free of poles, and with it the trapezoid step, is
as wide for every kernel, while y^-c, which scales each value's rounding,
stays small.  A kernel returns I_1..I_(order+1), I_j(y) = (1/2 pi i)
int gamma(s+u) y^(-u) u^(-j) du, so F = I_1, and shifting u by eps gives
F(s+eps, y) = y^eps sum_j eps^j I_(j+1)(y).  So one kernel per (gamma data,
s, precision) holds one node list, gamma(s+u)/u, for every order; the I_2 and
I_3 lists, it divided by u once and twice, are formed when first needed.
One raw evaluator, _gamma_raw, forms gamma on libmp tuples with the bits of
the per-kind mpc expressions, at every node s + u and at motive_L's real s;
the logs of pi and 2 pi are formed once per kernel, and x, the power and
Gamma once per node and distinct (kind, shift) factor, so Gamma_C(s)^2 costs
one Gamma per node.  Evaluation sums in absolute fixed point, _GUARD_BITS
past the working precision, as mpnum.ratio_sum does: the nodes become
integers once per kernel and precision, each power of the rotation is one
truncated integer product shared by every I_j, and the real part of each
trapezoid sum, the one the kernel uses, is accumulated exactly and rounded
once (see _Kernel.__call__); _Kernel.rounding bounds each value, and a bound
past 10^-digits on the printed L, carried there through the Lambda -> L step
(_L_step), is a MotiveError.  A point the request cannot be
served at (a pole of Lambda, the wrong order at a trivial zero, or an s that
the working precision rounds onto a gamma pole it is not on) raises
PointError before any table or kernel is built.

Each side of the functional equation is one pass over n that accumulates
every R_j = sum_n a_n n^(-s) N^(s/2) I_(j+1)(y_n), each with its own stopping
rule.  On the right side y_n = n/(A sqrt(N)), so the factor
y_n^eps n^(-eps) N^(eps/2) of the term at s + eps is A^(-eps) for every n;
the mirror side, at w + 1 - s - eps, gives A^(-eps) too, with (-eps)^j for
eps^j.  With M_j the mirror sums, Lambda^(d)(s)/d! = [eps^d] A^(-eps)
sum_j eps^j (R_j + (-1)^j sign M_j - sum over the poles p0 of
res A^(p0-s)/(p0-s)^(j+1)), and no term carries a log n.  At points where
gamma has a pole of order m (trivial zeros), the order-m derivative comes
from the leading Taylor coefficient
Lambda(s0) / (N^(s0/2) lim (s-s0)^m gamma(s)).

Kernels are cached in memory per process, and, when motive_L or
lambda_derivs is given a directory `store`, on disk as well: each kernel
built is saved there as <sha256 of its key>.json and a later process loads
it instead of building it (see _stored_kernel).  The key is the gamma data,
the raw mpf of s, the context's (prec, rounding), the working digits,
mpmath's version and backend, and the sha256 of this file's bytes, which
hold the build (_abscissa, which places the line, among it) and _HALVINGS,
so an edit to the build invalidates every old entry; so does any other edit
to this file, at the cost of one rebuild per kernel.  An entry holds its
key, c, h and the node list as (sign, mantissa, exponent) integers, under a
sha256 of that text; one that does not decode, holds another key or fails
its checksum is a miss, rebuilt and rewritten.  The loaded nodes are the
saved ones, so every value keeps its bits, and the directory is safe to
delete.  With store=None, the default, the library reads and writes no
file; the `lfun` command passes <cache dir>/kernels.

Each kernel also keeps a table of its values (_Kernel.values): the list
I_1..I_(d+1) a call returns, per (prec, rounding) and raw mpf of y, at most
_KERNEL_VALUES_SIZE per kernel.  Each I_j is summed on its own, so a lower
order is a prefix of a stored list with the bits a new call gives.  A
repeated call at one point, or the mirror side at the centre s = (w+1)/2
with cutoff 1, evaluates no kernel.  The table is never stored.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from fractions import Fraction
from operator import mul

from mpmath.libmp import (from_man_exp, fzero, mpc_abs, mpc_add_mpf, mpc_div, mpc_exp, mpc_gamma,
                          mpc_log, mpc_mul, mpc_neg, mpc_pow, mpc_shift, mpf_cos_sin, mpf_log,
                          mpf_lt, mpf_mul, mpf_mul_int, round_nearest, to_fixed,
                          to_rational)

from ..mpnum import _GUARD_BITS, PrecisionPolicy, Record
from .euler import EulerFactorTable, dirichlet_coefficients, euler_ingest, write_atomic

__all__ = ["LFunctionSpec", "spec_from_json", "motive_L", "lambda_derivs",
           "CoverageError", "MotiveError", "PointError"]


class MotiveError(ValueError):
    pass


class PointError(MotiveError):
    """The point cannot serve the request: a pole of Lambda, or a trivial zero
    asked for a derivative order other than its gamma pole order."""


class CoverageError(MotiveError):
    """Euler table does not cover the primes the error target demands."""

    def __init__(self, msg, required):
        super().__init__(msg)
        self.required = required


class LFunctionSpec(Record):
    __slots__ = ("degree", "weight", "conductor", "gamma_shifts", "sign", "euler", "poles",
                 "label")

    def __init__(self, degree: int, weight: int, conductor: int, gamma_shifts: tuple,
                 sign: complex = 1, euler: EulerFactorTable | None = None, poles: tuple = (),
                 label: str = ""):
        self.degree, self.weight, self.conductor = degree, weight, conductor
        self.gamma_shifts = gamma_shifts    # of ("R"|"C", Fraction)
        self.sign, self.euler, self.label = sign, euler, label
        self.poles = poles                  # of (s0, residue of Lambda), simple poles
        if conductor < 1:
            raise MotiveError("conductor must be positive")
        for kind, _ in gamma_shifts:
            if kind not in _HALVINGS:
                raise MotiveError("gamma factor kind must be R or C")

    def gamma_signature(self):
        return tuple((k, Fraction(sh)) for k, sh in self.gamma_shifts)


# the JSON types of a spec file's fields, checked where spec_from_json reads
# them; each refusal is a ValueError, never a TypeError or a truncated value

def _spec_int(value, what: str) -> int:
    """An integral JSON number, or a string of digits."""
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    if isinstance(value, str) and value.strip().lstrip("+-").isdigit():
        return int(value)
    raise MotiveError(f"{what} must be an integer, got {value!r}")


def _spec_rational(value, what: str) -> Fraction:
    """A JSON number or a 'p/q' string, exactly."""
    if type(value) in (int, float, str):
        try:
            return Fraction(value)
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    raise MotiveError(f"{what} must be a rational, got {value!r}")


def _spec_real(value, what: str):
    """A finite JSON number, as parsed."""
    if type(value) is int or type(value) is float and math.isfinite(value):
        return value
    raise MotiveError(f"{what} must be a finite number, got {value!r}")


def _spec_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise MotiveError(f"{what} must be a string, got {value!r}")
    return value


def _spec_pairs(value, what: str) -> list:
    if not (isinstance(value, list)
            and all(isinstance(x, list) and len(x) == 2 for x in value)):
        raise MotiveError(f"{what} must be a list of pairs, got {value!r}")
    return value


def spec_from_json(doc) -> LFunctionSpec:
    """The spec a parsed JSON spec file describes, with its Euler table ingested.

    KeyError for a missing field; MotiveError or EulerError (both ValueErrors)
    for a field of the wrong type or value.
    """
    if not isinstance(doc, dict):
        raise MotiveError(f"expected a JSON object, got {type(doc).__name__}")
    degree = _spec_int(doc["degree"], "degree")
    table = euler_ingest(_spec_str(doc["euler_path"], "euler_path"), degree)
    return LFunctionSpec(
        degree=degree, weight=_spec_int(doc["weight"], "weight"),
        conductor=_spec_int(doc["conductor"], "conductor"),
        gamma_shifts=tuple((_spec_str(k, "gamma factor kind"), _spec_rational(s, "gamma shift"))
                           for k, s in _spec_pairs(doc["gamma_shifts"], "gamma_shifts")),
        sign=_spec_real(doc.get("sign", 1), "sign"), euler=table,
        poles=tuple((_spec_rational(p, "pole"), _spec_real(r, "pole residue"))
                    for p, r in _spec_pairs(doc.get("poles", []), "poles")),
        label=_spec_str(doc.get("label", ""), "label"))


# the halvings e of each kind of gamma factor: Gamma_R(x) = pi^(-x/2) Gamma(x/2)
# and Gamma_C(x) = 2 (2 pi)^(-x) Gamma(x) are both
# 2^(1-e) (2^(1-e) pi)^(-x/2^e) Gamma(x/2^e), with e = 1 and e = 0
_HALVINGS = {"R": 1, "C": 0}


def _pole_index(kind, x: Fraction):
    """j where x/2^e = -j for an integer j >= 0, a pole of the factor at x;
    None elsewhere."""
    y = x / 2 ** _HALVINGS[kind]
    return int(-y) if y <= 0 and y.denominator == 1 else None


def gamma_pole_order(spec, s0: Fraction) -> int:
    return sum(_pole_index(kind, Fraction(s0) + Fraction(sh)) is not None
               for kind, sh in spec.gamma_shifts)


def _gamma_pole_limit(spec, ctx, s0: Fraction):
    """lim (s - s0)^m gamma(s) at a pole of order m: a factor with a pole at
    x/2^e = -j contributes 2 (-1)^j (2^(1-e) pi)^j / j!, the others their value."""
    factors, index = _gamma_factors(spec, ctx)
    s = ((ctx.mpf(s0.numerator) / s0.denominator)._mpf_, fzero)
    val = ctx.mpf(1)
    for (kind, sh), i in zip(spec.gamma_shifts, index):
        j = _pole_index(kind, Fraction(s0) + Fraction(sh))
        if j is None:
            val *= ctx.make_mpf(_gamma_raw([factors[i]], [0], s, *ctx._prec_rounding)[0])
        else:
            base = ctx.ldexp(ctx.pi, 1 - _HALVINGS[kind])
            val *= 2 * (-1) ** j * ctx.power(base, j) / ctx.factorial(j)
    return val


def _gamma_factors(spec, ctx):
    """The distinct (kind, shift) factors of gamma as raw
    (e, shift, base 2^(1-e) pi, its log as mpc_pow takes it), and the index
    of every factor of gamma, in order, into them."""
    keys = [(kind, Fraction(sh)) for kind, sh in spec.gamma_shifts]
    distinct = list(dict.fromkeys(keys))
    factors = []
    for kind, sh in distinct:
        e = _HALVINGS[kind]
        base = ctx.ldexp(ctx.pi, 1 - e)
        factors.append((e, (ctx.mpf(sh.numerator) / sh.denominator)._mpf_, (base._mpf_, fzero),
                        mpc_log((base._mpf_, fzero), ctx.prec + 10)))
    return factors, [distinct.index(key) for key in keys]


def _gamma_raw(factors, index, s, prec, rnd):
    """gamma(s) at the raw mpc s, on raw tuples.

    x, the power and Gamma are formed once per distinct factor, so
    Gamma_C(s)^2 costs one Gamma.  x has at most prec bits, so its halvings
    are exact, and so is the factor 2^(1-e) on the power.
    """
    per_factor = []
    for e, shift, base, log_base in factors:
        x = mpc_add_mpf(s, shift, prec, rnd)
        arg = mpc_shift(x, -e)
        w = mpc_neg(arg)
        # mpc_pow's own steps, its log of the base read from log_base
        power = mpc_pow(base, w, prec, rnd) if w[1] == fzero \
            else mpc_exp(mpc_mul(log_base, w, prec + 10), prec, rnd)
        per_factor.append((mpc_shift(power, 1 - e), mpc_gamma(arg, prec, rnd)))
    g = None
    for i in index:
        power, gamma = per_factor[i]
        g = mpc_mul(power if g is None else mpc_mul(g, power, prec, rnd), gamma, prec, rnd)
    return g


# ---------------------------------------------------------------------------
# kernel on a truncated vertical line
# ---------------------------------------------------------------------------

# (gamma data, s, precision) -> _Kernel; the oldest insertion is evicted
# once more than _KERNEL_CACHE_SIZE kernels are held
_kernel_cache: dict = {}
_kernel_lock = threading.Lock()
_KERNEL_CACHE_SIZE = 32
# (precision, y) -> [I_1, ..., I_(d+1)] per kernel (_Kernel.values); the oldest
# insertion is evicted once a kernel holds more than _KERNEL_VALUES_SIZE
_KERNEL_VALUES_SIZE = 1024


def _abscissa(ctx, u_max):
    """(c, gap): the line Re u = c of every kernel, gap = 2.75 right of u_max,
    the rightmost pole of gamma(s+u)/u (u = 0 among them).

    I_j takes the same value on every line right of the poles, so c is free.
    The trapezoid error on a strip of half-width gap is about
    e^(-2 pi gap/h), so the node count falls like 1/gap; y^-c scales every
    value and its rounding (_Kernel.rounding), and grows with c at y < 1.
    """
    gap = ctx.mpf("2.75")
    return u_max + gap, gap


class _Kernel:
    """I_j(s, y) = (1/2 pi i) int gamma(s+u) y^-u u^-j du, j = 1, 2, 3.

    One list of nodes gamma(s+u)/u at u = c + i h k, k = 0, 1, ..., ending at
    the decay floor, serves every order: I_1 is the kernel F(s, y) and
    F(s+eps, y) = y^eps sum_j eps^j I_(j+1)(y).  The I_2 and I_3 nodes are
    the list divided by u once and twice, formed when first needed.  The
    line is _abscissa's, 2.75 right of the rightmost pole for every kernel,
    so one step h serves every kernel of a precision.  Valid for real s and
    y > 0.  _build_kernel makes the nodes and _read_entry loads them.

    The sums and their rounding bound read nothing but the nodes, c and h, so
    they serve any node list g(c + i h k) of an integrand g(u) y^-u with
    g(conj u) = conj g(u).  The second user is regulators.k2's Mellin-Barnes
    contour: its nodes are G(1/2 + i h k), made by k2._contour_nodes, and it
    calls at y = 1/z, order 0 (see k2._contour_kernel).
    """

    def __init__(self, ctx, c, h, raw):
        self.ctx, self.c, self.h = ctx, c, h
        # each node as one flat raw tuple, the real part's raw mpf then the
        # imaginary part's, for __call__
        self._raw = raw
        self._values = {}
        self._signed_nodes = None, None, (None, None)

    def _signed(self, prec, order):
        """(F, [(re, im, S0, S1) of I_1..I_(order+1)]): the parts of the nodes
        truncated to integers in units of 2^-F, which puts the top bit of I_1's
        at 2^wp, wp = prec + _GUARD_BITS, and the sums over k of w_k =
        |re_k| + |im_k| + 2 and of k w_k, for rounding().  I_1's nodes are the
        built ones and I_(j+1)'s are I_j's divided by u = c + i h k at prec.
        A list is formed when a call first needs it, once per kernel and
        precision."""
        held, raws, (f, fixed) = self._signed_nodes
        if held != prec:
            top = max(r[i + 2] + r[i + 3] for r in self._raw for i in (0, 4) if r[i + 1])
            raws, f, fixed = [self._raw], prec + _GUARD_BITS - top, []
        if len(fixed) <= order:
            c, h = self.c._mpf_, self.h._mpf_
            while len(raws) <= order:
                divided = (mpc_div((r[:4], r[4:]), (c, mpf_mul_int(h, k, prec, round_nearest)),
                                   prec, round_nearest) for k, r in enumerate(raws[-1]))
                raws = raws + [[q[0] + q[1] for q in divided]]
            for j in range(len(fixed), order + 1):
                re, im = ([to_fixed(r[i:i + 4], f) for r in raws[j]] for i in (0, 4))
                # w_k 2^-F bounds |g_k|
                weights = [abs(a) + abs(b) + 2 for a, b in zip(re, im)]
                fixed = fixed + [(re, im, sum(weights),
                                  sum(k * w for k, w in enumerate(weights)))]
            self._signed_nodes = prec, raws, (f, fixed)
        return f, fixed

    def __call__(self, y, order):
        """[I_1(s, y), ..., I_(order+1)(s, y)], order <= 2 (0 for k2's
        contour): y^-c h/pi times the real part of sum_k g_k w^k,
        w = e^(-i h log y), half weight on k = 0, the full-line trapezoid by
        conjugate symmetry f(-t) = conj(f(t)).  w^k,
        in units of 2^-wp, is one truncated complex product per k, shared by
        every order; each order's sum of re_k Re w^k - im_k Im w^k is one exact
        integer, rounded once with y^-c h/pi.  rounding() bounds the error.
        """
        ctx = self.ctx
        prec, rnd = ctx._prec_rounding
        if rnd != round_nearest:
            raise MotiveError(f"kernel sums round to nearest, not {rnd!r}")
        f, lists = self._signed(prec, order)
        wp = prec + _GUARD_BITS
        cos, sin = mpf_cos_sin(mpf_mul(self.h._mpf_, mpf_log(y._mpf_, wp + 20), wp + 20), wp + 20)
        c, s = to_fixed(cos, wp), -to_fixed(sin, wp)
        # w^k, the k = 0 node at half weight
        re_w, im_w = [1 << (wp - 1)], [0]
        a, b = c, s
        for _ in range(len(self._raw) - 1):
            re_w.append(a)
            im_w.append(b)
            a, b = (a * c - b * s) >> wp, (a * s + b * c) >> wp
        scale = (ctx.power(y, -self.c) * self.h / ctx.pi)._mpf_
        sums = (sum(map(mul, re, re_w)) - sum(map(mul, im, im_w))
                for re, im, *_ in lists[:order + 1])
        return [ctx.make_mpf(mpf_mul(from_man_exp(t, -f - wp), scale, prec, rnd)) for t in sums]

    def rounding(self, order):
        """[R_1, ..., R_(order+1)]: a call's I_j(y) is within y^-c R_j of the
        same trapezoid in exact arithmetic, for |h log y| < 10^5.  R_j is h/pi
        times the sum over the nodes, |g_k| <= w_k 2^-F (see _signed), of
        - 4k |g_k| 2^-wp: w is within 2 units of 2^-wp (formed at wp + 20
          bits, truncated), and each step of w^k truncates within 2 more;
        - 2^(1-F): each part of the node truncated within 2^-F;
        - 4(j + 1) |g_k| 2^(1-prec): an allowance of 4j ulps for the node's
          build (mpmath's Gamma carries no certified error, and each division
          by u rounds once more) and 4 for y^-c h/pi and the final rounding,
          as |I_j| <= y^-c (h/pi) sum_k |g_k|.
        """
        ctx = self.ctx
        prec = ctx.prec
        f, lists = self._signed(prec, order)
        return [(ctx.ldexp(4 * s1, -prec - _GUARD_BITS) + ctx.ldexp((j + 2) * s0, 3 - prec)
                 + 2 * len(self._raw)) * ctx.ldexp(self.h, -f) / ctx.pi
                for j, (_, _, s0, s1) in enumerate(lists[:order + 1])]

    def values(self, y, order):
        """[I_1(s, y), ..., I_(order+1)(s, y)] at an mpf y: a copy of the
        prefix of the list stored in the kernel's table; a miss, or fewer
        orders stored, calls."""
        key = (tuple(self.ctx._prec_rounding), y._mpf_)
        table = self._values
        vals = table.get(key)
        if vals is None or len(vals) <= order:
            vals = self(y, order)
            with _kernel_lock:
                table[key] = vals
                while len(table) > _KERNEL_VALUES_SIZE:
                    del table[next(iter(table))]
        return vals[:order + 1]


def _build_kernel(spec, s_val, pol: PrecisionPolicy):
    """The kernel of (gamma data, s, precision), its nodes summed up to the
    decay floor on _abscissa's line."""
    ctx = pol.ctx
    wd = pol.working_digits
    if not spec.gamma_shifts:
        # the integrand y^-u / u alone decays like 1/|u|, never to the floor
        raise MotiveError("kernel quadrature failed to decay")
    factors, index = _gamma_factors(spec, ctx)
    # the rightmost integrand pole in u: u = 0 or a factor's first gamma pole
    u_poles = [ctx.mpf(0)]
    for _, shift, *_ in factors:
        u = -(s_val + ctx.make_mpf(shift))
        if u > ctx.mpf("0.01"):
            u_poles.append(u)
    c, gap = _abscissa(ctx, max(u_poles))
    # trapezoid step from the half-width of the strip free of poles, whose
    # error is about e^(-2 pi gap / h) = 10^-(wd + 8)
    h = 2 * ctx.pi * gap / ((wd + 8) * ctx.log(10))
    floor = (ctx.mpf(10) ** (-(wd + 8)))._mpf_
    prec, rnd = ctx._prec_rounding
    s_mpf, c_mpf, h_mpf = s_val._mpf_, c._mpf_, h._mpf_
    raw = []
    k = 0
    while True:
        u = (c_mpf, mpf_mul_int(h_mpf, k, prec, rnd))
        val = mpc_div(_gamma_raw(factors, index, mpc_add_mpf(u, s_mpf, prec, rnd), prec, rnd),
                      u, prec, rnd)
        raw.append(val[0] + val[1])
        if k > 8 and mpf_lt(mpc_abs(val, prec, rnd), floor):
            break
        if k > 40000:
            raise MotiveError("kernel quadrature failed to decay")
        k += 1
    return _Kernel(ctx, c, h, raw)


def _kernel(spec, s_val, pol, store=None):
    """The cached kernel for (gamma data, s, precision); its line follows
    from them (_abscissa).

    On a miss in memory the kernel comes from the directory `store` when one
    is given (see _stored_kernel), and is built here otherwise.
    """
    return _cached((spec.gamma_signature(), repr(s_val), pol.working_digits),
                   lambda: _build_kernel(spec, s_val, pol) if store is None
                   else _stored_kernel(store, spec, s_val, pol))


def _cached(key, build):
    """The kernel _kernel_cache holds under key, or the one build() returns,
    stored there.  The AFE's keys are (gamma data, s, working digits) and
    regulators.k2's contour kernel has its own (see k2._contour_kernel)."""
    with _kernel_lock:
        k = _kernel_cache.get(key)
    if k is not None:
        return k
    k = build()
    with _kernel_lock:
        # a concurrent build of the same key keeps its entry
        k = _kernel_cache.setdefault(key, k)
        while len(_kernel_cache) > _KERNEL_CACHE_SIZE:
            del _kernel_cache[next(iter(_kernel_cache))]
    return k


# ---------------------------------------------------------------------------
# kernel store: built kernels saved as files, one per key
# ---------------------------------------------------------------------------

# an entry file is {"sha256":"<64 hex digits>","entry":<entry JSON>}, and its
# entry JSON starts at this offset
_ENTRY_START = len('{"sha256":"') + 64 + len('","entry":')


@functools.cache
def _sha256():
    """The sha256 constructor: CPython's own module where it has one (up to
    3.11), since hashlib loads OpenSSL, 3.6 MB more resident memory."""
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256


@functools.cache
def _build_digest() -> str:
    """sha256 of this file's bytes, read once per process: the build
    (_build_kernel, every function of this module it calls, _abscissa among
    them) and _HALVINGS are all here, so an edit to any of them changes it,
    as does any other edit, a comment's too."""
    return _sha256()(__loader__.get_data(__file__)).hexdigest()


def _store_key(spec, s_val, pol) -> dict:
    """Everything a kernel's nodes depend on, as JSON values; its line is
    the build's (_abscissa), which the build digest, of this file's bytes,
    covers."""
    import mpmath
    ctx = pol.ctx
    return {"gamma": [[kind, str(sh)] for kind, sh in spec.gamma_signature()],
            "s": list(s_val._mpf_), "prec_rounding": list(ctx._prec_rounding),
            "working_digits": pol.working_digits,
            "mpmath": [mpmath.__version__, mpmath.libmp.BACKEND], "build": _build_digest()}


def _entry_file(body: bytes) -> bytes:
    """The file of an entry whose JSON text is body: body and its sha256."""
    return b'{"sha256":"%s","entry":%s}\n' % (_sha256()(body).hexdigest().encode(), body)


def _stored_kernel(store, spec, s_val, pol):
    """The kernel read from the directory store, or built and saved there.

    The entry of a key is the file <sha256 of the key>.json, read only when
    the in-memory cache misses.  An entry that does not decode, holds another
    key or fails its checksum is a miss, and the kernel built then replaces
    it.  An OSError while reading this file for the key, or the entry, is a
    miss, and one while writing a skipped write, never an error; with no key
    there is no entry to write.
    """
    import json
    path = k = None
    try:
        key = _store_key(spec, s_val, pol)
        name = _sha256()(json.dumps(key, sort_keys=True).encode()).hexdigest() + ".json"
        path = os.path.join(store, name)
        k = _read_entry(path, key, pol.ctx)
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        pass
    if k is None:
        k = _build_kernel(spec, s_val, pol)
        if path is not None:
            try:
                _write_entry(path, key, k)
            except (OSError, ValueError):
                pass    # ValueError: a mantissa past Python's int-to-text digit limit
    return k


def _read_entry(path, key, ctx):
    """The kernel in the entry at path, or None if it is no entry of key."""
    import json
    with open(path, "rb") as fh:
        data = fh.read()
    body = data[_ENTRY_START:-2]
    if _entry_file(body) != data:
        return None
    entry = json.loads(body)
    if entry["key"] != key:
        return None
    # the nodes, c and h are finite mpfs, whose bit count is their mantissa's
    c, h = (ctx.make_mpf((s, m, e, m.bit_length())) for s, m, e in (entry["c"], entry["h"]))
    return _Kernel(ctx, c, h, [(s1, m1, e1, m1.bit_length(), s2, m2, e2, m2.bit_length())
                               for s1, m1, e1, s2, m2, e2 in entry["nodes"]])


def _write_entry(path, key, k):
    """Save kernel k as the entry at path, atomically: a reader sees a whole
    entry or none."""
    import json
    body = json.dumps(
        {"key": key, "c": list(k.c._mpf_[:3]), "h": list(k.h._mpf_[:3]),
         "nodes": [[r[0], r[1], r[2], r[4], r[5], r[6]] for r in k._raw]},
        separators=(",", ":")).encode()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_atomic(path, _entry_file(body))


# ---------------------------------------------------------------------------
# Lambda and L values
# ---------------------------------------------------------------------------

def _sum_side(spec, s_val, pol, order: int, A, mirror: bool, a: list, store=None):
    """([sum_n a_n n^(-sigma) N^(sigma/2) I_(j+1)(sigma, y_n) for j = 0..order]
    on one side, a bound on the kernel's rounding in each, and whether the
    table ran out before every sum stopped).

    mirror = False: sigma = s0, argument y_n = n/(A sqrt(N));
    mirror = True:  sigma = w+1-s0, y_n = n A / sqrt(N).
    a holds the Dirichlet coefficients a_1..a_P of the Euler table.  One pass
    over n serves every j; a sum that meets its stopping rule stops
    accumulating while the others go on.  The kernel is _kernel's at sigma,
    on the line c = _abscissa's.  Bound j is R_j (_Kernel.rounding) times
    sum_n |a_n n^(-sigma) N^(sigma/2)| y_n^-c over the n evaluated, in
    binary64; a weight past binary64 is a MotiveError.  store is _kernel's.
    """
    ctx = pol.ctx
    sigma = (spec.weight + 1 - s_val) if mirror else s_val
    ker = _kernel(spec, sigma, pol, store)
    sqN = ctx.sqrt(ctx.mpf(spec.conductor))
    # break threshold above the kernel's trapezoid noise plateau
    floor = ctx.mpf(10) ** (-(pol.working_digits - 6))
    M_cap = spec.euler.p_max
    N_half_sigma = ctx.power(ctx.mpf(spec.conductor), sigma / 2)
    totals = [ctx.mpf(0)] * (order + 1)
    weight, minus_c = 0.0, -float(ker.c)
    quiet = [0] * (order + 1)
    live = list(range(order + 1))          # the sums still accumulating
    for n in range(1, M_cap + 1):
        an = a[n]
        if an == 0:
            # the kernel only shrinks with n; reuse the quiet counter
            for j in list(live):
                if quiet[j]:
                    quiet[j] += 1
                    if quiet[j] >= 8 and n > sqN:
                        live.remove(j)
            if not live:
                break
            continue
        yn = n / (sqN * A) if not mirror else n * A / sqN
        base = an * ctx.power(n, -sigma) * N_half_sigma
        try:
            weight += abs(float(base)) * float(yn) ** minus_c
        except OverflowError:
            weight = math.inf
        kv = ker.values(yn, live[-1])
        for j in list(live):
            term = base * kv[j]
            totals[j] += term
            if abs(term) < floor and n > sqN:
                quiet[j] += 1
                if quiet[j] >= 8:
                    live.remove(j)
            else:
                quiet[j] = 0
        if not live:
            break
    if not weight < math.inf:
        # an overflow, or inf times 0, leaves no finite bound
        raise MotiveError("AFE kernel rounding bound past binary64")
    return totals, [ctx.mpf(weight) * r for r in ker.rounding(order)], bool(live)


def _pole_correction(spec, ctx, s_val, j, A):
    """sum over the poles p0 of res A^(p0-s)/(p0-s)^(j+1), the eps^j
    coefficient of the pole terms of Lambda(s+eps) A^eps."""
    corr = ctx.mpf(0)
    for (p0, res) in spec.poles:
        d = ctx.mpf(Fraction(p0).numerator) / Fraction(p0).denominator - s_val
        corr += res * ctx.power(A, d) / d ** (j + 1)
    return corr


def _s_value(ctx, s0):
    if isinstance(s0, (int, Fraction)):
        return ctx.mpf(Fraction(s0).numerator) / Fraction(s0).denominator
    return ctx.convert(s0)


def _check_request(spec: LFunctionSpec, order: int, ctx, s0, s_val):
    """Refuse what no sum can serve, before any table or kernel is built."""
    if spec.euler is None:
        raise MotiveError("spec has no Euler data")
    if order not in (0, 1, 2):
        raise MotiveError("derivative_order must be 0, 1, or 2")
    if not spec.gamma_shifts:
        raise MotiveError("kernel quadrature failed to decay")
    if abs(s_val) >= ctx.ldexp(1, ctx.prec - 8):
        # s + shift, resolved no finer than 2^-7, could round onto a gamma pole
        raise PointError(f"evaluation point |s| >= 2^{ctx.prec - 8}, past the working precision")
    s_exact = _rational(s0, s_val)
    for kind, sh in spec.gamma_shifts:
        sh = Fraction(sh)
        # s + shift rounded as _gamma_raw rounds it, then halved exactly
        x = ctx.ldexp(s_val + ctx.mpf(sh.numerator) / sh.denominator, -_HALVINGS[kind])
        if x <= 0 and ctx.isint(x) and _pole_index(kind, s_exact + sh) is None:
            raise PointError(f"evaluation point within rounding of a gamma pole at {ctx.prec} bits")
    for p0, _ in spec.poles:
        if ctx.mpf(Fraction(p0).numerator) / Fraction(p0).denominator == s_val:
            raise PointError("evaluation point sits on a pole of Lambda")


def lambda_derivs(spec: LFunctionSpec, s0, order: int, pol: PrecisionPolicy,
                  cutoff_A=None, a=None, store=None):
    """[Lambda(s0), ..., Lambda^(order)(s0)] by the smoothed AFE, order <= 2.

    `a` is the Dirichlet table of spec.euler up to its p_max; it is built
    here when not given.  `store` is a directory of saved kernels, read and
    written (see _stored_kernel); None, the default, touches no file.  Each
    side's kernel lies on _abscissa's line; the values do not depend on its
    c, but each kernel's rounding bound does, through y_n^-c.  The bounds
    reach each Lambda^(d) through the same Taylor combination as the sums,
    and L^(d) through motive_L's Lambda -> L step (_L_step): a bound past
    10^-digits on that L^(d), the value motive_L prints, is a MotiveError.
    A side whose sums the table runs out on, the right one first, has its own
    bound judged so, and CoverageError follows if it passes.
    """
    ctx = pol.ctx
    s_val = _s_value(ctx, s0)
    _check_request(spec, order, ctx, s0, s_val)
    A = ctx.mpf(1) if cutoff_A is None else ctx.convert(cutoff_A)
    if a is None:
        a = dirichlet_coefficients(spec.euler, spec.euler.p_max)
    inv, pref = _L_step(spec, s0, s_val, order, pol)

    def taylor(c, x):
        """[d! sum_k x^k/k! c[d-k] for d = 0..order]; the division by 1 is exact"""
        return _to_L([x ** k for k in range(order + 1)], c, 1, ctx)

    right, right_bound, right_out = _sum_side(spec, s_val, pol, order, A, False, a, store)
    left, left_bound, left_out = _sum_side(spec, s_val, pol, order, A, True, a, store)
    sign = ctx.mpc(spec.sign) if not isinstance(spec.sign, (int, float)) \
        else ctx.mpf(spec.sign)
    # a side whose table ran out is judged on its own bound: a sum held above
    # the floor by the kernel's own rounding is lost precision, not missing
    # Euler data
    out = right_bound if right_out else left_bound if left_out else None
    bounds = [r + abs(sign) * m for r, m in zip(right_bound, left_bound)] if out is None else out
    bound = max(_to_L(taylor(bounds, abs(ctx.log(A))), [abs(v) for v in inv], abs(pref), ctx))
    if bound > pol.tol:
        raise MotiveError(f"AFE kernel rounding bound {ctx.nstr(bound, 3)} exceeds "
                          f"10^-{pol.target_digits}")
    if out is not None:
        needed = int(2 * spec.euler.p_max) + 100
        raise CoverageError(
            f"Euler coverage P_max={spec.euler.p_max} insufficient "
            f"(series still contributing at n={spec.euler.p_max}); need roughly {needed}",
            required=needed)
    # Lambda(s+eps) = A^(-eps) sum_j eps^j coeffs[j]; A^(-eps) has the
    # coefficients (-log A)^k / k!, and at d = 0 every factor is an exact 1,
    # so Lambda(s0) keeps the bits of coeffs[0]
    coeffs = [right[j] + (-1) ** j * sign * left[j] - _pole_correction(spec, ctx, s_val, j, A)
              for j in range(order + 1)]
    return [val.real if hasattr(val, "imag") and abs(val.imag) < pol.tol else val
            for val in taylor(coeffs, -ctx.log(A))]


def _rational(s0, s_val) -> Fraction:
    """s0 exactly: as given when an int or a Fraction, else s_val's binary value."""
    return Fraction(s0) if isinstance(s0, (int, Fraction)) else Fraction(*to_rational(s_val._mpf_))


def _L_step(spec, s0, s_val, order, pol):
    """(inv, pref) of the Lambda -> L step at s0: the printed L^(d) is
    _to_L(Lambda derivatives, inv, pref)[d].

    Off a trivial zero pref = N^(s/2) gamma(s) from the kernel's evaluator,
    and pref(s)/pref(s+eps) = exp(-ell_1 eps - ell_2 eps^2/2 - ...), with
    ell_j = (d/ds)^j log pref through psi^(j-1)(x/2^e), has the coefficients
    inv.  At a trivial zero, a pole of gamma of order m, the printed value is
    m! Lambda(s0) / (N^(s0/2) lim (s-s0)^m gamma(s)): pref is that
    denominator over m!, and inv is 1 on Lambda(s0) alone.
    """
    ctx = pol.ctx
    s0f = _rational(s0, s_val)
    m = gamma_pole_order(spec, s0f)
    if m > 0:
        return [1, 0, 0][:order + 1], ctx.power(ctx.mpf(spec.conductor), s_val / 2) \
            * _gamma_pole_limit(spec, ctx, s0f) / ctx.factorial(m)
    pref = ctx.power(ctx.mpf(spec.conductor), s_val / 2) * ctx.make_mpf(_gamma_raw(
        *_gamma_factors(spec, ctx), (s_val._mpf_, fzero), *ctx._prec_rounding)[0])
    ell = [ctx.log(spec.conductor) / 2, ctx.mpf(0)]
    for kind, sh in spec.gamma_shifts:
        e = _HALVINGS[kind]
        x = ctx.ldexp(s_val + _s_value(ctx, Fraction(sh)), -e)
        ell[0] -= ctx.ldexp(ctx.log(ctx.ldexp(ctx.pi, 1 - e)), -e)
        for j in range(order):
            ell[j] += ctx.ldexp(ctx.psi(j, x), -(j + 1) * e)
    return [1, -ell[0], (ell[0] ** 2 - ell[1]) / 2][:order + 1], pref


def _to_L(lams, inv, pref, ctx):
    """[d! sum_k lams[k]/k! inv[d-k] / pref for d < len(lams)]: the L^(d)
    of the Lambda^(k) in lams, or bounds on them from bounds on the
    Lambda^(k) with |inv| and |pref|."""
    return [ctx.factorial(d) * sum(lams[k] / ctx.factorial(k) * inv[d - k]
                                   for k in range(d + 1)) / pref for d in range(len(lams))]


def motive_L(spec: LFunctionSpec, s0, derivative_order: int, pol: PrecisionPolicy,
             store=None):
    """L-derivative at s0 with an error estimate: returns (value, err).

    At trivial zeros forced by gamma poles of order m, only
    derivative_order == m is meaningful and the value is
    m! Lambda(s0) / (N^(s0/2) lim (s-s0)^m gamma(s)).  Every Lambda^(k)
    comes from lambda_derivs, which has judged the kernels' rounding bound
    on the value printed here, carried through the same Lambda -> L step
    (_L_step); the line each kernel lies on is _abscissa's.
    The self-test compares Lambda^(k)(s0), k <= d, at the cutoff 1.31 with
    the main path's own, at cutoff 1, and judges each order's residual on the
    printed L, carried through the same step in absolute value; err is the
    order-0 residual on Lambda.  Both paths share one Dirichlet table and the
    kernel store `store`, a directory, which None, the default, leaves unread
    and unwritten.
    """
    ctx = pol.ctx
    s_val = _s_value(ctx, s0)
    m = gamma_pole_order(spec, _rational(s0, s_val))
    if m > 0 and derivative_order != m:
        raise PointError(
            f"gamma pole of order {m} at s0: only the order-{m} derivative "
            "(leading Taylor coefficient) is supported here")
    order = 0 if m > 0 else derivative_order
    _check_request(spec, order, ctx, s0, s_val)
    a = dirichlet_coefficients(spec.euler, spec.euler.p_max)
    lams = lambda_derivs(spec, s0, order, pol, a=a, store=store)
    lamA = lambda_derivs(spec, s0, order, pol, ctx.mpf("1.31"), a, store=store)
    inv, pref = _L_step(spec, s0, s_val, order, pol)
    residuals = [abs(x - y) for x, y in zip(lamA, lams)]
    for d, residual in enumerate(_to_L(residuals, [abs(v) for v in inv], abs(pref), ctx)):
        if residual > pol.tol:
            raise MotiveError(f"functional-equation self-test residual {ctx.nstr(residual, 4)} "
                              f"on L too large at order {d}")
    return _to_L(lams, inv, pref, ctx)[order], residuals[0]
