"""K2 case: data ((1/4,1/2,1/2,3/4), (1)^4), z = 2^10 t, regulator on z > 1.

Machinery:

* Gamma^alpha_k = prod_i Gamma(alpha+k)/Gamma(alpha+k+a_i), with exact
  rational ratios Gamma^alpha_(k+1)/Gamma^alpha_k;
* the determinant matrix in S_alpha(z) = sum Gamma^alpha_k z^-k and
  R_alpha(z) = sum Gamma^alpha_k z^-k/(k - 1/2 + alpha);
* every k2 sum is sum_k (+-1)^k Gamma^alpha_k z^-k w(k), its terms
  Gamma^alpha_k w(k) formed in fixed point by _stream_rows (the exact R and
  S rows of _weights are the theta ladder's); _stream_sums sums all a
  caller needs in one mpnum.power_sums pass per stream, with a counted
  rounding bound held to 10^-digits;
* the period R_0 three ways: right-half-plane series (|z| < 1), the
  Mellin-Barnes line integral (any z > 0) as a trapezoid on Re s = 1/2 with
  a bound, summed by the AFE's kernel (lfun.motive._Kernel) from z-free
  nodes built once per precision, and the left-plane assembly in the
  alternating series A~, B~, C~, D~ (|z| > 1), compared modulo
  (2 pi i)^3 Q;
* the monodromy chain R_1..R_4 and its relation to the matrix rows, R1 and
  R4 written once for both.

All values are normalized so the methods return R_0 / ((1/4)(2 pi i)^3).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from mpmath import fp
from mpmath.libmp import (fone, from_int, mpc_abs, mpc_div, mpc_gamma, mpc_mul,
                          mpc_neg, mpc_pow_int, mpc_shift, mpf_cos_sin, mpf_ln2, mpf_lt,
                          mpf_mul, mpf_mul_int, mpf_neg, mpf_shift, to_float, to_rational)

from .. import hgdata
from ..mpnum import (_GUARD_BITS, PrecisionPolicy, TailBoundError, fixed_terms, power_sums,
                     ratio_sum)
from ..series import LogSeries, PowSeries, theta
from .reporting import CaseError, RegulatorMatrix, RegulatorReport, detect_rational

DATA = hgdata.parse_hg("1/4,1/2,1/2,3/4;1,1,1,1")
A4 = DATA.a


def gamma_alpha0(alpha: Fraction, pol: PrecisionPolicy):
    """Gamma^alpha_0 = prod_i Gamma(alpha)/Gamma(alpha + a_i)."""
    ctx = pol.ctx
    av = ctx.mpf(alpha.numerator) / alpha.denominator
    val = ctx.mpf(1)
    for ai in A4:
        val *= ctx.gamma(av) / ctx.gamma(av + ctx.mpf(ai.numerator) / ai.denominator)
    return val


def gamma_ratios_rel(alpha: Fraction, K: int) -> list:
    """[Gamma^alpha_k / Gamma^alpha_0 for k = 0..K], exact, from the ratios
    Gamma^alpha_(k+1) / Gamma^alpha_k = (alpha+k)^4 / prod_i (alpha+k+a_i)."""
    return hgdata.ratio_stream(1, (alpha,) * 4, tuple(alpha + ai for ai in A4), K + 1)


def _z_float(z) -> float:
    """float(z), inf past the float range, or CaseError when z <= 1.05: the
    z^-k streams need z past it."""
    try:
        zf = float(z)
    except OverflowError:       # a Fraction; an mpf converts to inf itself
        zf = math.inf
    if zf <= 1.05:
        raise CaseError(f"z = {z} too close to the |z| = 1 boundary")
    return zf


def _suggest_K(z, pol: PrecisionPolicy) -> int:
    """The fixed truncation of the z^-k streams, z > 1.05."""
    return fixed_terms(math.log(_z_float(z)), pol, 24, 12, "k2 z^-k streams")


def _weights(rel: list, alpha: Fraction, kind: str) -> list:
    """Exact w(k) Gamma^alpha_k / Gamma^alpha_0 for k = 0..K, rel from
    gamma_ratios_rel, the rows theta_ladder_residual checks; 0 where a sum
    leaves k out.

    "S": w = 1;  "R": w = 1/(k - 1/2 + alpha), k > 0 if alpha = 1/2.
    """
    if kind == "S":
        return list(rel)
    half = Fraction(1, 2)
    return [Fraction(0) if k == 0 and alpha == half else c / (k - half + alpha)
            for k, c in enumerate(rel)]


def _stream_rows(alpha: Fraction, K: int, wp: int, kinds: str, alternating: bool) -> tuple:
    """(rows, errs): for each kind in kinds, [(+-1)^k w(k) Gamma^alpha_k /
    Gamma^alpha_0 for k = 0..K] as integers in units of 2^-wp, each within
    errs[i] units: the weights of _weights, and for "D" D~'s harmonic factor
    w = (4 H_(4k+1) - 10 H_2k + 6 H_k + 1/k)/k, k > 0 (0 at k = 0).

    G = Gamma^alpha_k / Gamma^alpha_0 steps by the integers p < q of
    hgdata.term_step, G <- G p // q, so it is within k units.  The R entry is
    one division by d = 4k - 2 + 4 alpha, within 4k / |d| + 1 < 3.  Each H_j
    is a sum of truncated 2^wp // i, within j units, so the bracket F is
    within 42k + 5, and the D entry G F // (k 2^wp) within
    (k |F| + (G + k)(42k + 5)) / (k 2^wp) + 1.
    """
    step = hgdata.term_step(1, (alpha,) * 4, tuple(alpha + a for a in A4))
    one = 1 << wp
    G = [one]
    for k in range(K):
        p, q = step(k)
        G.append(G[-1] * p // q)
    n = int(4 * alpha)
    rows, errs = [], []
    for kind in kinds:
        if kind == "S":
            row, err = G, K
        elif kind == "R":
            row, err = [4 * g // d if (d := 4 * k - 2 + n) else 0 for k, g in enumerate(G)], 3
        else:
            H = list(accumulate((one // j for j in range(1, 4 * K + 2)), initial=0))
            F = [4 * H[4 * k + 1] - 10 * H[2 * k] + 6 * H[k] + one // k for k in range(1, K + 1)]
            row = [0] + [G[k] * f // (k << wp) for k, f in enumerate(F, 1)]
            err = max(((k * abs(f) + (G[k] + k) * (42 * k + 5)) // (k << wp)
                       for k, f in enumerate(F, 1)), default=0) + 2
        rows.append([-v if k % 2 else v for k, v in enumerate(row)] if alternating else row)
        errs.append(err)
    return rows, errs


def _stream_bounded(alpha: Fraction, z, pol: PrecisionPolicy, kinds: str,
                    alternating: bool = False) -> tuple:
    """(sums, bounds): sum_k (+-1)^k w(k) Gamma^alpha_k / Gamma^alpha_0 z^-k
    over k <= K (_suggest_K) for each kind of _stream_rows in kinds, in one
    power_sums pass, so the kinds share the powers z^-k, and a bound on each
    sum's distance from the same K + 1 terms in exact arithmetic at z.

    The bound is power_sums' plus, in units of 2^-wp, the rows' build, err
    units an entry against sum_k x^k = z / (z - 1), and the rounding of
    x = 1/z to wp bits, |x'^k - x^k| <= 2k x^k 2^-wp on entries of at most c
    units (the row's largest plus err) against sum_k k x^k = z / (z - 1)^2;
    each is doubled, for x' >= x and the rounding of the bound.  |z| > 1.05."""
    ctx = pol.ctx
    K = _suggest_K(z, pol)
    zv = ctx.convert(z)
    wp = ctx.prec + _GUARD_BITS
    rows, errs = _stream_rows(alpha, K, wp, kinds, alternating)
    with ctx.workprec(wp):
        x = 1 / zv
    sums, bounds = power_sums([[(int(v < 0), abs(v), -wp, abs(v).bit_length()) for v in row]
                               for row in rows], x, ctx)
    q = zv / (zv - 1)
    return sums, [b + ctx.ldexp(err * q, 1 - wp)
                  + ctx.ldexp((max(map(abs, row)) + err) * q * q / zv, 1 - 2 * wp)
                  for b, row, err in zip(bounds, rows, errs)]


def _stream_sums(alpha: Fraction, z, pol: PrecisionPolicy, kinds: str,
                 alternating: bool = False) -> list:
    """[Gamma^alpha_0 s for each sum s of _stream_bounded] followed by
    Gamma^alpha_0, |z| > 1.05.  TailBoundError when Gamma^alpha_0 times a
    sum's counted bound exceeds 10^-digits."""
    sums, bounds = _stream_bounded(alpha, z, pol, kinds, alternating)
    g0 = gamma_alpha0(alpha, pol)
    worst = abs(g0) * max(bounds)
    if worst > pol.tol:
        raise TailBoundError(f"k2 z^-k streams: counted rounding {pol.ctx.nstr(worst, 3)} "
                             f"exceeds 10^-{pol.target_digits}")
    return [g0 * acc for acc in sums] + [g0]


# ---------------------------------------------------------------------------
# the determinant matrix
# ---------------------------------------------------------------------------

def k2_entries(z, pol: PrecisionPolicy) -> RegulatorMatrix:
    return _entries(z, pol)[0]


def _entries(z, pol: PrecisionPolicy):
    """k2_entries' matrix and the R sums (R_(1/2), R_(1/4), R_(3/4)) it is built from."""
    ctx = pol.ctx
    zv = ctx.convert(z)
    if zv <= 1:
        raise CaseError(f"z = {z} must exceed 1")
    (r2, s2, _), (r1, s1, _), (r3, s3, _) = (
        _stream_sums(Fraction(n, 4), zv, pol, "RS") for n in (2, 1, 3))
    log4z = ctx.log(4 * zv)
    sq2 = ctx.sqrt(ctx.mpf(2))
    e11 = 4 * (log4z + 4) - sq2 / ctx.pi * r2
    e12 = 4 * sq2 / (ctx.pi * ctx.sqrt(zv)) * s2
    e21 = -(zv ** ctx.mpf("0.25") * r1 + zv ** ctx.mpf("-0.25") * r3) / (4 * ctx.pi)
    e22 = (zv ** ctx.mpf("-0.25") * s1 + zv ** ctx.mpf("-0.75") * s3) / ctx.pi
    # (2 pi i)^2 is divided out of the chain rows
    return RegulatorMatrix([[e11, e12], [e21, e22]]), (r2, r1, r3)


def integral_model_point(t: Fraction) -> bool:
    """t of the form n^2 / 4^o with n a positive integer: in lowest terms, a
    square over a power of 4."""
    q = t.denominator
    return t > 0 and q & (q - 1) == 0 and q.bit_length() % 2 == 1 \
        and math.isqrt(t.numerator) ** 2 == t.numerator


def check_point(t: Fraction, pol: PrecisionPolicy):
    """Raise CaseError unless z = 2^10 t exceeds 1 and clears _z_float's 1.05;
    pol sets no bound here (k2_det checks K against its cap)."""
    z = 1024 * t
    if z <= 1:
        raise CaseError(f"z = 2^10 t = {z} must exceed 1")
    _z_float(z)


def k2_det(t: Fraction, pol: PrecisionPolicy) -> RegulatorReport:
    check_point(t, pol)
    ctx = pol.ctx
    z = 1024 * t
    zv = ctx.mpf(z.numerator) / z.denominator
    mat = k2_entries(zv, pol)
    val = mat.det()
    rep = RegulatorReport("k2", t, val)
    # theta-ladder on the exact normalized streams
    dev = theta_ladder_residual(24)
    rep.check("theta_ladder_exact", dev, pol)
    if not integral_model_point(t):
        rep.notes.append("t is not of the form n^2/4^o: rationality not expected")
    return rep


def theta_ladder_residual(K: int):
    """Exact check (in x = 1/z): the omega-row is (4/sqrt z) D of the R-row.

    Componentwise with the common transcendental prefactors normalized
    away: D_z(z^(1/2-alpha) R_alpha) = -z^(1/2-alpha) S_alpha becomes,
    in x with D_z = -D_x, D_x(x^(alpha-1/2) r_alpha) = +x^(alpha-1/2) s_alpha.
    Returns 0 when all three alpha-components match exactly.
    """
    for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        rel = gamma_ratios_rel(alpha, K)
        off = alpha - Fraction(1, 2)
        r_coeffs = _weights(rel, alpha, "R")
        s_coeffs = _weights(rel, alpha, "S")
        r_ls = LogSeries.from_pow(PowSeries(off, r_coeffs))
        s_ls = LogSeries.from_pow(PowSeries(off, s_coeffs))
        lhs = theta(r_ls)
        if alpha == Fraction(1, 2):
            # the k = 0 slot of s is matched by D(log z) = -D_x log x inside
            # 4(log 4z + 4); drop it from both sides here
            s_ls = LogSeries.from_pow(PowSeries(off, [Fraction(0)] + s_coeffs[1:]))
        if not (lhs == s_ls):
            return 1
    return 0


# ---------------------------------------------------------------------------
# Mellin-Barnes: right series, contour, left assembly
# ---------------------------------------------------------------------------

def mb_right_series(z, pol: PrecisionPolicy):
    """R_0 normalized: sum_n (-1)^n [1/4]_n [1/2]_n^2 [3/4]_n z^(n+1/2)
    / (n!^4 (n+1/2)), for |z| < 1."""
    ctx = pol.ctx
    zv = ctx.convert(z)
    if abs(zv) >= 1:
        raise CaseError("right series needs |z| < 1")
    # t_0 = 2 |z|^(1/2), t_(n+1) / t_n = -z prod_i (n + a_i) (n + 1/2) / ((n + 1)^4 (n + 3/2))
    ratio = (-Fraction(*to_rational(zv._mpf_)),
             DATA.a + (Fraction(1, 2),), DATA.b + (Fraction(3, 2),))
    val = ratio_sum(2 * ctx.sqrt(abs(zv)), ratio, pol, "k2 right series")[0]
    return val if zv >= 0 else ctx.mpc(0, val)      # z^(1/2) = i |z|^(1/2) for z < 0


def _contour_nodes(pol: PrecisionPolicy):
    """(c, h, raw): mb_contour's line Re s = c = 1/2, its step h and the nodes
    G(c + i h k), k = 0, 1, ..., each a flat raw tuple (the real part's raw
    mpf, then the imaginary part's), up to the first past k = 8 under the
    decay floor 10^-(wd + 8), wd the working digits, as the AFE's kernels stop.

    The strip 0 < Re s < 1 about the line holds no pole, so its half-width
    is a = 1/2, and h = 2 pi a / ((wd + 8) log 10) puts the trapezoid's error
    near e^(-2 pi a / h) = 10^-(wd + 8).  On the line Gamma(1 - s) is
    conj Gamma(s), so Gamma(-s) = -conj Gamma(s) / s and Gamma(1+s) = s Gamma(s),
    and with s = 1/2 + it, 2^(10 s) = 32 e^(10 i t log 2):
        G(s) = -conj Gamma(s) Gamma(3 + 4it) Gamma(2 + 2it)
               / (32 Gamma(1+s)^5 s (s + 1/2) e^(10 i t log 2)),
    three Gammas a node.  h carries 16 bits fewer than the working precision,
    so t = h k is exact and fits it for k < 2^16; so are 3 + 4it, 2 + 2it,
    s + 1/2 = 1 + it and the division by 32.  Each other step is one libmp
    call at the working precision, rounded to nearest, with the phase
    10 t log 2 formed 20 bits past it.
    """
    ctx = pol.ctx
    wd = pol.working_digits
    prec, rnd = ctx._prec_rounding
    c = a = ctx.mpf(1) / 2
    with ctx.workprec(prec - 16):
        h = 2 * ctx.pi * a / ((wd + 8) * ctx.log(10))
    floor = (ctx.mpf(10) ** (-(wd + 8)))._mpf_
    ten_log2 = mpf_mul_int(mpf_ln2(prec + 20, rnd), 10, prec + 20, rnd)
    three, two = from_int(3), from_int(2)
    raw = []
    k = 0
    while True:
        t = mpf_mul(h._mpf_, from_int(k))
        s = c._mpf_, t
        g = mpc_gamma(s, prec, rnd)
        num = mpc_mul(mpc_mul((g[0], mpf_neg(g[1])), mpc_gamma((three, mpf_shift(t, 2)), prec, rnd),
                              prec, rnd),
                      mpc_gamma((two, mpf_shift(t, 1)), prec, rnd), prec, rnd)
        den = mpc_mul(mpc_mul(mpc_pow_int(mpc_mul(s, g, prec, rnd), 5, prec, rnd),
                              mpc_mul(s, (fone, t), prec, rnd), prec, rnd),
                      mpf_cos_sin(mpf_mul(t, ten_log2, prec + 20, rnd), prec, rnd), prec, rnd)
        val = mpc_neg(mpc_shift(mpc_div(num, den, prec, rnd), -5))
        raw.append(val[0] + val[1])
        if k > 8 and mpf_lt(mpc_abs(val, prec, rnd), floor):
            return c, h, raw
        k += 1


def _contour_kernel(pol: PrecisionPolicy):
    """The contour's nodes (_contour_nodes) as an AFE kernel,
    lfun.motive._Kernel, built once per working precision and held in
    lfun.motive's kernel cache.  motive is imported here, so a run that sums
    no contour never loads it."""
    from ..lfun import motive
    return motive._cached(("k2 mb_contour", pol.working_digits),
                          lambda: motive._Kernel(pol.ctx, *_contour_nodes(pol)))


def mb_contour(z, pol: PrecisionPolicy):
    """R_0 normalized, by the Mellin-Barnes integral (1/2 pi i) int G(s) z^(s+1/2) ds,
    G(s) = Gamma(-s) Gamma(1+4s) Gamma(1+2s) / (Gamma(1+s)^5 2^(10 s) (s+1/2)),
    on a line -1/4 < Re s < 0, between the poles of Gamma(1+4s) and Gamma(-s).

    The line is moved to Re s = 1/2, past the pole of Gamma(-s) at s = 0,
    whose residue 2 sqrt z is added back.  There G(s) z^(s+1/2) is
    sqrt z G(s) y^-s at y = 1/z, so the integral is sqrt z times the value of
    the AFE kernel of G's nodes at y, order 0 (_contour_kernel): the nodes do
    not depend on z, and each z costs one fixed-point sum.  y is formed at
    the bits the kernel takes log y at.  mb_contour_bound bounds the error.
    """
    ctx = pol.ctx
    zv = ctx.convert(z)
    if zv <= 0:
        raise CaseError("contour evaluator needs z > 0")
    kernel = _contour_kernel(pol)
    with ctx.extraprec(_GUARD_BITS + 20):
        y = 1 / zv
    root = ctx.sqrt(zv)
    return 2 * root + root * kernel(y, 0)[0]


def _edge_integral(sigma: float, d: float) -> float:
    """J(sigma) = int |G(sigma + it)| dt over the real line, in binary64.

    The substitution t = d sinh v resolves the pole of Gamma(-s) at distance
    d from the line Re s = d or 1 - d, and the trapezoid in v, step 1/8, is
    summed up to t = 30, past which |G| < 10^-40."""
    total, k = 0.0, 0
    while True:
        v = k / 8
        s = complex(sigma, d * math.sinh(v))
        G = fp.gamma(-s) * fp.gamma(1 + 4 * s) * fp.gamma(1 + 2 * s) \
            / (fp.gamma(1 + s) ** 5 * 2 ** (10 * s) * (s + 0.5))
        total += abs(G) * d * math.cosh(v) / (2 if k == 0 else 1)
        if s.imag > 30:
            return total / 4          # twice the half-line, times the step 1/8
        k += 1


def mb_contour_bound(z, pol: PrecisionPolicy):
    """A bound on |mb_contour(z, pol) - R_0|, R_0 normalized: the sum of

    * the trapezoid error.  The sum approximates int u(t) dt,
      u(t) = G(1/2 + it) z^(1 + it) / 2 pi, analytic in the strip
      |Im t| < 1/2.  In the narrower strip |Im t| < a' = 1/2 - d,
      d = 1/(wd + 8), the trapezoid with step h is within
      2M / (e^(2 pi a' / h) - 1) of the integral when M bounds
      int |u(t + ib)| dt for every |b| < a' (Trefethen and Weideman, SIAM
      Review 56, 2014, Thm 5.1); e^(2 pi a' / h) is about 10^(wd + 6) for
      _contour_nodes' h.  That L^1 norm is log-convex in b (Doetsch's
      three-lines theorem for integral means), so M is its larger value on
      the edges Re s = d and 1 - d: z^(sigma + 1/2) J(sigma) / 2 pi, with J
      _edge_integral's binary64 estimate taken twice;
    * the truncation.  The nodes stop at the first |g_K| under the decay
      floor; |G(1/2 + it)| falls like t^-3 e^(-pi t), so past K each node is
      within q = e^(-pi h) of the one before, and those left out add at most
      z (h/pi) |g_K| q / (1 - q);
    * the rounding: z R_1, the kernel's bound (_Kernel.rounding) at
      y^-c = sqrt z times sqrt z; 2^(5 - prec) z S for the nodes' build past
      the 4 ulps R_1 allows: three Gammas, the fifth power and eight more
      roundings, each within 2^-prec of its value, with Gamma(s) counted six
      times and s Gamma(s) five; and 2^(2 - prec) (2 sqrt z + z S) for the
      square root, the product and the sum.  S = (h/pi) sum_k (|Re g_k| +
      |Im g_k|), so z S bounds sqrt z times the kernel's value.
    """
    ctx = pol.ctx
    zv = ctx.convert(z)
    if zv <= 0:
        raise CaseError("contour evaluator needs z > 0")
    kernel = _contour_kernel(pol)
    h, raw = kernel.h, kernel._raw
    d = 1 / (pol.working_digits + 8)
    M = max(zv ** (d + 0.5) * _edge_integral(d, d),
            zv ** (1.5 - d) * _edge_integral(1 - d, d)) / ctx.pi
    trapezoid = 2 * M / ctx.expm1(2 * ctx.pi * (ctx.mpf(1) / 2 - d) / h)
    q = ctx.exp(-ctx.pi * h)
    last = ctx.make_mpc((raw[-1][:4], raw[-1][4:]))
    truncation = zv * h / ctx.pi * abs(last) * q / (1 - q)
    S = h / ctx.pi * math.fsum(abs(to_float(r[:4])) + abs(to_float(r[4:])) for r in raw)
    rounding = zv * kernel.rounding(0)[0] \
        + ctx.ldexp(32 * zv * S + 4 * (2 * ctx.sqrt(zv) + zv * S), -ctx.prec)
    return trapezoid + truncation + rounding


def _left_blocks(zv, pol: PrecisionPolicy):
    """(A~, B~, C~, D~), one alternating pass per Gamma^alpha stream; C~ and
    D~ share the alpha = 1/2 pass."""
    ctx = pol.ctx
    At, _ = _stream_sums(Fraction(1, 4), zv, pol, "R", alternating=True)
    Bt, _ = _stream_sums(Fraction(3, 4), zv, pol, "R", alternating=True)
    Ct, Dt, g0 = _stream_sums(Fraction(1, 2), zv, pol, "RD", alternating=True)
    # D~'s k = 0 slot.  The display is singular at k = 0; the value below makes
    # the assembly agree with the contour integral identically in z (PSLQ-pinned
    # to 30+ digits, then verified at five sample points).  Only the -8 part is
    # canonical: pi^2-multiples of Gamma^(1/2)_0 here are (2 pi i)^3 Q shifts.
    return At, Bt, Ct, Dt + g0 * (-8 - 2 * ctx.pi ** 2 / 3)


def mb_left_assembly(z, pol: PrecisionPolicy):
    """R_0 normalized by the left-plane residue assembly, |z| > 1:
    [i pi A~ z^(1/4) - i pi B~ z^(-1/4) - 2 sqrt2 i log(4z) C~ - 2 sqrt2 i D~
     + 4 pi i (log(4z) + 4)^2] / ((1/4)(2 pi i)^3), mod (2 pi i)^3 Q."""
    ctx = pol.ctx
    zv = ctx.convert(z)
    if zv <= 1:
        raise CaseError("left assembly needs z > 1")
    At, Bt, Ct, Dt = _left_blocks(zv, pol)
    log4z = ctx.log(4 * zv)
    i = ctx.mpc(0, 1)
    sq2 = ctx.sqrt(ctx.mpf(2))
    R0 = i * ctx.pi * At * zv ** ctx.mpf("0.25") \
        - i * ctx.pi * Bt * zv ** ctx.mpf("-0.25") \
        - 2 * sq2 * i * log4z * Ct - 2 * sq2 * i * Dt \
        + 4 * ctx.pi * i * (log4z + 4) ** 2
    norm = (2 * ctx.pi * i) ** 3 / 4
    return R0 / norm


def mb_compare(z, pol: PrecisionPolicy):
    """Contour vs the series on the applicable side.

    For z < 1 returns |contour - right| directly; for z > 1 the left
    assembly is defined mod (2 pi i)^3 Q, i.e. the normalized difference
    is rational: returns (|diff - nearest rational|, the rational).
    """
    ctx = pol.ctx
    zv = ctx.convert(z)
    # the series side first: its cap or range error comes before the costly contour
    series = mb_right_series(zv, pol) if zv < 1 else mb_left_assembly(zv, pol)
    diff = mb_contour(zv, pol) - series
    if zv < 1:
        return abs(diff), None
    if abs(ctx.im(diff)) > ctx.mpf(10) ** (-pol.target_digits + 10):
        return abs(diff), None
    q = detect_rational(ctx.re(diff), ctx.mpf(10) ** (-pol.target_digits + 10))
    if q is None:
        return abs(diff), None
    return abs(ctx.re(diff) - ctx.mpf(q.numerator) / q.denominator), q


# ---------------------------------------------------------------------------
# monodromy chain
# ---------------------------------------------------------------------------

def _R1(ctx, C, log4z):
    """The chain's R1 = -16 sqrt2 pi C + 64 pi^2 (log 4z + 4) at the alpha = 1/2 sum C."""
    return -16 * ctx.sqrt(ctx.mpf(2)) * ctx.pi * C + 64 * ctx.pi ** 2 * (log4z + 4)


def _R4(ctx, A, B, z14):
    """The chain's R4 = 4 pi A z^(1/4) + 4 pi B z^(-1/4) at the alpha = 1/4 and
    3/4 sums A and B, z14 = z^(1/4)."""
    return 4 * ctx.pi * A * z14 + 4 * ctx.pi * B / z14


def k2_monodromy_chain(z, pol: PrecisionPolicy):
    """The monodromy combinations (R1, R2, R3, R4), |z| > 1."""
    ctx = pol.ctx
    zv = ctx.convert(z)
    At, Bt, Ct, Dt = _left_blocks(zv, pol)
    log4z = ctx.log(4 * zv)
    i = ctx.mpc(0, 1)
    sq2 = ctx.sqrt(ctx.mpf(2))
    z14 = zv ** ctx.mpf("0.25")
    R2 = 8 * sq2 * i * log4z * Ct + 8 * sq2 * i * Dt + 256 * ctx.pi * i \
        - 16 * ctx.pi * i * (log4z + 4) ** 2
    R3 = 4 * ctx.pi * i * At * z14 - 4 * ctx.pi * i * Bt / z14
    return _R1(ctx, Ct, log4z), R2, R3, _R4(ctx, At, Bt, z14)


def chain_vs_entries(z, pol: PrecisionPolicy):
    """Real-part comparison of the matrix rows against -1/4 (R1-row) and
    +1/4 (R4-row) of the chain matrix under z <-> -z (the (-1)^k twist).

    Returns the maximum deviation over the two R-entries.  The R sums are
    the ones the matrix is built from, so each stream is summed once.
    """
    ctx = pol.ctx
    zv = ctx.convert(z)
    mat, (r2, r1, r3) = _entries(zv, pol)
    # C~(-z) = R-type series in z: the twist is the identity on our
    # normalized streams, so compare against the chain built from the
    # non-alternating series directly.
    R1_tw = _R1(ctx, r2, ctx.log(4 * zv))
    lhs1 = mat.entries[0][0]
    rhs1 = -(R1_tw / (2 * ctx.pi * ctx.mpc(0, 1)) ** 2) / 4
    dev1 = abs(lhs1 - ctx.re(rhs1))
    R4_tw = _R4(ctx, r1, r3, zv ** ctx.mpf("0.25"))
    lhs2 = mat.entries[1][0]
    rhs2 = (R4_tw / (2 * ctx.pi * ctx.mpc(0, 1)) ** 2) / 4
    dev2 = abs(lhs2 - ctx.re(rhs2))
    return max(dev1, dev2)
