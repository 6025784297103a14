"""K2 case: data ((1/4,1/2,1/2,3/4), (1)^4), z = 2^10 t, regulator on z > 1.

Machinery:

* Gamma^alpha_k = prod_i Gamma(alpha+k)/Gamma(alpha+k+a_i), with exact
  rational ratios Gamma^alpha_(k+1)/Gamma^alpha_k;
* the determinant matrix in S_alpha(z) = sum Gamma^alpha_k z^-k and
  R_alpha(z) = sum Gamma^alpha_k z^-k/(k - 1/2 + alpha);
* every k2 sum is sum_k (+-1)^k Gamma^alpha_k z^-k w(k) with a weight of
  _weights; _stream_sums forms all a caller needs in one pass per stream;
* the period R_0 three ways: right-half-plane series (|z| < 1), numeric
  Mellin-Barnes line integral (any z > 0), and the left-plane assembly
  in the alternating series A~, B~, C~, D~ (|z| > 1), compared modulo
  (2 pi i)^3 Q;
* the monodromy chain R_1..R_4 and its relation to the matrix rows.

All values are normalized so the methods return R_0 / ((1/4)(2 pi i)^3).
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from itertools import accumulate

from mpmath.libmp import (fzero, mpc_log, mpc_mul, mpf_add, mpf_cos_sin, mpf_div, mpf_exp,
                          mpf_mul, mpf_sub, to_rational)

from .. import hgdata
from ..mpnum import PrecisionPolicy, fixed_terms, power_sums, ratio_sum
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
    gamma_ratios_rel; 0 where a sum leaves k out.

    "S": w = 1;  "R": w = 1/(k - 1/2 + alpha), k > 0 if alpha = 1/2;
    "D": D~'s harmonic factor w = (4 H_(4k+1) - 10 H_2k + 6 H_k + 1/k)/k, k > 0.
    """
    half = Fraction(1, 2)
    if kind == "S":
        return list(rel)
    if kind == "R":
        return [Fraction(0) if k == 0 and alpha == half else c / (k - half + alpha)
                for k, c in enumerate(rel)]
    H = list(accumulate((Fraction(1, j) for j in range(1, 4 * len(rel) - 2)),
                        initial=Fraction(0)))
    return [Fraction(0)] + [c * (4 * H[4 * k + 1] - 10 * H[2 * k] + 6 * H[k]
                                 + Fraction(1, k)) / k
                            for k, c in enumerate(rel) if k]


def _stream_sums(alpha: Fraction, z, pol: PrecisionPolicy, kinds: str,
                 alternating: bool = False) -> list:
    """[sum_k (+-1)^k Gamma^alpha_k z^-k w(k) for each kind of _weights in
    kinds] followed by Gamma^alpha_0, |z| > 1.

    The floated weights of all kinds are summed in one power_sums pass, so
    they share the powers z^-k; a zero weight adds nothing."""
    ctx = pol.ctx
    K = _suggest_K(z, pol)
    rel = gamma_ratios_rel(alpha, K)
    g0 = gamma_alpha0(alpha, pol)
    ws = [_weights(rel, alpha, kind) for kind in kinds]
    if alternating:
        ws = [[-c if k % 2 else c for k, c in enumerate(w)] for w in ws]
    rows = [[ctx.mpf(c.numerator) / c.denominator for c in w] for w in ws]
    return [g0 * acc for acc in power_sums(rows, 1 / ctx.convert(z), ctx)] + [g0]


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


# binary precision -> {s: (num, den, |den|^2)}: the z-free parts of the mb_contour
# integrand at the quadrature node s as raw tuples, the same for every z.  Only
# the node sets of the last _MB_PRECISIONS precisions are kept.
_mb_cache: dict = {}
_mb_lock = threading.Lock()
_MB_PRECISIONS = 4


def _mb_parts(ctx, s):
    """(Gamma(-s) Gamma(1+4s) Gamma(1+2s), Gamma(1+s)^5 2^(10s) (s+1/2), and the
    latter's |.|^2 as mpc_div forms it, at ctx.prec + 10) as raw tuples,
    memoized per (ctx.prec, s)."""
    prec = ctx.prec
    with _mb_lock:
        nodes = _mb_cache.get(prec)
        if nodes is None:
            nodes = _mb_cache[prec] = {}
            while len(_mb_cache) > _MB_PRECISIONS:
                del _mb_cache[next(iter(_mb_cache))]
        parts = nodes.get(s._mpc_)
    if parts is None:
        num = ctx.gamma(-s) * ctx.gamma(1 + 4 * s) * ctx.gamma(1 + 2 * s)
        den = ctx.gamma(1 + s) ** 5 * ctx.power(2, 10 * s) * (s + ctx.mpf(1) / 2)
        parts = (num._mpc_, den._mpc_, mpf_add(*(mpf_mul(x, x) for x in den._mpc_), prec + 10))
        with _mb_lock:
            nodes[s._mpc_] = parts
    return parts


def mb_contour(z, pol: PrecisionPolicy):
    """R_0 normalized, by the vertical-line integral at Re s = -1/8:
    (1/2 pi i) int Gamma(-s) Gamma(1+4s) Gamma(1+2s) z^(s+1/2)
                 / (Gamma(1+s)^5 2^(10 s) (s+1/2)) ds.

    Each node has the bits of num * z^(s+1/2) / den in mpmath, by the libmp
    calls of mpc_pow, mpc_mul and mpc_div on raw tuples: num, den and |den|^2
    from `_mb_cache`, keyed by (working binary precision, s), and log z and
    |z^(s+1/2)|, the same at every node, once per precision quad evaluates at."""
    ctx = pol.ctx
    zv = ctx.convert(z)
    if zv <= 0:
        raise CaseError("contour evaluator needs z > 0")
    sigma = -ctx.mpf(1) / 8
    hoisted = {}

    def integrand(tt):
        s = ctx.mpc(sigma, tt)
        num, den, mag = _mb_parts(ctx, s)
        prec, rnd = ctx._prec_rounding
        if prec not in hoisted:
            # log z is real for z > 0, so Re((s + 1/2) log z) is the same at every node
            logz = mpc_log((zv._mpf_, fzero), prec + 10)[0]
            re = mpf_mul(logz, (sigma + ctx.mpf(1) / 2)._mpf_, prec + 10)
            hoisted[prec] = logz, re, mpf_exp(re, prec + 4, rnd)
        logz, re, modulus = hoisted[prec]
        im = mpf_mul(logz, s._mpc_[1], prec + 10)
        # z^(s+1/2) = mpc_exp((re, im), prec); im = 0 at t = 0, and at z = 1, where
        # re = 0 too and mpc_exp's branch for it gives the same (1, 0)
        if im == fzero:
            power = mpf_exp(re, prec, rnd), fzero
        else:
            cos, sin = mpf_cos_sin(im, prec + 4, rnd)
            power = mpf_mul(modulus, cos, prec, rnd), mpf_mul(modulus, sin, prec, rnd)
        a, b = mpc_mul(num, power, prec, rnd)
        c, d = den
        t = mpf_add(mpf_mul(a, c), mpf_mul(b, d), prec + 10)
        u = mpf_sub(mpf_mul(b, c), mpf_mul(a, d), prec + 10)
        return ctx.make_mpc((mpf_div(t, mag, prec, rnd), mpf_div(u, mag, prec, rnd)))

    # conjugate symmetry: (1/2 pi) int_R = (1/pi) Re int_0^inf
    T = (pol.working_digits + 10) * ctx.log(10) / ctx.pi
    with ctx.workdps(pol.working_digits + 10):
        val = ctx.quad(integrand, [0, T / 8, T / 3, T])
    return (val.real if hasattr(val, "real") else val) / ctx.pi


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

def k2_monodromy_chain(z, pol: PrecisionPolicy):
    """The monodromy combinations (R1, R2, R3, R4), |z| > 1."""
    ctx = pol.ctx
    zv = ctx.convert(z)
    At, Bt, Ct, Dt = _left_blocks(zv, pol)
    log4z = ctx.log(4 * zv)
    i = ctx.mpc(0, 1)
    sq2 = ctx.sqrt(ctx.mpf(2))
    z14 = zv ** ctx.mpf("0.25")
    R1 = -16 * sq2 * ctx.pi * Ct + 64 * ctx.pi ** 2 * (log4z + 4)
    R2 = 8 * sq2 * i * log4z * Ct + 8 * sq2 * i * Dt + 256 * ctx.pi * i \
        - 16 * ctx.pi * i * (log4z + 4) ** 2
    R3 = 4 * ctx.pi * i * At * z14 - 4 * ctx.pi * i * Bt / z14
    R4 = 4 * ctx.pi * At * z14 + 4 * ctx.pi * Bt / z14
    return R1, R2, R3, R4


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
    log4z = ctx.log(4 * zv)
    sq2 = ctx.sqrt(ctx.mpf(2))
    R1_tw = -16 * sq2 * ctx.pi * r2 + 64 * ctx.pi ** 2 * (log4z + 4)
    lhs1 = mat.entries[0][0]
    rhs1 = -(R1_tw / (2 * ctx.pi * ctx.mpc(0, 1)) ** 2) / 4
    dev1 = abs(lhs1 - ctx.re(rhs1))
    z14 = zv ** ctx.mpf("0.25")
    R4_tw = 4 * ctx.pi * r1 * z14 + 4 * ctx.pi * r3 / z14
    lhs2 = mat.entries[1][0]
    rhs2 = (R4_tw / (2 * ctx.pi * ctx.mpc(0, 1)) ** 2) / 4
    dev2 = abs(lhs2 - ctx.re(rhs2))
    return max(dev1, dev2)
