"""K4 case: data ((1/2)^4, (1)^4), z = 256 t, rank-two regulator on (0, 4^-4).

The four matrix entries are built twice and compared slot by slot:

* closed harmonic-sum formulas with G_k = H_2k - H_k and
  G'_k = 8 G_k^2 - 2 H'_2k + H'_k + zeta(2);
* generic Frobenius deformation: s-expansion of
  sum_k binom(2k+2s, k+s)^4 t^(k+s) / (k+s+shift), shift 0 or 1/2, built
  from hypergeom's rows c_k(s) and alpha(s) of the same data, since
  binom(2k+2s, k+s)^4 = 256^s alpha(s) 256^k c_k(s).

Both live in the exact atom ring, so equality is asserted coefficientwise.
The determinant of the regulator matrix is

    r(t) = (sqrt primitive) * (log deformed) - (sqrt deformed) * (log primitive)
         = -sqrt(t)/(4 pi^2) * (N0 M2 - N2 M0)(t)

in terms of the inner series below.

The log^2-coefficients of the closed forms are 1/(2(k+1/2)) resp.
1/(2k): the factor 2 is forced by the s^2-extraction (quotations of these
sums sometimes drop it), and the dual-path identity pins it down exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb

from .. import hypergeom
from ..exactnum import EX_LN2, EX_Z3, ExactNum, ex_zeta2
from ..mpnum import PrecisionPolicy, TailBoundError, fixed_terms, power_sums
from ..series import LogSeries, PowSeries, SLaurent, sp_exp, sp_inv, sp_mul, theta
from .reporting import CaseError, RegulatorMatrix, RegulatorReport

DATA = hypergeom.parse_hg("1/2,1/2,1/2,1/2;1,1,1,1")
SCALE = 256          # z = 256 t
T_POINTS = (Fraction(1, 4 ** 5), Fraction(1, 4 ** 6),
            Fraction(1, 4 ** 7), Fraction(1, 4 ** 8))


# -- harmonic atoms ----------------------------------------------------------

def harmonic(K: int) -> list:
    return list(accumulate((Fraction(1, k) for k in range(1, K + 1)), initial=Fraction(0)))


def harmonic2(K: int) -> list:
    return list(accumulate((Fraction(1, k * k) for k in range(1, K + 1)), initial=Fraction(0)))


def G_list(K: int) -> list:
    H = harmonic(2 * K)
    return [H[2 * k] - H[k] for k in range(K + 1)]


def _gp_from(G: list) -> list:
    """G'_k = 8 G_k^2 - 2 H'_2k + H'_k + zeta(2) in the atom ring, k <= len(G) - 1."""
    K = len(G) - 1
    H2 = harmonic2(2 * K)
    z2 = ex_zeta2()
    return [ExactNum.from_rational(8 * G[k] ** 2 - 2 * H2[2 * k] + H2[k]) + z2
            for k in range(K + 1)]


def binom4_list(K: int) -> list:
    return [comb(2 * k, k) ** 4 for k in range(K + 1)]


# -- closed-form entries -----------------------------------------------------

def log_primitive_series(K: int) -> LogSeries:
    """log t + sum_{k>0} binom(2k,k)^4 t^k / k."""
    B = binom4_list(K)
    coeffs = [Fraction(0)] + [Fraction(B[k], k) for k in range(1, K + 1)]
    return LogSeries([PowSeries(0, coeffs),
                      PowSeries(0, [Fraction(1)] + [0] * K)])


def sqrt_primitive_inner(K: int) -> LogSeries:
    """sum_k binom(2k,k)^4 t^k / (k + 1/2); the entry is sqrt(t) times this."""
    B = binom4_list(K)
    return LogSeries([PowSeries(0, [B[k] / (k + Fraction(1, 2)) for k in range(K + 1)])])


def _deformed_atoms(K: int) -> tuple:
    """binom(2k,k)^4, G_k and G'_k for k <= K: what both deformed entries read."""
    G = G_list(K)
    return binom4_list(K), G, _gp_from(G)


def _sqrt_deformed(B: list, G: list, Gp: list) -> LogSeries:
    """Braced series of the sqrt(t)/(-4 pi^2) entry (log^2-coefficient halved)."""
    K = len(B) - 1
    c0, c1, c2 = [], [], []
    for k in range(K + 1):
        kh = k + Fraction(1, 2)
        c0.append((Gp[k] * (4 * kh * kh) + Fraction(-8) * G[k] * kh + 1)
                  * Fraction(1, 1) / kh ** 3 * B[k])
        c1.append(Fraction(B[k]) * (8 * G[k] * kh - 1) / kh ** 2)
        c2.append(Fraction(B[k], 1) / (2 * kh))
    return LogSeries([PowSeries(0, c0), PowSeries(0, c1), PowSeries(0, c2)])


def _log_deformed(B: list, G: list, Gp: list) -> LogSeries:
    """Braced series of the (-1/4 pi^2) entry (log^2-coefficient halved)."""
    K = len(B) - 1
    z3 = EX_Z3
    z2 = ex_zeta2()
    c0 = [ExactNum.from_rational(0) - 8 * z3]
    c1 = [4 * z2]
    c2 = [Fraction(0)]
    c3 = [Fraction(1, 6)]
    for k in range(1, K + 1):
        c0.append((Gp[k] * (4 * k * k) + Fraction(-8 * k) * G[k] + 1)
                  * Fraction(1, k ** 3) * B[k])
        c1.append(Fraction(B[k]) * (8 * G[k] * k - 1) / Fraction(k * k))
        c2.append(Fraction(B[k], 2 * k))
        c3.append(Fraction(0))
    return LogSeries([PowSeries(0, c0), PowSeries(0, c1),
                      PowSeries(0, c2), PowSeries(0, c3)])


# -- Frobenius path ----------------------------------------------------------

def frobenius_generator(K: int, s_order: int, shift: Fraction | None) -> SLaurent:
    """sum_k binom(2k+2s,k+s)^4 t^(k+s) / (k+s+shift) as an SLaurent in s.

    shift = 1/2 gives the N-series; shift = 0 the M-series (whose k = 0
    term carries the s^-1 slot); shift = None the period series without
    the 1/(k+s+shift) weight.  For shift = 0 the series s M is built and
    its slots moved down by one.
    """
    pole = shift == 0
    o = s_order + (1 if pole else 0)
    rows = []
    for k, ck in enumerate(hypergeom._ck_rows(DATA, K + 1, o)):
        if shift is None:
            w = [Fraction(1)]
        elif pole:      # s / (k + s)
            w = [Fraction(1)] if k == 0 else [0] + sp_inv([Fraction(k), Fraction(1)], o - 1)
        else:
            w = sp_inv([k + shift, Fraction(1)], o)
        rows.append([SCALE ** k * c for c in sp_mul(ck, w, o)])
    # 256^s = exp(8 log 2 s); its log 2 atoms cancel those of alpha(s) exactly
    c0 = sp_mul(hypergeom.alpha_s(DATA, o), sp_exp([0, 8 * EX_LN2], o), o)
    gen = hypergeom._s_series_times(c0, hypergeom._rows_slaurent(rows, o))
    if not pole:
        return gen
    return SLaurent({(m - 1, lg): v for (m, lg), v in gen.terms.items()}, s_order, -1)


# -- the case-study surface --------------------------------------------------

def k4_entries(K: int):
    """The four exact inner series with the dual-path check.

    Returns dict with the four closed-form LogSeries; raises on any
    cross-path disagreement.  The check runs once per K, on the first K + 1
    coefficients of the largest K built so far; each call gets its own build.
    """
    _entries_checked(K)
    return _build_entries(K)


@lru_cache(maxsize=8)
def _entries_checked(K: int):
    # lru_cache keeps no result when a check raises, so a failure repeats
    closed = _entries_built(K).prefix(K)
    M = frobenius_generator(K, 2, Fraction(0))
    N = frobenius_generator(K, 2, Fraction(1, 2))
    pairs = [
        ("log_primitive", M.slot(0)),
        ("log_deformed_inner", M.slot(2)),
        ("sqrt_primitive_inner", N.slot(0)),
        ("sqrt_deformed_inner", N.slot(2)),
    ]
    for name, frob in pairs:
        if not (closed[name] == frob):
            raise CaseError(f"dual-path disagreement in {name}")
    # r_{-1} slot is the constant 1 (times (2 pi i)^4 after scaling)
    rm1 = M.slot(-1)
    if not (rm1 == LogSeries.constant(Fraction(1))):
        raise CaseError("r_-1 slot is not the expected constant")
    # derivative ladder: theta(M) reproduces the period generator slotwise
    E0 = theta(closed["log_primitive"])
    per = LogSeries([PowSeries(0, [Fraction(b) for b in binom4_list(K)])])
    if not (E0 == per):
        raise CaseError("theta of the log primitive does not reproduce the period")
    th = theta(closed["sqrt_primitive_inner"]) + closed["sqrt_primitive_inner"].scale(Fraction(1, 2))
    if not (th == per):
        raise CaseError("theta ladder fails for the sqrt primitive")
    return closed


def check_point(t: Fraction, pol: PrecisionPolicy):
    """Raise CaseError unless t lies in (0, 4^-4), where the z = 256 t series
    converge; pol sets no bound here (k4_det checks K against its cap)."""
    if not (0 < t < Fraction(1, SCALE)):
        raise CaseError(f"t = {t} outside the validity interval of case k4")


def k4_det(t: Fraction, pol: PrecisionPolicy) -> RegulatorReport:
    """The 2x2 determinant r(t) for t in (0, 4^-4).

    K is the fixed truncation of terms falling like (256 t)^k; the doubled
    run takes 2K terms under the doubled policy, whose cap is doubled too.
    """
    check_point(t, pol)
    x = SCALE * float(t)            # 0.0 below the float range: K is then the least
    K = fixed_terms(-math.log(x) if x else math.inf, pol, 32, 8, "k4 entries")
    if K <= 40:
        _entries_checked(K)
    val = _det_value(K, t, pol)
    # stability: doubled precision and doubled truncation
    pol2 = pol.doubled()
    val2 = _det_value(2 * K, t, pol2)
    stab = abs(val - pol.ctx.convert(val2))
    rep = RegulatorReport("k4", t, val)
    rep.check("precision_doubling_stability", stab, pol)
    rep.notes.append("integral model at t = 4^-5 .. 4^-8")
    return rep


class _Entries(dict):
    """The four exact entries of one K, with their floating copies.

    The entries of a smaller K are the first K + 1 coefficients of these:
    every coefficient depends on k alone.  ``floating`` maps a binary
    precision to (n, raw): the first n coefficients of each entry's parts
    (all of which start at t^0) as raw mpfs, so each coefficient is converted
    once per precision, and the copies are handed out as mpfs of the caller's
    context (the pattern of ``mpnum.special``).  A larger build takes them over.
    """

    def __init__(self, entries: dict, K: int, floating: dict):
        super().__init__(entries)
        self.K = K
        self.floating = floating

    def _parts(self, start: int, stop: int) -> dict:
        return {name: LogSeries([None if p is None else
                                 PowSeries(p.offset, p.coeffs[start:stop]) for p in ls.parts])
                for name, ls in self.items()}

    def prefix(self, K: int) -> dict:
        """The entries of K."""
        return self._parts(0, K + 1)

    def floated(self, K: int, pol: PrecisionPolicy) -> dict:
        """The entries of K at pol's precision, {name: [[raw mpf] per log-part]},
        converting only the coefficients not converted there yet."""
        n, raw = self.floating.get(pol.ctx.prec, (0, {}))
        if n <= K:
            # the new state is built whole and then stored, never changed in place
            raw = {name: [(raw[name][j] if n else []) + [c._mpf_ for c in p.coeffs]
                          for j, p in enumerate(ls.to_floating(pol).parts)]
                   for name, ls in self._parts(n, K + 1).items()}
            n = K + 1
            self.floating[pol.ctx.prec] = n, raw
        return {name: [p[:K + 1] for p in parts] for name, parts in raw.items()}


# the _Entries of the largest K built so far, under the key "largest"
_built: dict = {}


def _entries_built(K: int) -> _Entries:
    """Entries covering K: those of the largest K built, built anew only
    when K exceeds it."""
    ent = _built.get("largest")
    if ent is None or ent.K < K:
        ent = _built["largest"] = _build_entries(K, ent.floating if ent else {})
    return ent


def _build_entries(K: int, floating: dict | None = None) -> _Entries:
    atoms = _deformed_atoms(K)
    return _Entries({
        "log_primitive": log_primitive_series(K),
        "sqrt_primitive_inner": sqrt_primitive_inner(K),
        "sqrt_deformed_inner": _sqrt_deformed(*atoms),
        "log_deformed_inner": _log_deformed(*atoms),
    }, K, {} if floating is None else floating)


def _det_value(K: int, t: Fraction, pol: PrecisionPolicy):
    """r(t) from the entries of K.

    Their floating copies at pol's precision are converted once per
    coefficient (see _Entries.floated), and every log-part of the four
    entries is summed at t from those raw copies in one power_sums pass;
    each entry is then sum_j s_j (log t)^j in ascending j.  The sums' counted
    rounding, carried through the entries' prefactors and the determinant
    to first order and their product, must stay under 10^-digits, or
    TailBoundError; the coefficients' and t's own rounding is what the
    doubled run of k4_det measures.
    """
    ctx = pol.ctx
    raw = _entries_built(K).floated(K, pol)
    tv = ctx.mpf(t.numerator) / t.denominator
    sums, bounds = power_sums([part for parts in raw.values() for part in parts], tv, ctx)
    sums, bounds = iter(sums), iter(bounds)
    lg = ctx.log(tv)
    # the sums come in the order of raw's entries and, within one, of j
    val, err = {}, {}
    for name, parts in raw.items():
        val[name] = sum((next(sums) * lg ** j for j in range(len(parts))), ctx.mpf(0))
        err[name] = sum((next(bounds) * abs(lg) ** j for j in range(len(parts))), ctx.mpf(0))
    sq = ctx.sqrt(tv)
    pref = -1 / (4 * ctx.pi ** 2)
    # (value, counted rounding) of each matrix entry
    sp, sd, lp, ld = ((c * val[name], abs(c) * err[name]) for c, name in (
        (sq, "sqrt_primitive_inner"), (sq * pref, "sqrt_deformed_inner"),
        (1, "log_primitive"), (pref, "log_deformed_inner")))
    # det = sp ld - sd lp
    bound = sum(abs(a) * f + abs(b) * e + e * f for (a, e), (b, f) in ((sp, ld), (sd, lp)))
    if bound > pol.tol:
        raise TailBoundError(f"k4 entries: counted rounding {ctx.nstr(bound, 3)} exceeds "
                             f"10^-{pol.target_digits} after {K + 1} terms")
    return RegulatorMatrix([[sp[0], sd[0]], [lp[0], ld[0]]]).det()
