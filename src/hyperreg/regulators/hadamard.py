"""Annulus-residue reproduction of the regulator periods.

Two engines:

* k4: the product of the lifted dilogarithm-type factor
  (pi i + log s + sum binom(2n,n)^2 s^n/n) with the rotated period
  sum_m binom(2m,m)^2 t^m s^-m, integrated over |s| = eps with the
  closed-form residue table, plus the chain-intersection correction;
  the symbolic log(eps) and eps^-m terms must cancel identically and the
  output is (2 pi i)^3 (pi i + log t + sum binom(2n,n)^4 t^n/n).

* k2_R0: the s-antiderivative of the (-1)^n binom(4n,2n) binom(2n,n)
  period against the rotated binom(2m,m)^2 period, which has no log(s)
  factor at all; the output is
  16 (2 pi i)^3 sum (-1)^n binom(4n,2n) binom(2n,n)^3 that^(2n+1)/(2n+1).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from ..exactnum import ExactNum, two_pi_i_pow
from ..series import LogSeries, PowSeries, SLaurent, residue_extract
from .reporting import CaseError

PI_I = ExactNum.atom("pi") * ExactNum.atom("i")


def _binom2_list(K: int) -> list:
    return [comb(2 * k, k) ** 2 for k in range(K + 1)]


def _binom4n_2n_list(K: int) -> list:
    """binom(4n, 2n) binom(2n, n) for n = 0..K."""
    return [comb(4 * n, 2 * n) * comb(2 * n, n) for n in range(K + 1)]


def k4_engine(K: int) -> LogSeries:
    """Full annulus assembly; returns the (2 pi i)^3-scaled LogSeries."""
    B2 = _binom2_list(K)
    # factor 1: pi i + log s + sum_{n>0} binom^2 s^n / n, with log s marked
    f1_terms = {
        (0, 0): LogSeries.constant(PI_I, K + 1),
        (0, 1): LogSeries.constant(Fraction(1), K + 1),
    }
    for n in range(1, K + 1):
        f1_terms[(n, 0)] = LogSeries.constant(Fraction(B2[n], n), K + 1)
    f1 = SLaurent(f1_terms, K, 0)
    # factor 2: sum_m binom^2 t^m s^-m
    f2_terms = {}
    for m in range(K + 1):
        coeffs = [Fraction(0)] * (K + 1)
        coeffs[m] = Fraction(B2[m])
        f2_terms[(-m, 0)] = LogSeries.from_pow(PowSeries(0, coeffs))
    f2 = SLaurent(f2_terms, 0, -K)
    integrand = f1 * f2
    res = residue_extract(integrand)

    # chain-intersection correction, per the delta-term of the cup product:
    # + (pi i + log(t/-eps) + sum binom^2 t^m/(m (-eps)^m)) + pi i
    # with log(t / -eps) = log t - log eps - pi i on the branch in use;
    # an SLaurent in eps, like res
    const = LogSeries.constant(PI_I, K + 1) + log_t_series(K) \
        + LogSeries.constant(PI_I, K + 1) + LogSeries.constant(-PI_I, K + 1)
    chain = {(0, 0): const, (0, 1): LogSeries.constant(Fraction(-1), K + 1)}
    for m in range(1, K + 1):
        coeffs = [Fraction(0)] * (K + 1)
        coeffs[m] = Fraction((-1) ** m * B2[m], m)
        chain[(-m, 0)] = LogSeries.from_pow(PowSeries(0, coeffs))

    return _finite(res + SLaurent(chain, 0, -K), "k4").scale(two_pi_i_pow(3))


def _finite(total: SLaurent, which: str) -> LogSeries:
    """The eps -> 0 limit of an engine's residues, an SLaurent in eps: its
    eps^0 slot; CaseError when a log(eps) or eps^-m slot survives."""
    bad = sorted(k for k in total.terms if k[1] or k[0] < 0)
    if bad:
        raise CaseError(f"{which} assembly: eps-dependent terms survive combination: {bad}")
    return total.slot(0)


def log_t_series(K: int) -> LogSeries:
    return LogSeries([None, PowSeries(0, [Fraction(1)] + [Fraction(0)] * K)])


def k4_expected(K: int) -> LogSeries:
    """(2 pi i)^3 (pi i + log t + sum_{n>0} binom(2n,n)^4 t^n / n)."""
    B2 = _binom2_list(K)
    coeffs = [ExactNum.from_rational(0) + PI_I] + \
        [ExactNum.from_rational(Fraction(B2[n] ** 2, n)) for n in range(1, K + 1)]
    ls = LogSeries([PowSeries(0, coeffs),
                    PowSeries(0, [Fraction(1)] + [Fraction(0)] * K)])
    return ls.scale(two_pi_i_pow(3))


def k2_r0_engine(K: int) -> LogSeries:
    """16 (2 pi i)^3 sum_n (-1)^n binom(4n,2n) binom(2n,n)^3 that^(2n+1)/(2n+1).

    Variable is that = sqrt(t); the integrand is the s-antiderivative of
    the first period against the rotated second period, with ds/s measure.
    """
    B1 = _binom4n_2n_list(K)
    B2 = _binom2_list(K)
    # antiderivative of sum_n (-1)^n B1_n s^(2n): sum_n (-1)^n B1_n s^(2n+1)/(2n+1)
    f1_terms = {}
    for n in range(K + 1):
        f1_terms[(2 * n + 1, 0)] = LogSeries.constant(
            Fraction((-1) ** n * B1[n], 2 * n + 1), 2 * K + 2)
    f1 = SLaurent(f1_terms, 2 * K + 1, 0)
    # rotated period: sum_m binom^2 that^(2m+1) s^-(2m+1)
    f2_terms = {}
    for m in range(K + 1):
        coeffs = [Fraction(0)] * (2 * K + 2)
        coeffs[2 * m + 1] = Fraction(B2[m])
        f2_terms[(-(2 * m + 1), 0)] = LogSeries.from_pow(PowSeries(0, coeffs))
    f2 = SLaurent(f2_terms, 0, -(2 * K + 1))
    return _finite(residue_extract(f1 * f2), "k2_R0").scale(two_pi_i_pow(3) * 16)


def k2_r0_expected(K: int) -> LogSeries:
    B1 = _binom4n_2n_list(K)
    B2 = _binom2_list(K)
    coeffs = [Fraction(0)] * (2 * K + 2)
    for n in range(K + 1):
        coeffs[2 * n + 1] = Fraction((-1) ** n * B1[n] * B2[n], 2 * n + 1)
    return LogSeries.from_pow(PowSeries(0, coeffs)).scale(two_pi_i_pow(3) * 16)


def hadamard_regulator(which: str, K: int) -> LogSeries:
    """Run an engine and verify the closed form coefficientwise.

    The k4 constant slot is a Tate representative: the assembly may differ
    from the closed form by an integer multiple of (2 pi i)^3 pi i
    (a half-period of Z(4), from the branch bookkeeping at the chain
    intersection).  That integer is asserted and the canonical
    representative returned; every other slot must match exactly.
    """
    if which == "k4":
        out = k4_engine(K)
        exp = k4_expected(K)
        diff = out - exp
        shift = _pure_tate_shift(diff)
        if shift is None:
            raise CaseError("k4 annulus assembly does not match the closed form")
        return exp if shift else out
    if which == "k2_R0":
        out = k2_r0_engine(K)
        if not (out == k2_r0_expected(K)):
            raise CaseError("k2 annulus assembly does not match the closed form")
        return out
    raise CaseError(f"unknown engine {which!r}")


def _pure_tate_shift(diff: LogSeries):
    """The integer q with diff == q (2 pi i)^3 pi i, a constant, or None.

    q is read from the pi^4 coefficient of the constant slot, since
    (2 pi i)^3 pi i = 8 pi^4; the one equality then compares every slot."""
    p = diff.part(0)
    c0 = p.coeffs[0] if p is not None and p.coeffs else 0
    q = Fraction(ExactNum._coerce(c0).terms.get((("pi", 4),), 0)) / 8
    if q.denominator != 1 or diff != LogSeries.constant(two_pi_i_pow(3) * PI_I * q):
        return None
    return int(q)
