"""Non-MUM case study: data ((1/5,2/5,3/5,4/5), (1/6,5/6,1,1)).

Reuses the Puiseux S-series machinery of the quintic module; the
determinant det Re [[S0, S0'], [S1, S1']] interpolates the L'(M_t, 1)
data for integer t in (0, 3125/432).  Each S-column is summed in one pass
that also yields its derivative and the finite-difference probe.  The
companion closed-form gamma function (with its 27^-s scale and the
half-integer support) feeds the weight-gap warm-up series Pi_0, whose
coefficient ratios reduce to those of 2F1(1/3, 2/3; 1).
"""

from __future__ import annotations

from fractions import Fraction

from ..hgdata import parse_hg, ratio_stream
from ..mpnum import PrecisionPolicy
from .quintic import S_n, column_sums
from .reporting import CaseError, RegulatorMatrix, RegulatorReport

DATA = parse_hg("1/5,2/5,3/5,4/5;1/6,5/6,1,1")
T_SUP = Fraction(3125, 432)      # = scale_C(DATA): the S-series converge on (0, C)


def pi0_relative_coefficients(n_terms: int) -> list:
    """[1, 2/9, 10/81, ...]: Gamma_cf(k + 1/2)/Gamma_cf(1/2) for k < n_terms.

    Gamma_cf(k + 3/2)/Gamma_cf(k + 1/2) = (k + 1/3)(k + 2/3)/(k + 1)^2, so
    this is the 2F1(1/3, 2/3; 1) stream."""
    return ratio_stream(1, (Fraction(1, 3), Fraction(2, 3)), (1, 1), n_terms)


PROBE_STEP = Fraction(1, 10 ** 8)   # step of the finite-difference derivative probe
PROBE_DIGITS = 35                   # least working digits of the probe's two sums
# below this t the central difference at PROBE_STEP misses the probe's 10^-12
# budget at every --digits (1/250 reads 1.17e-12, 1/500 4.77e-12; 1/200 passes)
T_INF = Fraction(1, 200)


def check_point(t: Fraction, pol: PrecisionPolicy):
    """Raise CaseError unless t and both probe points t +- PROBE_STEP lie in
    (0, 3125/432) and t >= T_INF, where the probe can pass; pol sets no
    bound here."""
    if not (0 < t < T_SUP):
        raise CaseError(f"t = {t} outside (0, {T_SUP})")
    if not (0 < t - PROBE_STEP and t + PROBE_STEP < T_SUP):
        raise CaseError(f"t = {t} is within the finite-difference probe step 10^-8 "
                        f"of an end of (0, {T_SUP})")
    if t < T_INF:
        raise CaseError(f"t = {t} below {T_INF}, where the finite-difference probe "
                        "cannot meet its 10^-12 budget")


def appB_det(t: Fraction, pol: PrecisionPolicy) -> RegulatorReport:
    """det Re [[S0, S0'], [S1, S1']] at t in [1/200, 3125/432), at least 10^-8 from its end."""
    check_point(t, pol)
    ctx = pol.ctx
    th = PROBE_STEP
    # the probe subtracts S_A(t +- th), so every sum runs with at least
    # PROBE_DIGITS working digits: the probe's rounding is 10^-wd / th
    wp = pol if pol.working_digits >= PROBE_DIGITS else \
        PrecisionPolicy(PROBE_DIGITS - pol.guard_digits, pol.guard_digits, pol.max_terms)
    wctx = wp.ctx
    # one pass per column: S_Aj(t), S_Aj'(t) (termwise exact), S_Aj(t +- th)
    requests = ((t, False), (t, True), (t + th, False), (t - th, False))
    cols = list(zip(*(column_sums(DATA, j, requests, wp) for j in range(DATA.m))))
    m = [[S_n(DATA, n, cols[0], wp), S_n(DATA, n, cols[1], wp)] for n in (0, 1)]
    mat = RegulatorMatrix([[ctx.re(x) for x in row] for row in m])
    rep = RegulatorReport("appB", t, mat.det())
    # finite-difference probe of the derivative column (fd error budget 1e-12)
    fd = (wctx.re(S_n(DATA, 0, cols[2], wp)) - wctx.re(S_n(DATA, 0, cols[3], wp))) \
        / (2 * wctx.mpf(10) ** -8)
    dev = abs(fd - mat.entries[0][1]) / max(1, abs(m[0][1]))
    rep.crosschecks.append(("derivative_column_fd_probe", dev))
    if dev > ctx.mpf(10) ** -12:
        raise CaseError(f"derivative column fails the fd probe: {ctx.nstr(dev, 3)}")
    rep.notes.append("integral-model points: integer t in (0, 3125/432)")
    return rep

