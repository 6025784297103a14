"""Hypergeometric differential operators and exact residual checks.

Operators act on LogSeries purely symbolically (D = z d/dz); no numerical
differentiation happens anywhere, so residuals of the Frobenius and
inhomogeneous equations are asserted to be *exactly* zero.  Residuals are
checked in exact mode only; there is no floating residual.
``apply_operator(h, f)`` applies the operator L of data h, read from h.a and h.b.
Each factor product P(D) = prod (D + c) of L acts in one step through
``series._apply_shifted_chain``, whose one-factor case is theta.

``residual_frobenius`` builds Phi(s, z) once and forms E = alpha Phi from it.
"""

from __future__ import annotations

from fractions import Fraction

from .hypergeom import HGData, W_r, _s_series_times, alpha_s, frobenius_phi, z_s_logs
from .mpnum import Record
from .series import LogSeries, PowSeries, SLaurent, _apply_shifted_chain, _linear_product, sp_mul

__all__ = ["ResidualReport", "apply_operator", "residual_frobenius",
           "residual_inhomogeneous"]


def apply_operator(h: HGData, f: LogSeries) -> LogSeries:
    """L f for L = prod_j (D + b_j - 1) - z prod_j (D + a_j) of h; input
    truncated at K terms, output exact through the same window."""
    lead = _apply_shifted_chain([bj - 1 for bj in h.b], f)
    return lead - _apply_shifted_chain(list(h.a), f).shift(1)


def apply_operator_s(h: HGData, F: SLaurent) -> SLaurent:
    """L applied slotwise in s (D touches only the z-dependence)."""
    return SLaurent({k: apply_operator(h, v) for k, v in F.terms.items()},
                    F.s_order, F.min_order)


class ResidualReport(Record):
    __slots__ = ("exact_zero", "terms_checked")

    def __init__(self, exact_zero: bool, terms_checked: int):
        self.exact_zero = exact_zero    # every residual coefficient vanishes
        self.terms_checked = terms_checked


def _s_poly_b_shift(h: HGData, s_order: int) -> list:
    """prod_j (s + b_j - 1) as an s-polynomial (s^m for b all ones, m = len(b))."""
    return _linear_product([bj - 1 for bj in h.b], s_order)


def _count_terms(F: SLaurent) -> int:
    return sum(len(p.coeffs) for v in F.terms.values() for p in v.parts if p is not None)


def residual_frobenius(h: HGData, s_order: int, K: int) -> ResidualReport:
    """Verify L E = prod_j(s + b_j - 1) alpha(s) z^s and the Phi analogue.

    The Phi residual is a purely rational computation.  The E residual is
    run with alpha(s) carried as opaque symbolic coefficients, so a zero
    here is an identity valid for every value of alpha -- no numeric alpha
    enters.
    """
    if s_order > 4:
        raise ValueError("s_order capped at 4")
    rhs_poly = _s_poly_b_shift(h, s_order)
    zs = z_s_logs(s_order, K)

    phi = frobenius_phi(h, K, s_order)
    lhs = apply_operator_s(h, phi)
    diff = lhs - _s_series_times(rhs_poly, zs)

    if h.b_all_ones():
        # E = alpha * Phi with alpha carried symbolically: the residual is
        # asserted as a polynomial identity in alpha_1..alpha_s_order.
        alpha = alpha_s(h, s_order, mode="symbolic")
        E = _s_series_times(alpha, phi)
        rhsE = _s_series_times(sp_mul(rhs_poly, alpha, s_order), zs)
        diffE = apply_operator_s(h, E) - rhsE
    else:
        diffE = SLaurent({}, s_order, 0)
    return ResidualReport(_is_zero_slaurent(diff) and _is_zero_slaurent(diffE),
                          _count_terms(lhs))


def _is_zero_slaurent(F: SLaurent) -> bool:
    return all(v.is_zero() for v in F.terms.values())


def residual_inhomogeneous(h: HGData, r: int, K: int) -> ResidualReport:
    """Verify L W_r = z^(1/r) in every retained coefficient slot."""
    w = W_r(h, r, K)
    lhs = apply_operator(h, w)
    rhs = LogSeries.from_pow(PowSeries(Fraction(1, r), [Fraction(1)] + [0] * (K - 1)))
    n = sum(len(p.coeffs) for p in lhs.parts if p is not None)
    return ResidualReport((lhs - rhs).is_zero(), n)
