"""Ratio reports: L-derivative over regulator determinant, per case and point."""

from __future__ import annotations

from fractions import Fraction

from ..mpnum import PrecisionPolicy
from ..regulators.fixtures import fixture_L_value, load_fixture
from ..regulators.reporting import (CaseError, RegulatorReport, check_case,
                                    detect_rational)

__all__ = ["ratio_report", "check_ratio_point"]


def _find_entry(rows: list, t: Fraction):
    for row in rows:
        if row.get("t") == t:
            return row
    return None


def check_ratio_point(case: str, t: Fraction):
    """Raise CaseError unless `case` has a ratio pipeline that accepts t."""
    if case not in ("k4", "k2", "appB", "cy0"):
        raise CaseError(f"no ratio pipeline for case {case!r}")
    if case == "cy0":
        if t.numerator != 1:
            raise CaseError("cy0 ratio points are t = 1/n")
        from ..regulators import cy0
        cy0.check_class_number_point(t.denominator)
    if case == "appB":
        from ..regulators import appb
        appb.check_point(t)


def ratio_report(case: str, t: Fraction, pol: PrecisionPolicy,
                 fixtures_dir="fixtures") -> RegulatorReport:
    """Assemble r(t) and, when L-data is available, the measured ratio."""
    check_case(case)
    check_ratio_point(case, t)
    rows = load_fixture(case, fixtures_dir)
    entry = _find_entry(rows, t)
    lval = fixture_L_value(entry, pol) if entry else None

    # only the case that runs is imported, so a process loads one case module
    if case == "k4":
        from ..regulators import k4
        rep = k4.k4_det(t, pol, fixture=lval)
    elif case == "k2":
        from ..regulators import k2
        rep = k2.k2_det(t, pol, fixture=lval)
    elif case == "appB":
        from ..regulators import appb
        rep = appb.appB_det(t, pol)
        if lval is not None:
            rep.measured_ratio = lval / rep.r_value
            rep.detected_ratio = detect_rational(rep.measured_ratio, pol.tol)
    else:  # cy0 at t = 1/n
        from ..regulators import cy0
        rep = cy0.cy0_class_number_check(t.denominator, pol)
    # a fixture's expected ratio overrides the case's own, except cy0's oracle
    if case != "cy0" and entry and entry.get("expected_ratio") is not None:
        rep.expected_ratio = entry["expected_ratio"]

    if rep.measured_ratio is None and lval is None and case != "cy0":
        rep.notes.append("regulator-only: no L-data available")
    return rep
