"""Ratio reports: L-derivative over regulator determinant, per case and point.

Each case module with a ratio pipeline judges its own points with
`check_point(t, pol)`; this module dispatches to it and is the one place that
forms the measured ratio L / r.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import import_module

from ..mpnum import PrecisionPolicy
from ..regulators.fixtures import fixture_L_value, load_fixture
from ..regulators.reporting import CaseError, RegulatorReport, detect_rational

__all__ = ["ratio_report", "check_ratio_point", "CASE_MODULES"]

# the cases with a ratio pipeline -> their modules under hyperreg.regulators
CASE_MODULES = {"k4": "k4", "k2": "k2", "appB": "appb", "cy0": "cy0"}


def _find_entry(rows: list, t: Fraction):
    for row in rows:
        if row.get("t") == t:
            return row
    return None


def _case_module(case: str):
    """The case's module, imported alone, so a process loads one case module."""
    if case not in CASE_MODULES:
        raise CaseError(f"no ratio pipeline for case {case!r}; "
                        f"expected one of {', '.join(CASE_MODULES)}")
    return import_module(f"..regulators.{CASE_MODULES[case]}", __package__)


def check_ratio_point(case: str, t: Fraction, pol: PrecisionPolicy):
    """Raise CaseError unless `case` has a ratio pipeline that accepts t, and
    DivergenceError when the point needs more terms than pol allows."""
    _case_module(case).check_point(t, pol)


def ratio_report(case: str, t: Fraction, pol: PrecisionPolicy,
                 fixtures_dir="fixtures") -> RegulatorReport:
    """Assemble r(t) and, when L-data is available, the measured ratio."""
    mod = _case_module(case)
    mod.check_point(t, pol)
    entry = _find_entry(load_fixture(case, fixtures_dir), t)
    lval = fixture_L_value(entry, pol) if entry else None
    if case == "cy0":       # t = 1/n against its own class-number oracle
        return mod.cy0_class_number_check(t.denominator, pol)
    rep = getattr(mod, f"{case}_det")(t, pol)
    if lval is None:
        rep.notes.append("regulator-only: no L-data available")
    else:
        rep.measured_ratio = lval / rep.r_value
        rep.detected_ratio = detect_rational(rep.measured_ratio, pol.tol)
    # a fixture's expected ratio overrides the case's own
    if entry and entry.get("expected_ratio") is not None:
        rep.expected_ratio = entry["expected_ratio"]
    return rep
