"""Report containers shared by the regulator case studies."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from ..mpnum import PrecisionPolicy

CASE_IDS = ("cy0", "elliptic", "quintic", "k4", "k2", "appB")


class CaseError(ValueError):
    pass


def check_case(case: str) -> str:
    if case not in CASE_IDS:
        raise CaseError(f"unknown case {case!r}; expected one of {CASE_IDS}")
    return case


def detect_rational(x, tol, max_height: int = 10 ** 6):
    """Nearest small-height rational within 10*tol, or None.

    Heights (|p| and q) are capped at max_height, mirroring the
    numerical-evidence methodology: failure to match is an answer,
    not an error.  x is an mpmath number; the candidate is formed in x's own
    context, at its precision.
    """
    ctx = x.context
    if isinstance(x, ctx.mpc):
        if abs(x.imag) > tol:
            return None
        x = x.real
    fr = Fraction(ctx.nstr(x, 40)).limit_denominator(max_height)
    if abs(fr.numerator) > max_height:
        return None
    err = abs(x - ctx.mpf(fr.numerator) / fr.denominator)
    if err <= 10 * tol:
        return fr
    return None


@dataclass
class RegulatorMatrix:
    entries: list                 # 2x2 (or 1x1) of mp reals
    normalization: str = ""       # which power of 2*pi*i was divided out

    def det(self):
        e = self.entries
        if len(e) == 1:
            return e[0][0]
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]


@dataclass
class RegulatorReport:
    case: str
    t: Fraction | None
    r_value: object
    crosschecks: list = field(default_factory=list)   # (name, max deviation)
    expected_ratio: Fraction | None = None
    measured_ratio: object | None = None
    detected_ratio: Fraction | None = None
    notes: list = field(default_factory=list)

    def check(self, name: str, deviation, pol: PrecisionPolicy):
        """Record a crosscheck; deviations must clear 10^-(target-5)."""
        self.crosschecks.append((name, deviation))
        limit = pol.ctx.mpf(10) ** (-(pol.target_digits - 5))
        if deviation is not None and deviation > limit:
            raise CaseError(
                f"crosscheck {name!r} deviates by {pol.ctx.nstr(deviation, 5)} "
                f"(limit {pol.ctx.nstr(limit, 3)})")

    def to_json(self, pol: PrecisionPolicy) -> str:
        ctx = pol.ctx
        d = pol.target_digits

        def num(x):
            if x is None:
                return None
            if isinstance(x, Fraction):
                return f"{x.numerator}/{x.denominator}"
            return ctx.nstr(x, d)

        doc = {
            "case": self.case,
            "t": None if self.t is None else f"{self.t.numerator}/{self.t.denominator}",
            "r_value": num(self.r_value),
            "crosschecks": [[name, num(dev)] for name, dev in self.crosschecks],
            "expected_ratio": num(self.expected_ratio),
            "measured_ratio": num(self.measured_ratio),
            "detected_ratio": num(self.detected_ratio),
            "notes": list(self.notes),
        }
        return json.dumps(doc, sort_keys=True)
