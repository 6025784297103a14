"""Report containers shared by the regulator case studies."""

from __future__ import annotations

from fractions import Fraction

from ..mpnum import PrecisionPolicy, Record


class CaseError(ValueError):
    pass


def detect_rational(x, tol):
    """Nearest small-height rational within 10*tol, or None.

    Heights (|p| and q) are capped at 10^6, mirroring the
    numerical-evidence methodology: failure to match is an answer,
    not an error.  x is an mpmath number; the candidate is formed in x's own
    context, at its precision.
    """
    ctx = x.context
    if isinstance(x, ctx.mpc):
        if abs(x.imag) > tol:
            return None
        x = x.real
    fr = Fraction(ctx.nstr(x, 40)).limit_denominator(10 ** 6)
    if abs(fr.numerator) > 10 ** 6:
        return None
    err = abs(x - ctx.mpf(fr.numerator) / fr.denominator)
    if err <= 10 * tol:
        return fr
    return None


class RegulatorMatrix(Record):
    __slots__ = ("entries",)

    def __init__(self, entries: list):
        self.entries = entries          # 2x2 of mp reals

    def det(self):
        e = self.entries
        return e[0][0] * e[1][1] - e[0][1] * e[1][0]


class RegulatorReport(Record):
    __slots__ = ("case", "t", "r_value", "crosschecks", "expected_ratio", "measured_ratio",
                 "detected_ratio", "notes")

    def __init__(self, case: str, t: Fraction | None, r_value, crosschecks: list | None = None,
                 expected_ratio: Fraction | None = None, measured_ratio=None,
                 detected_ratio: Fraction | None = None, notes: list | None = None):
        self.case, self.t, self.r_value = case, t, r_value
        self.crosschecks = [] if crosschecks is None else crosschecks   # (name, max deviation)
        self.expected_ratio, self.measured_ratio = expected_ratio, measured_ratio
        self.detected_ratio = detected_ratio
        self.notes = [] if notes is None else notes

    def check(self, name: str, deviation, pol: PrecisionPolicy):
        """Record a crosscheck; deviations must clear 10^-(target-5)."""
        self.crosschecks.append((name, deviation))
        limit = pol.ctx.mpf(10) ** (-(pol.target_digits - 5))
        if deviation is not None and deviation > limit:
            raise CaseError(
                f"crosscheck {name!r} deviates by {pol.ctx.nstr(deviation, 5)} "
                f"(limit {pol.ctx.nstr(limit, 3)})")

    def to_doc(self, pol: PrecisionPolicy) -> dict:
        ctx = pol.ctx
        d = pol.target_digits

        def num(x):
            if x is None:
                return None
            if isinstance(x, Fraction):
                return f"{x.numerator}/{x.denominator}"
            return ctx.nstr(x, d)

        return {
            "case": self.case,
            "t": None if self.t is None else f"{self.t.numerator}/{self.t.denominator}",
            "r_value": num(self.r_value),
            "crosschecks": [[name, num(dev)] for name, dev in self.crosschecks],
            "expected_ratio": num(self.expected_ratio),
            "measured_ratio": num(self.measured_ratio),
            "detected_ratio": num(self.detected_ratio),
            "notes": list(self.notes),
        }
