"""Verification suites behind `hyperreg verify`.

Each suite returns machine-readable pass/fail lines; the ratio suite is
skipped (exit 0) when no L-data is present in the fixtures.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .mpnum import PrecisionPolicy, special
from .regulators.fixtures import FixtureError, fixture_L_value, load_fixture


def _result(name, ok, detail=""):
    return {"check": name, "status": "pass" if ok else "fail", "detail": detail}


def suite_identities(pol: PrecisionPolicy) -> list:
    ctx = pol.ctx
    out = []
    from .regulators.elliptic import conifold_catalan_identity
    dev, _ = conifold_catalan_identity(pol)
    out.append(_result("conifold_identity", dev < pol.tol, f"deviation {ctx.nstr(dev, 3)}"))
    # Lerch at twelfths
    from .mpnum import hurwitz_zeta
    worst = ctx.mpf(0)
    for num in range(1, 12):
        x = Fraction(num, 12)
        lhs = hurwitz_zeta(0, x, 1, pol)
        rhs = ctx.loggamma(ctx.mpf(num) / 12) - ctx.log(2 * ctx.pi) / 2
        worst = max(worst, abs(lhs - rhs))
    out.append(_result("lerch", worst < pol.tol, f"max deviation {ctx.nstr(worst, 3)}"))
    # Catalan three ways
    cat = special("catalan", pol)
    dev_cat = abs(ctx.im(ctx.polylog(2, ctx.mpc(0, 1))) - cat)
    out.append(_result("catalan", dev_cat < pol.tol, f"deviation {ctx.nstr(dev_cat, 3)}"))
    # quintic roots
    from .regulators.quintic import quintic_roots_residuals
    r0, r1, _, _ = quintic_roots_residuals(pol)
    tol5 = ctx.mpf(10) ** (-(pol.target_digits - 5))
    out.append(_result("quintic_roots", max(r0, r1) < tol5,
                       f"residuals {ctx.nstr(r0, 3)}, {ctx.nstr(r1, 3)}"))
    return out


def suite_ode(pol: PrecisionPolicy) -> list:
    from .hypergeom import parse_hg
    from .ode import residual_frobenius, residual_inhomogeneous
    out = []
    table = ("1/5,2/5,3/5,4/5;1,1,1,1", "1/4,1/2,1/2,3/4;1,1,1,1",
             "1/3,1/3,2/3,2/3;1,1,1,1", "1/2,1/2,1/2,1/2;1,1,1,1",
             "1/5,2/5,3/5,4/5;1/6,5/6,1,1")
    for text in table:
        h = parse_hg(text)
        rep = residual_frobenius(h, 4, 20)
        out.append(_result(f"frobenius[{text}]", rep.exact_zero,
                           f"{rep.terms_checked} slots"))
        if h.b_all_ones():
            rep2 = residual_inhomogeneous(h, 2, 20)
            out.append(_result(f"inhomogeneous[{text}]", rep2.exact_zero,
                               f"{rep2.terms_checked} slots"))
    return out


# least working digits of the continuation suite's sums: its rows hold their
# deviations to 10^-15, which 16 working digits (--digits 1) cannot hold
CONTINUATION_DIGITS = 30


def suite_continuation(pol: PrecisionPolicy) -> list:
    if pol.working_digits < CONTINUATION_DIGITS:
        pol = PrecisionPolicy(CONTINUATION_DIGITS - pol.guard_digits, pol.guard_digits,
                              pol.max_terms)
    ctx = pol.ctx
    out = []
    from .regulators.k2 import (chain_vs_entries, mb_compare, mb_contour_bound,
                                theta_ladder_residual)
    tol15 = ctx.mpf(10) ** -15
    # each mb row also holds the contour's own error bound to its limit
    for z in ("0.5", "0.9"):
        dev, _ = mb_compare(ctx.mpf(z), pol)
        ok = dev < tol15 and mb_contour_bound(ctx.mpf(z), pol) < tol15
        out.append(_result(f"mb_right[z={z}]", ok, ctx.nstr(dev, 3)))
    for z in ("1.2", "2", "10"):
        dev, q = mb_compare(ctx.mpf(z), pol)
        ok = dev < tol15 and q is not None and mb_contour_bound(ctx.mpf(z), pol) < tol15
        out.append(_result(f"mb_left[z={z}]", ok,
                           f"residual {ctx.nstr(dev, 3)} mod (2 pi i)^3 Q ({q})"))
    dev = chain_vs_entries(ctx.mpf(1024), pol)
    out.append(_result("chain_identity[z=1024]", dev < tol15, ctx.nstr(dev, 3)))
    out.append(_result("theta_ladder", theta_ladder_residual(24) == 0, "exact"))
    from .regulators.hadamard import hadamard_regulator
    from .regulators.reporting import CaseError
    try:
        hadamard_regulator("k4", 20)
        hadamard_regulator("k2_R0", 12)
        out.append(_result("hadamard_engines", True, "closed forms reproduced"))
    except CaseError as exc:         # an engine's documented refusal is a failing row
        out.append(_result("hadamard_engines", False, str(exc)))
    return out


def suite_ratios(pol: PrecisionPolicy, fixtures_dir) -> list:
    ctx = pol.ctx
    out = []
    from .lfun.ratio import check_ratio_point, ratio_report
    from .regulators.reporting import CaseError
    any_data = False
    for case in ("k4", "k2", "appB"):
        rows = load_fixture(case, fixtures_dir)
        for i, row in enumerate(rows):
            if row.get("t") is None:
                continue
            lv = fixture_L_value(row, pol)
            if lv is None:
                continue
            try:        # a row whose t its case refuses is a fixture error
                check_ratio_point(case, row["t"], pol)
            except CaseError as exc:
                raise FixtureError(f"{Path(fixtures_dir) / f'{case}.json'}: entry {i}: "
                                   f"{exc}") from None
            any_data = True
            rep = ratio_report(case, row["t"], pol, fixtures_dir)
            expect = row.get("expected_ratio")
            ok = (rep.detected_ratio is not None
                  and (expect is None or rep.detected_ratio == expect))
            dev = None
            if expect is not None and rep.measured_ratio is not None:
                dev = abs(rep.measured_ratio
                          - ctx.mpf(expect.numerator) / expect.denominator)
                ok = ok and dev < ctx.mpf(10) ** -6
            out.append(_result(f"ratio[{case}, t={row['t']}]", ok,
                               f"measured {ctx.nstr(rep.measured_ratio, 12)}"
                               + (f", |delta| = {ctx.nstr(dev, 3)}" if dev is not None else "")))
    if not any_data:
        out.append({"check": "ratios", "status": "skipped",
                    "detail": "skipped: no L-data"})
    # the quintic fixture is self-contained (native AFE value)
    rows = load_fixture("quintic", fixtures_dir)
    if rows and rows[0].get("L_value"):
        from .regulators.quintic import quintic_det
        rep = quintic_det(pol)
        lv = fixture_L_value(rows[0], pol)
        # (2/25)|det| is the unit regulator L''(0)/2; the companion 25/2
        # prefactor is recorded as inverted (see README).
        det = rep.r_value / (ctx.mpf(25) / 2)
        dev = abs(abs(det) * 2 / 25 - abs(lv) / 2)
        ok = dev < ctx.mpf(10) ** (-min(20, pol.target_digits - 5))
        out.append(_result("quintic_regulator_fixture", ok,
                           f"(2/25)|det| vs L''(0)/2: delta {ctx.nstr(dev, 3)}"))
    return out


def run_suite(which: str, pol: PrecisionPolicy, fixtures_dir="fixtures"):
    suites = {
        "identities": lambda: suite_identities(pol),
        "ode": lambda: suite_ode(pol),
        "continuation": lambda: suite_continuation(pol),
        "ratios": lambda: suite_ratios(pol, fixtures_dir),
    }
    names = list(suites) if which == "all" else [which]
    results = []
    for name in names:
        for row in suites[name]():
            row["suite"] = name
            results.append(row)
    ok = all(r["status"] in ("pass", "skipped") for r in results)
    return results, ok
