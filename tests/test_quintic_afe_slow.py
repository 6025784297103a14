"""End-to-end: the quintic L''(0) recomputed live from the Euler data.

Certifies the shipped fixture value against a fresh run of the smoothed
approximate-functional-equation evaluator, and the 20-digit identity
(2/25)|det Re S| = L''(0)/2 between the Puiseux-series route and the
Dirichlet-series route.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from hyperreg.lfun.euler import euler_ingest
from hyperreg.lfun.motive import LFunctionSpec, motive_L
from hyperreg.mpnum import PrecisionPolicy
from hyperreg.regulators.quintic import quintic_det


@pytest.mark.slow
def test_quintic_afe_end_to_end(fixtures_dir):
    pol = PrecisionPolicy(25, guard_digits=12)
    ctx = pol.ctx
    table = euler_ingest(fixtures_dir / "euler" / "quintic_field.jsonl", 4)
    spec = LFunctionSpec(
        degree=4, weight=0, conductor=2869,
        gamma_shifts=(("C", Fraction(0)), ("C", Fraction(0))),
        sign=1, euler=table, label="zetaK/zeta for Y^5-Y+1")
    val, err = motive_L(spec, 0, 2, pol)
    rows = json.loads((fixtures_dir / "quintic.json").read_text())
    stored = ctx.mpf(rows[0]["L_value"])
    assert abs(val - stored) < ctx.mpf(10) ** -22
    rep = quintic_det(pol)
    det = rep.r_value / (ctx.mpf(25) / 2)
    assert abs(abs(det) * 2 / 25 - abs(val) / 2) < ctx.mpf(10) ** -20
