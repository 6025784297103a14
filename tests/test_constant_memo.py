"""The per-precision constant memo and the exact-to-float boundary that reads it."""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction

import pytest

from hyperreg import mpnum
from hyperreg.exactnum import (EX_B4, EX_CAT, EX_I, EX_LN2, EX_PI, EX_Z3,
                               AtomValueError, ExactNum)
from hyperreg.mpnum import PrecisionPolicy, special


def _fresh_atoms(ctx) -> dict:
    """The atom table computed afresh, as to_mp did before the memo."""
    return {
        "i": ctx.mpc(0, 1),
        "pi": ctx.pi,
        "ln2": ctx.ln2,
        "cat": ctx.catalan,
        "z3": ctx.zeta(3),
        "b4": (ctx.zeta(4, ctx.mpf(1) / 4) - ctx.zeta(4, ctx.mpf(3) / 4)) / ctx.mpf(4) ** 4,
    }


def _fresh_to_mp(x: ExactNum, ctx):
    vals = _fresh_atoms(ctx)
    total = ctx.mpf(0)
    for mono, c in x.terms.items():
        term = ctx.mpf(c.numerator) / c.denominator
        for name, e in mono:
            term = term * vals[name] ** e
        total = total + term
    return ctx.re(total) if ctx.im(total) == 0 else total


MIXED = (EX_Z3 * EX_PI * EX_PI * Fraction(-3, 7) + EX_B4 * 5 + EX_LN2 * EX_CAT
         + EX_I * EX_PI ** 3 + Fraction(1, 3))


def test_memoized_atoms_equal_fresh_values(monkeypatch):
    """Interleaved precisions read the same bits as an unmemoized computation."""
    monkeypatch.setattr(mpnum, "_const_cache", {})
    for digits in (20, 50, 20, 50):
        ctx = PrecisionPolicy(digits).ctx
        fresh = _fresh_atoms(ctx)
        for name, atom in (("pi", EX_PI), ("ln2", EX_LN2), ("cat", EX_CAT),
                           ("z3", EX_Z3), ("b4", EX_B4)):
            assert atom.to_mp(ctx) == fresh[name]
        assert MIXED.to_mp(ctx) == _fresh_to_mp(MIXED, ctx)
    precs = {prec for _name, prec in mpnum._const_cache}
    assert precs == {PrecisionPolicy(20).ctx.prec, PrecisionPolicy(50).ctx.prec}


def test_memo_is_keyed_by_binary_precision(monkeypatch):
    monkeypatch.setattr(mpnum, "_const_cache", {})
    a, b = PrecisionPolicy(20), PrecisionPolicy(20, guard_digits=15)
    za = special("zeta3", a)
    assert list(mpnum._const_cache) == [("zeta3", a.ctx.prec)]
    zb = special("zeta3", b.ctx)
    assert len(mpnum._const_cache) == 1
    assert za == zb
    # the value belongs to the caller's context, whichever filled the entry
    assert zb.context is b.ctx


def test_atoms_take_only_the_memo_values():
    ctx = PrecisionPolicy(20).ctx
    with pytest.raises(AtomValueError):
        ExactNum.atom("a1").to_mp(ctx)
    assert EX_PI.to_mp(ctx) == +ctx.pi


def test_import_computes_no_constant():
    code = ("import hyperreg.exactnum, hyperreg.mpnum as m; "
            "assert not m._const_cache, m._const_cache")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
