"""One pass per S_A column: recorded CLI output, the character table's
multiplicativity check, work counts, exit codes."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperreg import cli
from hyperreg.lfun.dirichlet import (DirichletChar, LfunError, kronecker_character,
                                     quartic_character_mod5)
from hyperreg.mpnum import PrecisionPolicy
from hyperreg.regulators import appb, quintic
from hyperreg.regulators.cy0 import cy0_class_number_check
from hyperreg.regulators.reporting import CaseError
from hyperreg.series import DivergenceError

F = Fraction

REPO = Path(__file__).resolve().parents[1]
# stdout, stderr and exit code of `hyperreg --digits D regulator --case C --t T`
# run from the repository root (so with its fixtures), recorded before the S_A
# columns were fused; any change in a printed byte fails.
GOLDEN = json.loads((REPO / "tests" / "golden" / "regulator_appb_cy0.json").read_text())


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_regulator_cli_golden(argv, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    code = cli.main(argv.split())
    out = capsys.readouterr()
    want = GOLDEN[argv]
    assert (code, out.out, out.err) == (want["exit"], want["stdout"], want["stderr"])


# --- DirichletChar's multiplicativity check ----------------------------------

def _first_bad_pair(q: int, angles: list):
    """Brute force over Fractions: the first (a, b) where the table is not
    multiplicative, in the order the check visits them."""
    for a in range(1, q):
        for b in range(1, q):
            if angles[a] is None or angles[b] is None:
                continue
            if (angles[a] + angles[b] - angles[a * b % q]) % 1 != 0:
                return a, b
    return None


_TABLES = [quartic_character_mod5()] + [kronecker_character(D) for D in
                                        (-4, 5, -3, 8, -8, 12, 13, -7, 21, -20, 77)]
_ANGLES = [F(k, d) for d in (1, 2, 3, 4, 6, 12) for k in range(d)]


def test_dirichlet_char_accepts_characters():
    for chi in _TABLES + [chi.conjugate() for chi in _TABLES]:
        assert DirichletChar(chi.modulus, chi.angles).angles == chi.angles
        assert _first_bad_pair(chi.modulus, list(chi.angles)) is None


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_TABLES), st.data())
def test_dirichlet_char_rejects_corrupted_table(chi, data):
    q = chi.modulus
    angles = list(chi.angles)
    units = [a for a in range(q) if angles[a] is not None]
    for a in data.draw(st.lists(st.sampled_from(units), min_size=1, max_size=2)):
        angles[a] = data.draw(st.sampled_from(_ANGLES))
    bad = _first_bad_pair(q, angles)
    if bad is None:
        DirichletChar(q, tuple(angles))
    else:
        with pytest.raises(LfunError) as err:
            DirichletChar(q, tuple(angles))
        assert str(err.value) == f"table not multiplicative at ({bad[0]},{bad[1]})"


# --- work counts -------------------------------------------------------------

def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_column_requests_are_independent():
    """Summing several requests in one pass changes none of their values."""
    pol = PrecisionPolicy(20)
    th = F(1, 10 ** 8)
    requests = ((F(5), False), (F(5), True), (5 + th, False), (5 - th, False))
    for j in range(appb.DATA.m):
        alone = [quintic.column_sums(appb.DATA, j, (r,), pol)[0] for r in requests]
        assert quintic.column_sums(appb.DATA, j, requests, pol) == alone


def test_quintic_det_sums_each_column_once(monkeypatch):
    passes = _count_calls(monkeypatch, quintic, "column_sums")
    quintic.quintic_det(PrecisionPolicy(20))
    keys = [(str(h), j, requests) for h, j, requests, _ in passes]
    assert len(keys) == 8 and len(set(keys)) == 8


# --- exit codes --------------------------------------------------------------

@pytest.mark.parametrize("t, message", [("1/5", "need n > 5"),
                                        ("1/8", "discriminant 32 = 8(8-4) not squarefree")])
def test_cy0_point_without_class_number_check_is_usage_error(t, message, capsys):
    assert cli.main(["regulator", "--case", "cy0", "--t", t]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(CaseError, match=re.escape(message)):
        cy0_class_number_check(Fraction(t).denominator, PrecisionPolicy(20))


@pytest.mark.parametrize("argv", [["--digits", "50"], ["--max-terms", "30"]])
def test_appB_truncation_cap_is_divergence(argv, capsys):
    assert cli.main(argv + ["regulator", "--case", "appB", "--t", "7"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: S_A truncation cap hit after ")
    assert "--max-terms" in err
    with pytest.raises(DivergenceError):
        appb.appB_det(F(7), PrecisionPolicy(20, max_terms=30))
