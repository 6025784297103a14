"""`regulator` accepts a point exactly when its case's check_point does.

Every run is `--max-terms 16 regulator --case C --t T[,T...]`, in process
through `cli.main`.  A run exits 2 exactly when some point is refused (an
unknown case, a t that does not parse, a t its case's `check_point`
rejects); otherwise it exits 0 or 3, the cap of 16 terms making most runs
a divergence, and a cy0 point whose residue sum exceeds the cap exiting 3
before anything is computed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperreg import cli
from hyperreg.lfun.ratio import CASE_MODULES, check_ratio_point
from hyperreg.mpnum import DivergenceError, PrecisionPolicy
from hyperreg.regulators.reporting import CaseError

JUNK_CASES = ("", "nope", "K4", "appb", "k4 ", "cy", "elliptic", "quintic")
JUNK_POINTS = ("abc", "0.5", "1e3", "1/0", "1/", "/2", "--", " ")
APPB_END = Fraction(3125, 432)


def _near(edge: Fraction, width: Fraction):
    return st.fractions(min_value=edge - width, max_value=edge + width,
                        max_denominator=10 ** 12)


POINTS = {
    # z = 2^10 t in (1, 1.1], with the edges z = 1 and z = 1.05 themselves, and
    # a z past the float range
    "k2": st.one_of(st.fractions(min_value=1, max_value=Fraction(11, 10),
                                 max_denominator=10 ** 6),
                    st.sampled_from((Fraction(1), Fraction(21, 20), Fraction(10 ** 400)))
                    ).map(lambda z: z / 1024),
    # and a t below the float range
    "k4": st.one_of(_near(Fraction(0), Fraction(1, 10 ** 6)),
                    _near(Fraction(1, 256), Fraction(1, 10 ** 6)),
                    st.just(Fraction(1, 10 ** 400))),
    # and around the lower point rule t = 1/200
    "appB": st.one_of(_near(Fraction(0), Fraction(1, 10 ** 7)),
                      _near(APPB_END, Fraction(1, 10 ** 7)),
                      st.fractions(min_value=Fraction(1, 250), max_value=Fraction(1, 100),
                                   max_denominator=10 ** 4),
                      st.fractions(min_value=Fraction(1, 100), max_value=APPB_END,
                                   max_denominator=1000)),
    "cy0": st.builds(Fraction, st.integers(-2, 5), st.integers(1, 100)),
}
ANY_POINT = st.one_of(*POINTS.values())


@st.composite
def regulator_runs(draw):
    case = draw(st.sampled_from(tuple(CASE_MODULES) + JUNK_CASES))
    point = POINTS.get(case, ANY_POINT).map(str)
    texts = draw(st.lists(st.one_of(point, point, point, st.sampled_from(JUNK_POINTS)),
                          min_size=1, max_size=3))
    return case, ",".join(texts)


# the policy of `--max-terms 16` at the default digits
POLICY = PrecisionPolicy(max_terms=16)


def _refused(case: str, text: str) -> bool:
    """Whether the CLI must refuse `--case case --t text` before computing:
    the first point whose check fails decides, a cap (exit 3) or a refusal."""
    try:
        points = [cli._parse_rational(x) for x in text.split(",") if x.strip()]
    except cli.CliError:
        return True
    try:
        for t in points:
            check_ratio_point(case, t, POLICY)
    except CaseError:
        return True
    except DivergenceError:
        return False
    return not points


def _argv(case: str, text: str) -> list:
    return ["--max-terms", "16", "regulator", f"--case={case}", f"--t={text}"]


def _run_in_process(argv: list):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=1000, deadline=None)
@given(regulator_runs())
def test_regulator_exit_matches_check_ratio_point(run):
    case, text = run
    code, out, err = _run_in_process(_argv(case, text))
    if _refused(case, text):
        assert code == 2, (code, err)
    else:
        assert code in (0, 3), (code, err)
    if code:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "Traceback" not in err
    else:
        assert err == ""
        json.loads(out)


def test_in_process_run_matches_subprocess():
    argv = _argv("k2", "1/1000,49")
    code, out, err = _run_in_process(argv)
    proc = subprocess.run([sys.executable, "-m", "hyperreg.cli"] + argv,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert code == 2 and "too close to the |z| = 1 boundary" in err


@pytest.mark.parametrize("module, det, t", [
    ("k4", "k4_det", Fraction(1, 256)),
    ("k2", "k2_det", Fraction(1, 1024)),
    ("k2", "k2_det", Fraction(1, 1000)),
    ("appb", "appB_det", Fraction(1, 10 ** 9)),
])
def test_det_entry_refuses_with_its_check_point_line(pol, module, det, t):
    mod = importlib.import_module(f"hyperreg.regulators.{module}")
    with pytest.raises(CaseError) as want:
        mod.check_point(t, pol)
    with pytest.raises(CaseError) as got:
        getattr(mod, det)(t, pol)
    assert str(got.value) == str(want.value)


def test_cy0_check_point(pol):
    from hyperreg.regulators import cy0
    assert cy0.check_point(Fraction(1, 7), pol) == 21
    for t, message in ((Fraction(2, 7), "t = 1/n"), (Fraction(1, 5), "n > 5"),
                       (Fraction(1, 8), "not squarefree")):
        with pytest.raises(CaseError, match=message):
            cy0.check_point(t, pol)
    # D = n(n - 4) residues against the cap of 4000: n = 65 fits, 66 does not
    assert cy0.check_point(Fraction(1, 65), pol) == 65 * 61
    with pytest.raises(DivergenceError, match="needs 4092 terms, more than 4000"):
        cy0.check_point(Fraction(1, 66), pol)
    # the cap comes before the squarefree test: 68 * 64 is not squarefree
    with pytest.raises(DivergenceError, match="--max-terms"):
        cy0.check_point(Fraction(1, 68), pol)


def test_cy0_point_past_the_cap_exits_at_once():
    """t = 1/1000000007 (D about 10^18, whose squarefree test would take
    about 10^9 trial divisions) exits 3 with one line naming --max-terms."""
    start = time.perf_counter()
    code, out, err = _run_in_process(["regulator", "--case", "cy0", "--t", "1/1000000007"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "") and len(err.splitlines()) == 1
    assert err.startswith("error: cy0 residue sum truncation cap hit") and "--max-terms" in err


@pytest.mark.parametrize("t", ["1/201", "1/250", "1/1000", "1/100000"])
def test_appB_below_its_lower_point_rule_is_a_usage_error(t):
    """Below t = 1/200 the probe cannot pass: refused with exit 2 and one line."""
    code, out, err = _run_in_process(["regulator", "--case", "appB", "--t", t])
    assert (code, out) == (2, "")
    assert err == f"error: t = {t} below 1/200, where the finite-difference probe " \
                  "cannot meet its 10^-12 budget\n"
