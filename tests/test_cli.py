from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "hyperreg.cli"]


def run(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


def test_period_t_variable():
    out = run("period", "1/2,1/2,1/2,1/2;1,1,1,1", "--var", "t", "-K", "4", "--json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["coefficients"] == ["1", "16", "1296", "160000"]


def test_period_appb_pi0():
    out = run("period", "appB:pi0", "-K", "5", "--json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["coefficients"] == ["1", "2/9", "10/81", "560/6561", "3850/59049"]


def test_period_parse_error_exit2():
    out = run("period", ";1,1")
    assert out.returncode == 2


def test_period_divergent_point_exit3():
    out = run("period", "1/2;1", "--var", "t", "-K", "64", "--point", "2/3")
    assert out.returncode == 3


@pytest.mark.parametrize("case, t, message", [
    ("k2", "1/1000", "error: z = 128/125 too close to the |z| = 1 boundary\n"),
    ("k2", "1/2048", "error: z = 2^10 t = 1/2 must exceed 1\n"),
    ("k4", "1/2", "error: t = 1/2 outside the validity interval of case k4\n"),
    ("appB", "8", "error: t = 8 outside (0, 3125/432)\n"),
    ("cy0", "1/3", "error: need n > 5\n"),
])
def test_regulator_point_refused_by_its_case_exit2(case, t, message):
    """Each case judges its own points; nothing is computed for a refused one."""
    out = run("regulator", "--case", case, "--t", t)
    assert (out.returncode, out.stdout, out.stderr) == (2, "", message)


def test_regulator_out_of_range_exit2():
    out = run("regulator", "--case", "cy0", "--t", "1/3")
    assert out.returncode == 2


def test_regulator_decimal_rejected():
    out = run("regulator", "--case", "cy0", "--t", "0.14")
    assert out.returncode == 2


def test_regulator_cy0(tmp_path):
    out = run("--digits", "20", "regulator", "--case", "cy0", "--t", "1/7", "--json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["detected_ratio"] == "1/8"


def test_determinism_and_concurrency():
    """Identical config => byte-identical output, across processes."""
    args = ("--digits", "20", "--json", "regulator", "--case", "k4",
            "--t", "1/1024,1/4096,1/16384")
    a = run(*args)
    b = run(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    docs = json.loads(a.stdout)
    assert [d["t"] for d in docs] == ["1/1024", "1/4096", "1/16384"]


@pytest.mark.parametrize("case, t", [("elliptic", "1/20"), ("quintic", "1/20"),
                                     ("cy0", "2/9")])
def test_regulator_without_ratio_pipeline_exit2(case, t):
    """Nothing is verified for these points, so they are usage errors."""
    out = run("regulator", "--case", case, "--t", t)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: ")


def test_regulator_list_is_serial_in_input_order():
    """A t-list prints exactly the single-point reports, in input order;
    --workers, once accepted and ignored, is a usage error."""
    points = ("1/65536", "1/1024", "1/16384", "1/4096")
    common = ("--digits", "20", "--json", "regulator", "--case", "k4")
    singles = [run(*common, "--t", t) for t in points]
    assert all(s.returncode == 0 for s in singles)
    listed = run(*common, "--t", ",".join(points))
    assert listed.returncode == 0
    assert json.loads(listed.stdout) == [json.loads(s.stdout) for s in singles]
    out = run(*common, "--t", ",".join(points), "--workers", "1")
    assert (out.returncode, out.stdout) == (2, "")
    assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: ")


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("digits = 20\n# comment\n")
    out = run("--config", str(cfg), "period", "1/2;1", "-K", "3", "--json")
    assert out.returncode == 0
    # flags win over config
    out2 = run("--config", str(cfg), "--digits", "25", "period", "1/2;1",
               "-K", "3", "--json")
    assert out2.returncode == 0


def test_config_file_with_a_byte_order_mark(tmp_path):
    """A config file saved with a UTF-8 byte-order mark reads as the same file
    without one; a file that is not UTF-8 still exits 2 with one line."""
    argv = ("period", "1/2;1", "-K", "12", "--point", "1/8", "--json")
    plain, marked, latin = (tmp_path / n for n in ("plain.cfg", "bom.cfg", "latin.cfg"))
    plain.write_bytes(b"digits=5\n")
    marked.write_bytes(b"\xef\xbb\xbfdigits=5\n")
    latin.write_bytes(b"\xef\xbbdigits=5\n")
    want = run("--config", str(plain), *argv)
    assert (want.returncode, want.stdout) == (0, run("--digits", "5", *argv).stdout)
    got = run("--config", str(marked), *argv)
    assert (got.returncode, got.stdout, got.stderr) == (0, want.stdout, want.stderr)
    bad = run("--config", str(latin), *argv)
    assert (bad.returncode, bad.stdout) == (2, "")
    assert len(bad.stderr.splitlines()) == 1 and bad.stderr.startswith("error: ")


def test_verify_ratios_skip_exit0(tmp_path):
    """Without L-data the ratio suite reports skipped and exits 0."""
    out = run("--digits", "20", "--fixtures", str(tmp_path), "verify", "ratios")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert any(r["status"] == "skipped" for r in doc)


def test_hadamard_command():
    out = run("hadamard", "k4", "-K", "8", "--json")
    assert out.returncode == 0
    assert "matches closed form" in out.stdout


def test_fetch_offline_miss(tmp_path):
    out = run("--cache", str(tmp_path), "--offline", "fetch", "some/label")
    assert out.returncode == 3


def test_fixture_digit_refusal(tmp_path):
    """The loader refuses L-values with fewer digits than the target."""
    import json as _json
    from hyperreg.mpnum import PrecisionPolicy
    from hyperreg.regulators.fixtures import (FixtureError, fixture_L_value,
                                              load_fixture)
    (tmp_path / "k4.json").write_text(_json.dumps(
        [{"t": "1/1024", "expected_ratio": "4", "L_value": "0.123456",
          "L_derivative_order": 2}]))
    rows = load_fixture("k4", tmp_path)
    pol = PrecisionPolicy(30)
    import pytest as _pytest
    with _pytest.raises(FixtureError):
        fixture_L_value(rows[0], pol)


def test_hyperreg_cache_env(tmp_path):
    import os
    env = dict(os.environ, HYPERREG_CACHE=str(tmp_path))
    out = subprocess.run(CLI + ["--offline", "fetch", "nope/nothing"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 3
    assert "offline" in out.stderr


@pytest.mark.parametrize("argv", [
    ["--digits", "0", "verify", "ode"],
    ["--digits", "-5", "verify", "ode"],
    ["--max-terms", "0", "verify", "ode"],
    ["--max-terms", "5", "verify", "ode"],
    ["period", "1/2;1", "-K", "-3"],
    ["period", "1/2;1", "-K", "0"],
    ["period", "appB:pi0", "-K", "-3"],
    ["period", "1/2;1", "-K", "5", "--point", "0"],
    ["period", "1/2;1", "-K", "5", "--point=-1/2"],
    ["hadamard", "k4", "-K", "-3"],
    ["period", "1/2;1", "-K", "5", "--point", "-1/2"],
    ["regulator", "--case", "k4"],
    ["period", "1/2;1", "--var", "w"],
    ["regulator", "--case", "k4", "--t=--"],
    ["--digits=--", "verify", "ode"],
])
def test_bad_settings_exit2_one_line(argv):
    out = run(*argv)
    assert out.returncode == 2
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: ")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("config, argv", [
    ("digits=abc\n", ["verify", "ode"]),
    ("max_terms=5\n", ["verify", "ode"]),
    ("digits=20\n", ["--digits", "0", "verify", "ode"]),
    ("digitz=5\n", ["period", "1/2;1", "-K", "3", "--point", "1/2"]),
    ("mode=bogus\n", ["period", "1/2;1", "-K", "3"]),
])
def test_bad_config_settings_exit2_one_line(tmp_path, config, argv):
    cfg = tmp_path / "hyperreg.cfg"
    cfg.write_text(config)
    out = run("--config", str(cfg), *argv)
    assert out.returncode == 2
    assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: ")
    assert "Traceback" not in out.stderr


def _chi_minus4_spec(directory):
    """Spec of L(chi_-4, s) with its Euler factors for p < 50."""
    euler = directory / "chi-4.jsonl"
    lines = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        factor = [1] if p == 2 else [1, -1] if p % 4 == 1 else [1, 1]
        lines.append(json.dumps({"p": p, "factor": factor}))
    euler.write_text("\n".join(lines) + "\n")
    spec = directory / "chi-4.json"
    spec.write_text(json.dumps({
        "degree": 1, "weight": 0, "conductor": 4, "gamma_shifts": [["R", "1"]],
        "sign": 1, "euler_path": str(euler), "label": "chi_-4"}))
    return spec


@pytest.mark.parametrize("argv", [
    ["--s", "abc"],
    ["--s", "1/0"],
    ["--s", "2", "--order", "3"],
    ["--s", "2", "--order", "-1"],
])
def test_bad_lfun_settings_exit2_one_line(tmp_path, argv):
    out = run("--digits", "8", "lfun", str(_chi_minus4_spec(tmp_path)), *argv)
    assert out.returncode == 2
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: ")
    assert "Traceback" not in out.stderr


def _zeta_spec(directory):
    """Spec of zeta(s): Gamma_R(s), simple poles of Lambda at s = 1 and 0."""
    euler = directory / "zeta.jsonl"
    euler.write_text("".join(json.dumps({"p": p, "factor": [1, -1]}) + "\n"
                             for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)))
    spec = directory / "zeta.json"
    spec.write_text(json.dumps({
        "degree": 1, "weight": 0, "conductor": 1, "gamma_shifts": [["R", "0"]],
        "sign": 1, "euler_path": str(euler), "poles": [["1", 1], ["0", -1]],
        "label": "zeta"}))
    return spec


def _chi5_spec(directory):
    """Spec of L(chi_5, s), whose Gamma_R(s) has a pole at the trivial zero s = 0."""
    euler = directory / "chi5.jsonl"
    lines = []
    for p in (2, 3, 5, 7, 11, 13):
        c = 0 if p == 5 else 1 if p % 5 in (1, 4) else -1
        lines.append(json.dumps({"p": p, "factor": [1, -c] if c else [1]}))
    euler.write_text("\n".join(lines) + "\n")
    spec = directory / "chi5.json"
    spec.write_text(json.dumps({
        "degree": 1, "weight": 0, "conductor": 5, "gamma_shifts": [["R", "0"]],
        "sign": 1, "euler_path": str(euler), "label": "chi_5"}))
    return spec


@pytest.mark.parametrize("make_spec, argv, message", [
    (_chi5_spec, ["--s", "0", "--order", "0"], "gamma pole of order 1"),
    (_zeta_spec, ["--s", "1"], "pole of Lambda"),
    (_zeta_spec, ["--s", "0", "--order", "1"], "pole of Lambda"),
    # |s| >= 2^72 at 80 working bits: s + 1 rounds onto a pole of Gamma_R(s + 1)
    # (s = -1e30 and -1e400), or a kernel line lies past any decay (s = 1e400)
    (_chi_minus4_spec, ["--s=-1e30"], "|s| >= 2^72"),
    (_chi_minus4_spec, ["--s=-1e30", "--order", "1"], "|s| >= 2^72"),
    (_chi_minus4_spec, ["--s=-1e400"], "|s| >= 2^72"),
    (_chi_minus4_spec, ["--s=-1e400", "--order", "1"], "|s| >= 2^72"),
    (_chi_minus4_spec, ["--s=1e400"], "|s| >= 2^72"),
    # s = -2 - 10^-31 is no pole of Gamma_R(s), but rounds onto -2 at 80 bits
    (_chi5_spec, ["--s=-2.0000000000000000000000000000001"], "within rounding of a gamma pole"),
    (_chi5_spec, ["--s=-2.0000000000000000000000000000001", "--order", "1"],
     "within rounding of a gamma pole"),
])
def test_lfun_point_it_cannot_serve_exit2_one_line(tmp_path, make_spec, argv, message):
    out = run("--digits", "8", "lfun", str(make_spec(tmp_path)), *argv)
    assert out.returncode == 2
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: ")
    assert message in out.stderr and "Traceback" not in out.stderr


def test_lfun_far_left_of_the_strip_exits_3_at_once(tmp_path):
    """At s = -99999999 the kernel's line lies 10^8 right of 0 and its
    rounding weight overflows binary64: exit 3 with one line, well within
    30 s, since the kernel build reads only each gamma factor's first pole."""
    out = run("--digits", "8", "lfun", str(_chi_minus4_spec(tmp_path)), "--s=-99999999",
              "--order", "1", timeout=30)
    assert (out.returncode, out.stdout) == (3, "")
    assert out.stderr == "error: AFE kernel rounding bound past binary64\n"


def test_non_integer_euler_data_exit2_one_line(tmp_path):
    """An Euler file with p = 3.9 is a bad spec file, not a factor at p = 3."""
    spec = _chi_minus4_spec(tmp_path)
    euler = tmp_path / "chi-4.jsonl"
    euler.write_text(euler.read_text().replace('"p": 3,', '"p": 3.9,'))
    out = run("--digits", "8", "lfun", str(spec), "--s", "2")
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: bad spec file: ") and "3.9" in out.stderr
    assert len(out.stderr.splitlines()) == 1


@pytest.mark.parametrize("change", [
    {"sign": "abc"}, {"sign": None}, {"sign": [1]},
    {"gamma_shifts": [["R", [1]]]}, {"gamma_shifts": 5},
    {"poles": [["1", "x"]]}, {"euler_path": ["chi-4.jsonl"]},
    {"conductor": 4.5}, {"degree": True},
    {"gamma_shifts": [[["R"], "0"]]}, {"gamma_shifts": [[{"R": 1}, "0"]]},
])
def test_malformed_lfun_spec_exit2_one_line(tmp_path, change):
    """Each field's JSON type is checked where it is read; a conductor of 4.5
    is refused, not truncated to 4."""
    spec = _chi_minus4_spec(tmp_path)
    spec.write_text(json.dumps(dict(json.loads(spec.read_text()), **change)))
    out = run("--digits", "8", "lfun", str(spec), "--s", "2")
    assert out.returncode == 2
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: bad spec file: ")
    assert "Traceback" not in out.stderr


def test_lfun_spec_not_an_object_exit2(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text("[1, 2]")
    out = run("lfun", str(spec), "--s", "2")
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: bad spec file: expected a JSON object, got list\n"


def test_lfun_decimal_s_accepted(tmp_path):
    out = run("--digits", "8", "lfun", str(_chi_minus4_spec(tmp_path)), "--s", "2.5")
    assert out.returncode == 0
    assert json.loads(out.stdout)["s"] == "2.5"


def test_help_exit0():
    out = run("period", "--help")
    assert out.returncode == 0
    assert out.stdout.startswith("usage: hyperreg period")


@pytest.mark.parametrize("argv", [
    ["--max-terms", "16", "regulator", "--case", "cy0", "--t", "1/7"],
    ["--max-terms", "16", "verify", "continuation"],
    ["--max-terms", "16", "regulator", "--case", "k4", "--t", "1/1024"],
    ["--max-terms", "16", "regulator", "--case", "k2", "--t", "49"],
])
def test_series_cap_hit_exit3_one_line(argv):
    """A series cap hit is a divergence wherever it happens, named by its flag."""
    out = run(*argv)
    assert out.returncode == 3
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: ")
    assert "truncation cap hit" in out.stderr and "--max-terms" in out.stderr


def test_k4_fixed_truncation_past_the_cap_exits_at_once():
    """K = 32365 at t = 255/65536 is past the default cap of 4000: refused before
    any entry is built."""
    argv = ["regulator", "--case", "k4", "--t", "255/65536"]
    out = run(*argv, timeout=60)
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr == ("error: k4 entries truncation cap hit: it needs 32365 terms, "
                          "more than 4000 (raise --max-terms)\n")
    from hyperreg import cli
    start = time.perf_counter()
    assert cli.main(argv) == 3
    assert time.perf_counter() - start < 1.0


def test_continuation_cap_hit_skips_contour(monkeypatch, capsys):
    """The series side is summed first, so its cap hit exits before the contour runs."""
    from hyperreg import cli
    from hyperreg.regulators import k2
    calls = []
    monkeypatch.setattr(k2, "mb_contour", lambda *a: calls.append(a))
    assert cli.main(["--max-terms", "16", "verify", "continuation"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: k2 right series truncation cap hit after 16 terms (raise --max-terms)\n"
    assert calls == []


def _continuation_with_engine(monkeypatch, engine):
    """verify.suite_continuation at 30 digits with the Mellin-Barnes and
    theta-ladder checks stubbed to pass and hadamard_regulator replaced."""
    from hyperreg import verify
    from hyperreg.mpnum import PrecisionPolicy
    from hyperreg.regulators import hadamard, k2
    monkeypatch.setattr(k2, "mb_compare", lambda z, pol: (pol.ctx.mpf(0), "1"))
    monkeypatch.setattr(k2, "mb_contour_bound", lambda z, pol: pol.ctx.mpf(0))
    monkeypatch.setattr(k2, "theta_ladder_residual", lambda K: 0)
    monkeypatch.setattr(hadamard, "hadamard_regulator", engine)
    return verify.suite_continuation(PrecisionPolicy(30))


def test_hadamard_engine_refusal_is_a_failing_row(monkeypatch):
    """A CaseError from an engine, the one error the engines document, is a
    failing hadamard_engines row carrying its message."""
    from hyperreg.regulators.reporting import CaseError

    def refuses(which, K):
        raise CaseError("k4 annulus assembly does not match the closed form")

    rows = _continuation_with_engine(monkeypatch, refuses)
    assert rows[-1] == {"check": "hadamard_engines", "status": "fail",
                        "detail": "k4 annulus assembly does not match the closed form"}


def test_hadamard_engine_defect_propagates(monkeypatch):
    """Any other exception from an engine is a defect, not a verification
    result: it propagates out of the suite."""
    def broken(which, K):
        raise TypeError("unsupported operand")

    with pytest.raises(TypeError, match="unsupported operand"):
        _continuation_with_engine(monkeypatch, broken)


# a fresh interpreter runs cli.main(argv), then prints its loaded modules as the last line
_PROBE = ("import json, sys\nfrom hyperreg import cli\ncli.main(json.loads(sys.argv[1]))\n"
          "print(json.dumps(sorted(sys.modules)))\n")


def _loaded_modules(argv, probe=_PROBE):
    import hyperreg
    src = str(Path(hyperreg.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_exact_period_loads_no_mpmath_or_series():
    loaded = _loaded_modules(["period", "1/5,2/5,3/5,4/5;1,1,1,1", "--var", "t", "-K", "120"])
    assert "hyperreg.hgdata" in loaded
    assert not loaded & {"mpmath", "hyperreg.series", "hyperreg.exactnum", "hyperreg.hypergeom"}


@pytest.mark.parametrize("argv", [
    ["period", "1/2,1/2,1/3,2/3;1,1,1,1", "--var", "t", "-K", "120", "--point", "1/1024"],
    ["regulator", "--case", "cy0", "--t", "1/7"],
    ["regulator", "--case", "appB", "--t", "2"],
])
def test_ratio_sum_callers_load_no_series_algebra(argv):
    """ratio_sum lives in mpnum: summing loads neither series nor exactnum."""
    loaded = _loaded_modules(argv)
    assert "hyperreg.mpnum" in loaded
    assert not loaded & {"hyperreg.series", "hyperreg.exactnum"}


def test_regulator_loads_only_its_case():
    loaded = _loaded_modules(["regulator", "--case", "k2", "--t", "1/16"])
    assert "hyperreg.regulators.k2" in loaded
    assert not loaded & {f"hyperreg.{m}" for m in (
        "regulators.k4", "regulators.cy0", "regulators.appb", "regulators.quintic",
        "lfun.motive", "lfun.euler")}


def test_lfun_loads_no_hypergeom_or_series(tmp_path):
    loaded = _loaded_modules(["--digits", "8", "lfun", str(_chi_minus4_spec(tmp_path)),
                              "--s", "2"])
    assert "hyperreg.lfun.motive" in loaded
    assert not loaded & {"hyperreg.hypergeom", "hyperreg.series", "hyperreg.hgdata"}


@pytest.mark.parametrize("argv", [
    ["period", "1/5,2/5,3/5,4/5;1,1,1,1", "--var", "t", "-K", "120"],
    ["period", "1/2,1/2,1/3,2/3;1,1,1,1", "--var", "t", "-K", "120", "--point", "1/1024"],
    ["regulator", "--case", "k4", "--t", "1/1024"],
    ["regulator", "--case", "k2", "--t", "1/16"],
    ["regulator", "--case", "appB", "--t", "2"],
    ["regulator", "--case", "cy0", "--t", "1/7"],
    ["verify", "ode"],
    ["verify", "identities"],
    ["verify", "continuation"],
    ["verify", "ratios"],
    ["--digits", "8", "lfun", "SPEC", "--s", "2"],
    ["fetch", "--offline", "test/label"],
    ["hadamard", "k4", "-K", "20"],
], ids=["period", "period-point", "regulator-k4", "regulator-k2", "regulator-appB",
        "regulator-cy0", "verify-ode", "verify-identities", "verify-continuation",
        "verify-ratios", "lfun", "fetch-offline", "hadamard"])
def test_no_subcommand_loads_dataclasses_or_inspect(tmp_path, argv):
    """No class of the package is generated at import: importing dataclasses
    pulls in inspect, ast, dis and tokenize, and execs each class's methods."""
    argv = [str(_chi_minus4_spec(tmp_path)) if a == "SPEC" else a for a in argv]
    loaded = _loaded_modules(["--cache", str(tmp_path / "cache")] + argv)
    assert "hyperreg.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_shared_atomic_writer_loads_no_openssl_or_mpmath(tmp_path):
    """lfun and fetch write their caches through euler.write_atomic: a cold
    `lfun`, which saves its kernels, loads no urllib.request or OpenSSL, and
    a fetch that saves a response loads no mpmath."""
    cache = tmp_path / "cache"
    loaded = _loaded_modules(["--cache", str(cache), "--digits", "8", "lfun",
                              str(_chi_minus4_spec(tmp_path)), "--s", "2"])
    assert "hyperreg.lfun.euler" in loaded and len(list((cache / "kernels").iterdir())) == 2
    assert not loaded & {"urllib.request", "http.client", "ssl", "_ssl"}
    fetch = ("import json, sys\nfrom hyperreg.lfun.web import lmfdb_fetch\n"
             "lmfdb_fetch('test/label', json.loads(sys.argv[1]), opener=lambda url: json.dumps(\n"
             "    {'data': [{'degree': 1, 'euler_factors': [[2, [1, -1]]]}]}).encode())\n"
             "print(json.dumps(sorted(sys.modules)))\n")
    loaded = _loaded_modules(str(cache), fetch)
    assert len(list((cache / "lmfdb").iterdir())) == 2
    assert "hyperreg.lfun.euler" in loaded and "mpmath" not in loaded


def test_hypergeom_reexports_resolve():
    from hyperreg import hgdata, hypergeom
    for name in hypergeom.__all__:
        assert getattr(hypergeom, name) is not None
    assert hypergeom.coeff_stream is hgdata.coeff_stream


# --- fixture errors and failing verification -----------------------------------

_K4_ROW = {"t": "1/1024", "expected_ratio": "4", "L_derivative_order": 2}


@pytest.mark.parametrize("fixture, argv", [
    ("[{", ["regulator", "--case", "k4", "--t", "1/1024"]),
    ("[{", ["verify", "ratios"]),
    (json.dumps([dict(_K4_ROW, L_value="0.123456")]), ["verify", "ratios"]),
    (json.dumps([dict(_K4_ROW, L_value="0.123456")]),
     ["regulator", "--case", "k4", "--t", "1/1024"]),
    (json.dumps(["not an object"]), ["regulator", "--case", "k4", "--t", "1/1024"]),
    (json.dumps([dict(_K4_ROW, t="one")]), ["verify", "ratios"]),
    (json.dumps([dict(_K4_ROW, t=[1])]), ["regulator", "--case", "k4", "--t", "1/1024"]),
    (json.dumps([dict(_K4_ROW, expected_ratio="4/0")]), ["verify", "ratios"]),
    # an L-value that is neither null nor a decimal string
    (json.dumps([dict(_K4_ROW, L_value=1.5)]), ["regulator", "--case", "k4", "--t", "1/1024"]),
    (json.dumps([dict(_K4_ROW, L_value=1.5)]), ["verify", "ratios"]),
    (json.dumps([dict(_K4_ROW, L_value="0.12345678901234567890123456789x123")]),
     ["verify", "ratios"]),
    # a row with L-data whose t its case refuses
    (json.dumps([dict(_K4_ROW, t="1", L_value="0.1234567890123456789012345678901234")]),
     ["verify", "ratios"]),
    # a t or an expected ratio that is a JSON boolean or number, or empty, not a
    # "p/q" string
    (json.dumps([dict(_K4_ROW, t=True)]), ["regulator", "--case", "k4", "--t", "1/1024"]),
    (json.dumps([dict(_K4_ROW, t="")]), ["verify", "ratios"]),
    (json.dumps([dict(_K4_ROW, t=0)]), ["verify", "ratios"]),
    (json.dumps([dict(_K4_ROW, expected_ratio=0.1)]),
     ["regulator", "--case", "k4", "--t", "1/1024"]),
])
def test_fixture_error_exit2_one_line(tmp_path, fixture, argv):
    (tmp_path / "k4.json").write_text(fixture)
    out = run("--fixtures", str(tmp_path), *argv)
    assert out.returncode == 2
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: ")
    assert str(tmp_path / "k4.json") in out.stderr or "digits" in out.stderr
    assert "Traceback" not in out.stderr


def test_failing_verify_prints_results_and_one_error_line(monkeypatch, capsys):
    from hyperreg import cli, verify
    rows = [{"check": "forced", "status": "fail", "detail": "made to fail"},
            {"check": "fine", "status": "pass", "detail": ""}]
    monkeypatch.setattr(verify, "suite_identities", lambda pol: [dict(r) for r in rows])
    assert cli.main(["verify", "identities"]) == 4
    out = capsys.readouterr()
    assert json.loads(out.out) == [dict(r, suite="identities") for r in rows]
    assert out.err == "error: verification failed: forced\n"
