"""`lfun`, `fetch`, `period`, `hadamard` and `--config` files keep the CLI's
exit contract whatever they read.

Every run goes in process through `cli.main`: `lfun` on tiny degree-1 specs
whose Euler tables are drawn at random (gaps below the largest prime, factors
past the spec's degree, a wrong constant term, no factor at all) and whose
gamma data is drawn too, with the kernel store under a temporary `--cache`;
`fetch --offline` on random cached bodies; `period` on random data, options
and points; `hadamard` at small K; and `period` and `hadamard` under config
files of random lines.
Each run exits 0, 2, 3 or 4; a non-zero exit writes one `error:` line and
no traceback, and exit 0 prints JSON.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperreg.lfun import web
from hyperreg.lfun.dirichlet import kronecker_symbol

from test_regulator_points import _run_in_process

PRIMES = tuple(p for p in range(2, 80) if all(p % q for q in range(2, p)))
LABEL = "tiny/label/1"
NOT_CACHED = f"error: offline mode and no cached response for {LABEL!r}\n"


def _assert_contract(code, out, err):
    assert code in (0, 2, 3, 4), (code, err)
    if code:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "Traceback" not in err
    else:
        assert err == ""
        json.loads(out)


def _spec(directory, lines, conductor=5, gamma=(("R", "0"),), sign=1, poles=()):
    """A degree-1 spec at directory/spec.json with the Euler lines, the
    gamma factors (kind, shift) and the poles (s, residue) of Lambda given."""
    (directory / "euler.jsonl").write_text("".join(json.dumps(x) + "\n" for x in lines))
    spec = directory / "spec.json"
    spec.write_text(json.dumps({
        "degree": 1, "weight": 0, "conductor": conductor,
        "gamma_shifts": [list(g) for g in gamma], "sign": sign,
        "poles": [list(p) for p in poles],
        "euler_path": str(directory / "euler.jsonl"), "label": "tiny"}))
    return spec


@st.composite
def lfun_specs(draw):
    """(Euler lines, conductor, gamma factors, sign) of a degree-1 spec.  The
    factors of degree at most 1 cover every prime up to a drawn largest one.
    They are those of a real character chi_D with its conductor and gamma
    factor, or random ones with at most one flaw: a gap below the largest
    prime, a constant term other than 1, a factor past degree 1, or no factor
    at all.  Beside the random factors the gamma data is drawn too: 0 to 3
    factors Gamma_R or Gamma_C with shifts 0, 1/2 or 1."""
    kind = draw(st.sampled_from(("character", "none", "gap", "constant term", "degree",
                                 "empty")))
    gamma = draw(st.lists(st.tuples(st.sampled_from("RC"), st.sampled_from(("0", "1/2", "1"))),
                          max_size=3))
    if kind == "empty":
        return [], 5, gamma, 1
    top = draw(st.integers(2, len(PRIMES)))
    if kind == "character":
        D = draw(st.sampled_from((-8, -7, -4, -3, 5, 8)))
        lines = [{"p": p, "factor": [1, -kronecker_symbol(D, p)] if D % p else [1]}
                 for p in PRIMES[:top]]
        return lines, abs(D), [("R", "1" if D < 0 else "0")], 1
    lines = [{"p": p, "factor": [1] + draw(st.lists(st.integers(-2, 2), max_size=1))}
             for p in PRIMES[:top]]
    i = draw(st.integers(0, top - 2))
    if kind == "gap":
        del lines[i]
    elif kind == "constant term":
        lines[i]["factor"][0] = draw(st.sampled_from((0, 2, -1)))
    elif kind == "degree":
        lines[i]["factor"] += [1, -1]
    return lines, draw(st.integers(1, 12)), gamma, draw(st.sampled_from((1, -1)))


def test_lfun_gapped_euler_table_exit2(tmp_path):
    """Factors at p = 2 and 5 only: the table has no factor at 3."""
    spec = _spec(tmp_path, [{"p": 2, "factor": [1, 1]}, {"p": 5, "factor": [1, -1]}])
    code, out, err = _run_in_process(["--cache", str(tmp_path / "cache"), "--digits", "6",
                                      "lfun", str(spec), "--s", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("error: bad spec file: missing Euler factors for primes [3]")
    assert len(err.splitlines()) == 1


def test_lfun_euler_table_too_short_exit3(tmp_path):
    """The spec of tests/test_lfun.py::test_coverage_error: zeta's factors at
    p <= 7 at conductor 10^6 run out before either side sum stops, and the
    kernels' rounding is not the cause: exit 3 with the coverage line."""
    spec = _spec(tmp_path, [{"p": p, "factor": [1, -1]} for p in (2, 3, 5, 7)],
                 conductor=10 ** 6, poles=(("1", 1), ("0", -1)))
    code, out, err = _run_in_process(["--cache", str(tmp_path / "cache"), "--digits", "20",
                                      "lfun", str(spec), "--s", "2"])
    assert (code, out) == (3, "")
    assert err.startswith("error: Euler coverage") and len(err.splitlines()) == 1


@pytest.mark.parametrize("lines", [
    [{"p": 2, "factor": [1]}, {"p": 3, "factor": [1]}, {"p": p, "factor": [1, 1]}]
    for p in (4, 1, 0, -3)] + [[{"p": 1, "factor": [1, 1]}]])
def test_lfun_factor_at_a_non_prime_exit2(tmp_path, lines):
    """A factor at p = 4, 1, 0 or -3 is refused as a bad spec file, beside
    factors at 2 and 3 or alone, not read as too short an Euler table."""
    spec = _spec(tmp_path, lines)
    code, out, err = _run_in_process(["--cache", str(tmp_path / "cache"), "--digits", "6",
                                      "lfun", str(spec), "--s", "2"])
    assert (code, out) == (2, "")
    assert err == f"error: bad spec file: Euler factors at non-primes [{lines[-1]['p']}]\n"


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=lfun_specs())
def test_lfun_on_random_euler_tables_keeps_the_exit_contract(tmp_path, spec):
    _assert_contract(*_run_in_process(["--cache", str(tmp_path / "cache"), "--digits", "6",
                                       "lfun", str(_spec(tmp_path, *spec)), "--s", "2"]))


def _row(degree, factors):
    return {"data": [{"degree": degree, "euler_factors": factors}]}


USABLE = json.dumps(_row(2, [[2, [1, -1]], [3, [1, 2]]])).encode()

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(("data", "degree", "euler_factors", "x")), inner,
                      max_size=3),
    max_leaves=10)
SCALARS = st.one_of(st.integers(-2, 40), st.floats(), st.text(max_size=2), st.none())
LMFDB_LIKE = st.builds(
    _row, st.one_of(st.integers(-1, 3), SCALARS),
    st.lists(st.one_of(st.tuples(SCALARS, st.lists(st.one_of(st.integers(-3, 3), SCALARS),
                                                   max_size=3)).map(list),
                       JSON_VALUES),
             max_size=4))
CACHED_BODIES = st.one_of(
    st.binary(max_size=24),
    JSON_VALUES.map(lambda doc: json.dumps(doc).encode()),
    LMFDB_LIKE.map(lambda doc: json.dumps(doc).encode()),
    st.just(USABLE))


def _cache_body(cache, body: bytes):
    body_path, _ = web._cache_paths(LABEL, cache)
    body_path.parent.mkdir(parents=True, exist_ok=True)
    body_path.write_bytes(body)


def _fetch(cache, *flags):
    return _run_in_process(["--cache", str(cache), *flags, "fetch", LABEL])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=CACHED_BODIES)
def test_fetch_offline_on_random_cached_bodies_keeps_the_exit_contract(tmp_path, body):
    """A cached body is a table (exit 0) or a miss (exit 3, the not-cached line)."""
    _cache_body(tmp_path, body)
    code, out, err = _fetch(tmp_path, "--offline")
    _assert_contract(code, out, err)
    assert code == 0 or (code, err) == (3, NOT_CACHED)


@pytest.mark.parametrize("doc", [
    {"hello": 1},
    _row(2, [[2, [2, 1]]]),
    _row("x", [[2, [1, -1]]]),
])
def test_fetch_offline_unusable_cached_body_is_a_miss(tmp_path, doc):
    _cache_body(tmp_path, json.dumps(doc).encode())
    assert _fetch(tmp_path, "--offline") == (3, "", NOT_CACHED)
    _cache_body(tmp_path, USABLE)
    code, out, _ = _fetch(tmp_path, "--offline")
    assert code == 0 and json.loads(out)["primes"] == 2


@pytest.mark.parametrize("body, message", [
    (json.dumps(_row(2, [[2, [2, 1]]])).encode(),
     "error: factor at p=2 must have constant term 1\n"),
    (json.dumps({"hello": 1}).encode(), f"error: unrecognized response shape for {LABEL!r}\n"),
    (USABLE[:17], f"error: unparseable response body for {LABEL!r}\n"),
])
def test_fetch_refused_fresh_body_exit3_and_not_cached(tmp_path, monkeypatch, body, message):
    monkeypatch.setattr(web, "_open_url", lambda url: body)
    assert _fetch(tmp_path) == (3, "", message)
    assert not (tmp_path / "lmfdb").exists()


# --- period, hadamard and config files ----------------------------------------

RATIONAL_TEXTS = st.one_of(
    st.fractions(-3, 3, max_denominator=12).map(str),
    st.sampled_from(("0", "1/0", "x", "", "1.5", "1e3", " 1/3", "-1/2", "10**3")))


@st.composite
def period_argvs(draw):
    """`period` on random hypergeometric data (index lists of random length
    and rationals, some outside (0, 1] or not rationals at all), a random
    gamma vector or appB:pi0, with random -K, --var, --mode, --digits and
    --point."""
    argv = []
    if draw(st.booleans()):
        argv += ["--digits", str(draw(st.integers(-1, 40)))]
    if draw(st.booleans()):
        argv += ["--mode", draw(st.sampled_from(("exact", "floating")))]
    argv += ["period", "-K", str(draw(st.integers(-2, 30))),
             "--var", draw(st.sampled_from(("z", "t")))]
    if draw(st.booleans()):
        argv += ["--point", draw(RATIONAL_TEXTS)]
    kind = draw(st.sampled_from(("hg", "gamma", "appB")))
    if kind == "gamma":
        return argv + ["--gamma", "--", ",".join(map(str, draw(st.lists(st.integers(-6, 6),
                                                                           max_size=6))))]
    if kind == "appB":
        return argv + ["appB:pi0"]
    a, b = (draw(st.lists(RATIONAL_TEXTS, max_size=4)) for _ in range(2))
    return argv + [",".join(a) + ";" + ",".join(b)]


@settings(max_examples=300, deadline=None)
@given(argv=period_argvs())
def test_period_on_random_data_keeps_the_exit_contract(argv):
    _assert_contract(*_run_in_process(argv))


@settings(max_examples=30, deadline=None)
@given(which=st.sampled_from(("k4", "k2_R0", "k3")), K=st.integers(-3, 6))
def test_hadamard_at_small_K_keeps_the_exit_contract(which, K):
    _assert_contract(*_run_in_process(["hadamard", which, "-K", str(K)]))


CONFIG_LINES = st.one_of(
    st.builds("{}={}".format,
              st.sampled_from(("digits", "max_terms", "mode", "fixtures", "cache", "digitz", "")),
              st.sampled_from(("5", "16", "-3", "0", "abc", "1e3", " 7 ", "", "floating",
                               "exact", "bogus"))).map(str.encode),
    st.sampled_from((b"# a comment", b"", b"no equals sign", b"\xef\xbb\xbfdigits=5")),
    st.binary(max_size=8))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(CONFIG_LINES, max_size=5),
       argv=st.sampled_from((["period", "1/2;1", "-K", "4"],
                             ["period", "1/2;1", "-K", "4", "--point", "1/3"],
                             ["hadamard", "k2_R0", "-K", "2"])),
       before=st.booleans())
def test_config_files_keep_the_exit_contract(tmp_path, lines, argv, before):
    """A --config file of random lines, any bytes among them, given before
    or after the subcommand."""
    config = tmp_path / "hyperreg.cfg"
    config.write_bytes(b"\n".join(lines) + b"\n")
    flag = ["--config", str(config)]
    _assert_contract(*_run_in_process(flag + argv if before else argv[:1] + flag + argv[1:]))
