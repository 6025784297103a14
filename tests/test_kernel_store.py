"""The AFE kernel store: saved kernels load with every bit, and a bad entry is a miss.

`lfun` saves each kernel it builds under <cache>/kernels and later processes
load it instead of building it again.  A loaded kernel must be the built one
bit for bit, so the printed digits cannot depend on whether the store was
warm; an entry that is truncated, altered or keyed otherwise is rebuilt and
rewritten; a store that cannot be written changes nothing but the time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import hyperreg
from hyperreg import cli
from hyperreg.lfun import motive
from hyperreg.lfun.dirichlet import kronecker_character
from hyperreg.lfun.motive import LFunctionSpec, motive_L
from hyperreg.mpnum import PrecisionPolicy

from eulerfile import euler_from_character, to_jsonl

GAMMAS = {"R1": (("R", Fraction(1)),), "R0": (("R", Fraction(0)),),
          "CC": (("C", Fraction(0)), ("C", Fraction(0)))}
# `hyperreg --digits 8 lfun` on L(chi_-4, s) at s = 2, as tests/test_motive_afe.py records it
CHI4_STDOUT = ('{\n "label": "chi_-4",\n "order": 0,\n "s": "2",\n'
               ' "self_test_residual": "8.27e-25",\n "value": "0.91596559"\n}\n')
# the same with --order 2, as the digamma-weighted order-2 kernels printed it
CHI4_ORDER2_STDOUT = ('{\n "label": "chi_-4",\n "order": 2,\n "s": "2",\n'
                      ' "self_test_residual": "8.27e-25",\n "value": "-0.074415212"\n}\n')
# PYTHONPATH for a fresh interpreter that imports this hyperreg
SRC = str(Path(hyperreg.__file__).resolve().parents[1])


def _sides(gamma, s, digits):
    """(spec, pol, [sigma of the right side, then of the mirrored one]) of an
    `lfun` run at s on a weight-0 spec, as _sum_side forms them; each
    kernel's line follows from its sigma."""
    pol = PrecisionPolicy(digits)
    ctx = pol.ctx
    return LFunctionSpec(1, 0, 1, GAMMAS[gamma]), pol, [ctx.mpf(s), 1 - ctx.mpf(s)]


def _entries(store):
    return sorted(p.name for p in Path(store).iterdir())


@pytest.fixture
def builds(monkeypatch):
    """The s of every kernel built from here on."""
    calls = []
    original = motive._build_kernel

    def counted(spec, s_val, pol):
        calls.append(s_val)
        return original(spec, s_val, pol)

    monkeypatch.setattr(motive, "_build_kernel", counted)
    return calls


@pytest.mark.parametrize("gamma, s, order, digits",
                         [("R1", 2, 0, 8), ("R0", 2, 1, 8), ("CC", 0, 2, 6)])
def test_loaded_kernel_is_the_built_one(tmp_path, builds, gamma, s, order, digits):
    spec, pol, sides = _sides(gamma, s, digits)
    for sigma in sides:
        built = motive._stored_kernel(tmp_path, spec, sigma, pol)
        loaded = motive._stored_kernel(tmp_path, spec, sigma, pol)
        assert len(builds) == 1
        builds.clear()
        fresh = motive._build_kernel(spec, sigma, pol)
        for k in (built, loaded):
            assert k._raw == fresh._raw
            assert (k.c._mpf_, k.h._mpf_) == (fresh.c._mpf_, fresh.h._mpf_)
        y = pol.ctx.mpf("0.3")
        assert loaded(y, order) == fresh(y, order)
        builds.clear()
    assert len(_entries(tmp_path)) == 2


def _write_chi4_spec(directory):
    euler_path = directory / "chi-4.jsonl"
    euler_path.write_text(to_jsonl(euler_from_character(kronecker_character(-4), 400)))
    spec_path = directory / "chi-4.json"
    spec_path.write_text(json.dumps({
        "degree": 1, "weight": 0, "conductor": 4, "gamma_shifts": [["R", "1"]], "sign": 1,
        "euler_path": str(euler_path), "label": "chi_-4"}))
    return spec_path


def test_lfun_stdout_cold_and_warm(tmp_path, monkeypatch, capsys, builds):
    spec_path = _write_chi4_spec(tmp_path)
    argv = ["--cache", str(tmp_path / "cache"), "--digits", "8", "lfun", str(spec_path),
            "--s", "2"]
    outs = []
    for _ in range(2):
        monkeypatch.setattr(motive, "_kernel_cache", {})
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs == [CHI4_STDOUT, CHI4_STDOUT]
    # both sides built on the cold run, none on the warm one
    assert len(builds) == 2
    assert len(_entries(tmp_path / "cache" / "kernels")) == 2


def _chi4_orders(tmp_path, monkeypatch, orders):
    """lambda_derivs for L(chi_-4, s) at s = 2 and 8 digits at each order in
    turn, each with an empty memory cache, as a fresh process would; returns
    the values and the number of entries written."""
    spec = LFunctionSpec(1, 0, 4, GAMMAS["R1"], 1,
                         euler_from_character(kronecker_character(-4), 400))
    writes = []
    original = motive._write_entry
    monkeypatch.setattr(motive, "_write_entry", lambda *args: writes.append(original(*args)))
    values = []
    for order in orders:
        monkeypatch.setattr(motive, "_kernel_cache", {})
        values.append(motive.lambda_derivs(spec, 2, order, PrecisionPolicy(8), store=tmp_path))
    return values, len(writes)


def test_higher_order_entry_serves_lower_order(tmp_path, monkeypatch, builds):
    """The entries an order-2 run saves serve a later order-0 run, which
    builds nothing and gets Lambda(2) bit for bit."""
    (order2, order0), writes = _chi4_orders(tmp_path, monkeypatch, (2, 0))
    assert len(builds) == 2 and writes == 2
    assert len(_entries(tmp_path)) == 2
    assert order0[0] == order2[0]


def test_request_above_stored_order_replaces_entry(tmp_path, monkeypatch, builds):
    """A kernel serves orders 0-2, so a request above the order of the run
    that saved an entry reads that entry: orders 0, 1 and 2 build one kernel
    per side, and the entries stay byte for byte as the order-0 run wrote them."""
    _chi4_orders(tmp_path, monkeypatch, (0,))
    files = {p.name: p.read_bytes() for p in Path(tmp_path).iterdir()}
    _, writes = _chi4_orders(tmp_path, monkeypatch, (1, 2))
    assert len(builds) == 2 and writes == 0
    assert {p.name: p.read_bytes() for p in Path(tmp_path).iterdir()} == files


def test_lfun_orders_share_the_stored_kernels(tmp_path, monkeypatch, capsys, builds):
    """`lfun --order 0`, then `--order 2` on the same --cache, builds the two
    kernels once and prints what the per-order kernels printed."""
    spec_path = _write_chi4_spec(tmp_path)
    outs = []
    for order in ("0", "2"):
        monkeypatch.setattr(motive, "_kernel_cache", {})
        assert cli.main(["--cache", str(tmp_path / "cache"), "--digits", "8", "lfun",
                         str(spec_path), "--s", "2", "--order", order]) == 0
        outs.append(capsys.readouterr().out)
    assert outs == [CHI4_STDOUT, CHI4_ORDER2_STDOUT]
    assert len(builds) == 2


def _truncate(path, other):
    path.write_bytes(path.read_bytes()[:-100])


def _flip_digit(path, other):
    data = bytearray(path.read_bytes())
    i = next(i for i in range(len(data) // 2, len(data)) if chr(data[i]).isdigit())
    data[i] = ord("7" if data[i] != ord("7") else "3")
    path.write_bytes(bytes(data))


def _other_key(path, other):
    """A whole entry with a valid checksum, of the other side's kernel."""
    path.write_bytes(other.read_bytes())


@pytest.mark.parametrize("spoil", [_truncate, _flip_digit, _other_key])
def test_spoiled_entry_is_a_miss_and_rewritten(tmp_path, builds, spoil):
    spec, pol, sides = _sides("R1", 2, 8)
    kernels = [motive._stored_kernel(tmp_path, spec, sigma, pol) for sigma in sides]
    files = {p.name: p.read_bytes() for p in Path(tmp_path).iterdir()}
    path = next(p for p in Path(tmp_path).iterdir()
                if json.loads(p.read_bytes())["entry"]["key"]["s"] == list(sides[0]._mpf_))
    other = next(p for p in Path(tmp_path).iterdir() if p != path)
    spoil(path, other)
    builds.clear()
    again = motive._stored_kernel(tmp_path, spec, sides[0], pol)
    assert builds == [sides[0]]
    assert again._raw == kernels[0]._raw
    assert {p.name: p.read_bytes() for p in Path(tmp_path).iterdir()} == files


def test_other_mpmath_version_is_a_miss(tmp_path, builds, monkeypatch):
    spec, pol, [sigma, _] = _sides("R1", 2, 8)
    motive._stored_kernel(tmp_path, spec, sigma, pol)
    monkeypatch.setattr(mpmath, "__version__", mpmath.__version__ + ".other")
    motive._stored_kernel(tmp_path, spec, sigma, pol)
    motive._stored_kernel(tmp_path, spec, sigma, pol)
    assert len(builds) == 2
    assert len(_entries(tmp_path)) == 2


# (text, edited text) of motive.py: a comment alone, the line's gap
# (_abscissa) and the halving table
KEY_EDITS = ((b"# kernel on a truncated vertical line", b"# the kernel on a vertical line"),
             (b'gap = ctx.mpf("2.75")', b'gap = ctx.mpf("2.5")'),
             (b'_HALVINGS = {"R": 1, "C": 0}', b'_HALVINGS = {"R": 1, "C": 1}'))


def test_build_code_is_in_the_key(tmp_path, monkeypatch):
    """The build key is read from motive.py itself: a copy with only a
    comment, the line's gap or the halving table edited gives another build
    key for each edit, so no entry of the old file is read, and an unedited
    copy gives the old key back."""
    spec, pol, [sigma, _] = _sides("R1", 2, 8)
    source = Path(motive.__file__).read_bytes()
    before = motive._store_key(spec, sigma, pol)
    builds = set()
    try:
        for i, (old, new) in enumerate(KEY_EDITS + ((b"", b""),)):
            assert old == b"" or source.count(old) == 1
            edited = tmp_path / f"motive{i}.py"
            edited.write_bytes(source.replace(old, new))
            with monkeypatch.context() as m:
                m.setattr(motive, "__file__", str(edited))
                motive._build_digest.cache_clear()
                after = motive._store_key(spec, sigma, pol)
            if old:
                assert {k for k in before if before[k] != after[k]} == {"build"}
                builds.add(after["build"])
            else:
                assert after == before
    finally:
        motive._build_digest.cache_clear()
    assert len(builds) == len(KEY_EDITS)
    assert motive._store_key(spec, sigma, pol) == before


def test_unwritable_store_changes_no_output(tmp_path):
    """A regular file where the kernels directory goes: same stdout, exit 0."""
    spec_path = _write_chi4_spec(tmp_path)
    (tmp_path / "cache").mkdir()
    (tmp_path / "cache" / "kernels").write_text("not a directory")
    out = subprocess.run([sys.executable, "-m", "hyperreg.cli", "--cache", str(tmp_path / "cache"),
                          "--digits", "8", "lfun", str(spec_path), "--s", "2"],
                         env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (0, CHI4_STDOUT, "")
    assert (tmp_path / "cache" / "kernels").read_text() == "not a directory"


def test_library_default_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(motive, "_kernel_cache", {})
    cache = Path(os.environ["HYPERREG_CACHE"])
    before = sorted(cache.rglob("*"))
    table = euler_from_character(kronecker_character(-4), 400)
    spec = LFunctionSpec(1, 0, 4, GAMMAS["R1"], 1, table)
    motive_L(spec, 2, 0, PrecisionPolicy(8), store=None)
    assert list(tmp_path.iterdir()) == [] and sorted(cache.rglob("*")) == before


def test_store_loads_no_openssl(tmp_path):
    """Importing motive loads no hashlib, and a cold and a warm `lfun` load no
    OpenSSL where CPython has its own sha256 (3.6 MB of resident memory)."""
    spec_path = _write_chi4_spec(tmp_path)
    probe = ("import importlib.util, json, sys\n"
             "import hyperreg.lfun.motive\n"
             "print('hashlib' in sys.modules)\n"
             "from hyperreg import cli\n"
             "for _ in range(2):\n"
             "    hyperreg.lfun.motive._kernel_cache.clear()\n"
             "    cli.main(json.loads(sys.argv[1]))\n"
             "print(importlib.util.find_spec('_sha256') is not None\n"
             "      and '_hashlib' in sys.modules)\n")
    argv = ["--cache", str(tmp_path / "cache"), "--digits", "8", "lfun", str(spec_path), "--s", "2"]
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)],
                         env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
                         check=True)
    lines = out.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "False")
    assert lines[1:-1] == CHI4_STDOUT.splitlines() * 2
