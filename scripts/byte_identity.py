#!/usr/bin/env python3
"""Compare the CLI output of two hyperreg checkouts byte for byte.

    python3 scripts/byte_identity.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the roots of two checkouts, each holding
`src/` and `fixtures/`.  Every command line of a fixed list runs as a fresh
`python -m hyperreg.cli` process from each root, the two side by side; any
difference in stdout, stderr or exit code is printed, and the script exits
1 if there was one, 0 otherwise; a line of CHANGED_RUNS whose output
differs is printed as `changed` and does not count.  Standard library only.
Each
root gets its own empty HYPERREG_CACHE directory, and every `lfun` line runs
twice per root, so the second run reads the AFE kernels the first one saved:
the output with a warm kernel store is compared as well as the cold one.

The list: the cli-regulators operations of the benchmark with every seeded
variant, cy0 at t = 1/15, 1/37 and 1/57 in one process (h = 2, 4 and 6),
k2 at a point with o = 41, `verify ode|identities|ratios`, `verify
identities` at --digits 20 and 50, the k4, cy0 and appB
points at --digits 20, 30 and 50, appB's t = 2
and 7 at --digits 3 (where the finite-difference probe's two sums need more
working digits than the target gives), the k2 list K2_T at --digits 20 and
50, the two `lfun` runs whose stdout the tests pin (Gamma_R, orders 0 and 1), the
KERNEL_RUNS (order 1 on Gamma_R(s), order 2 on Gamma_R(s + 1), and chi_-4 at
--digits 20, orders 0 then 2, and 12), the CENTRE_RUNS (chi_-4 at s = 1/2, where
both sides share their kernel values), the LARGE_S_RUNS (chi_-4 at s = 20,
30, 34 and 40, --digits 8 and 30, far right of the critical strip), the
NEAR_POLE_RUNS (chi_5 at an s within rounding of a gamma pole, exit 2), the
ZETA_RUNS (zeta at orders 1 and 2, the one spec whose Lambda has poles),
the Gamma_C order-2 `lfun` runs on the quintic spec with the Euler data of
PARENT_SRC cut to p <= QUINTIC_P, at --digits QUINTIC_DIGITS (6, and 20 for
a Gamma_C^2 kernel at 20 digits), the PERIOD_ARGVS (`period --gamma`,
`--mode floating`, `appB:pi0`, the appB data, and two `--point` sums of K
terms at --digits 50, a wide running mantissa), the EXIT_ARGVS: `period
--point` rows whose tail is not certified and series truncation caps, all of
which exit 3, the HUGE_S_RUNS (chi_-4 at |s| past what the working
precision holds, exit 2), and the USAGE_ARGVS and fixture_usage_argvs, which
exit 2, but for fixture_usage_argvs' spec without gamma factors and its spec
whose Euler table is too short, which exit 3, and `regulator` on the
refused-t fixture, which has no row at its t and exits 0, the config_argvs
(a config file setting digits, mode and fixtures, one with a byte-order
mark, and an unknown key and a digits that is not an integer, which exit
2), and the rows that moved on purpose, CHANGED_RUNS (`verify
continuation` at the default digits and at --digits 15 and 50, the one CLI
path through the Mellin-Barnes contour, and, marked where the list above
runs them, k4's four-point list at the default digits and at --digits 20, 30
and 50 and the refused-t fixture's k4 line): 191 command lines in all.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TABLE_A = (
    "1/5,2/5,3/5,4/5", "1/10,3/10,7/10,9/10", "1/2,1/2,1/2,1/2",
    "1/3,1/3,2/3,2/3", "1/4,1/4,3/4,3/4", "1/6,1/6,5/6,5/6",
    "1/12,5/12,7/12,11/12", "1/8,3/8,5/8,7/8", "1/6,1/3,2/3,5/6",
    "1/2,1/2,1/3,2/3", "1/2,1/2,1/4,3/4", "1/2,1/2,1/6,5/6",
    "1/3,2/3,1/4,3/4", "1/4,3/4,1/6,5/6",
)
K4_T = "1/1024,1/4096,1/16384,1/65536"
K2_T = "1/16,1,49,2"
EULER_P = 400
# (D, s, order) of the lfun runs recorded in tests/test_motive_afe.py
LFUN_RUNS = ((-4, "2", 0), (5, "0", 1))
# (D, s, order, digits) of kernel paths no recorded run takes: order 1 on a
# Gamma_R(s) kernel, order 2 on a Gamma_R(s + 1) kernel, and Gamma_R(s + 1)
# at two more precisions, at 20 digits order 0 and then order 2, which reads
# the kernels the order-0 line saved
KERNEL_RUNS = ((8, "2", 1, "8"), (-4, "2", 2, "8"), (-4, "2", 0, "20"), (-4, "2", 2, "20"),
               (-4, "2", 0, "12"))
# chi_-4 at the centre s = 1/2, orders 0 and 1: both sides of the functional
# equation take one kernel at the same points y_n
CENTRE_RUNS = ((-4, "1/2", 0, "8"), (-4, "1/2", 1, "8"))
# chi_-4 far right of the critical strip, where |N^(s/2) gamma(s)| grows to
# 4e19 (s = 40): the kernels' rounding bound and the self-test at large s
LARGE_S_RUNS = tuple((-4, s, 0, digits) for s in ("20", "30", "34", "40")
                     for digits in ("8", "30"))
# (s, order) of chi_-4 at --digits 8 with |s| >= 2^72, which 80 working bits
# cannot hold apart from the gamma poles: a PointError, exit 2
HUGE_S_RUNS = (("-1e30", 0), ("-1e30", 1), ("-1e400", 0), ("1e400", 0))
# chi_5 at --digits 8, orders 0 and 1, at an s that 80 working bits round
# onto the pole -2 of Gamma_R(s): a PointError, exit 2
NEAR_POLE_RUNS = (("-2.0000000000000000000000000000001", 0),
                  ("-2.0000000000000000000000000000001", 1))
# the rows that moved on purpose: `verify continuation`, whose contour is a
# trapezoid on Re s = 1/2 and whose z^-k streams are one fixed-point pass, so
# its printed deviations move, and which has a chain_identity row; and k4's
# four-point list and the refused-t fixture's k4 line, whose
# precision_doubling_stability moved when the entries' sums became one
# fixed-point pass.  A line of the list above is marked, not run again;
# {directory} is the directory the fixtures are written under.
CHANGED_RUNS = (
    ["verify", "continuation"],
    ["--digits", "15", "verify", "continuation"],
    ["--digits", "50", "verify", "continuation"],
    ["regulator", "--case", "k4", "--t", K4_T],
    *(["--digits", digits, "regulator", "--case", "k4", "--t", K4_T]
      for digits in ("20", "30", "50")),
    ["--fixtures", "{directory}/refused-t", "regulator", "--case", "k4", "--t", "1/1024"],
)
# (s, order) of zeta at --digits 8: the pole terms of Lambda at orders 1 and 2
ZETA_RUNS = (("2", 1), ("2", 2), ("1/2", 2))
# the quintic L''(0) at 6 and 20 digits: both Gamma_C kernel paths and order 2
QUINTIC_P = 3000
QUINTIC_DIGITS = ("6", "20")
# exit 3 with one error line: a point outside the disk of convergence, two
# truncations whose certified tail exceeds 10^-30, two series cap hits, the
# fixed truncations of k4 and k2 past the cap, and cy0's residue sum past the
# default cap (D = 4221, refused before the squarefree test)
EXIT_ARGVS = (
    ["period", "1/2;1", "-K", "3", "--point", "2"],
    ["period", "1/2;1", "-K", "30", "--point", "9/10"],
    ["period", "1/3,1/3,2/3,2/3;1,1,1,1", "--var", "t", "-K", "120", "--point", "1/1024"],
    ["--max-terms", "16", "regulator", "--case", "cy0", "--t", "1/7"],
    ["--max-terms", "16", "verify", "continuation"],
    ["--max-terms", "16", "regulator", "--case", "k4", "--t", "1/1024"],
    ["--max-terms", "16", "regulator", "--case", "k2", "--t", "49"],
    ["regulator", "--case", "cy0", "--t", "1/67"],
)

# the other period paths: gamma vectors, floating output, appB's relative series,
# and --point sums of all K terms at a wide working precision: at K = 200 the
# tail (1.9e-29) fails the 10^-50 gate, exit 3; at K = 500 a value is printed
PERIOD_ARGVS = (
    ["period", "--gamma", "-K", "8", "--var", "t", "--", "5,-1,-1,-1,-1,-1"],
    ["period", "--gamma", "-K", "8", "--", "2,2,-1,-1,-1,-1"],
    ["--mode", "floating", "period", "1/5,2/5,3/5,4/5;1,1,1,1", "--var", "t", "-K", "20"],
    ["period", "appB:pi0", "-K", "5"],
    ["period", "appB:pi0", "-K", "200"],
    ["period", "1/5,2/5,3/5,4/5;1/6,5/6,1,1", "--var", "t", "-K", "120"],
    ["--digits", "50", "period", "1/5,2/5,3/5,4/5;1,1,1,1", "--var", "t", "-K", "200",
     "--point", "1/4096"],
    ["--digits", "50", "period", "1/5,2/5,3/5,4/5;1,1,1,1", "--var", "t", "-K", "500",
     "--point", "1/4096"],
)
# exit 2 with one error line: malformed data, an unknown case, a t outside
# its case's interval, a k2 point too close to |z| = 1, a missing spec file,
# a missing required option (argparse's error path), and (fixture_usage_argvs)
# a k4 fixture that is not JSON, whose L-value is shorter than --digits, is a
# JSON number or is not a decimal, or whose row with L-data has a t k4
# refuses, an lfun spec that is not a JSON object, one whose
# Euler table has a gap below its largest prime, one with a factor at p = 4 and
# one with a factor at p = 3.9
USAGE_ARGVS = (
    ["period", "1/2,1/2;1"],
    ["regulator", "--case", "nope", "--t", "1/2"],
    ["regulator", "--case", "k4", "--t", "1/2"],
    ["regulator", "--case", "k2", "--t", "1/1000"],
    ["lfun", "missing-spec.json", "--s", "2"],
    ["regulator", "--case", "k4"],
)
BAD_K4_FIXTURES = {
    "not-json": "[{",
    "short-L": json.dumps([{"t": "1/1024", "expected_ratio": "4", "L_value": "0.123456",
                            "L_derivative_order": 2}]),
    "number-L": json.dumps([{"t": "1/1024", "expected_ratio": "4", "L_value": 1.5,
                             "L_derivative_order": 2}]),
    "not-decimal-L": json.dumps([{"t": "1/1024", "expected_ratio": "4",
                                  "L_value": "0.12345678901234567890123456789x123",
                                  "L_derivative_order": 2}]),
    "refused-t": json.dumps([{"t": "1", "expected_ratio": "4",
                              "L_value": "0.1234567890123456789012345678901234",
                              "L_derivative_order": 2}]),
    # a t or expected ratio that is a JSON boolean or number, or an empty
    # string, not a "p/q" string
    "true-t": json.dumps([{"t": True, "expected_ratio": "4", "L_derivative_order": 2}]),
    "empty-t": json.dumps([{"t": "", "expected_ratio": "4", "L_derivative_order": 2}]),
    "zero-t": json.dumps([{"t": 0, "expected_ratio": "4", "L_derivative_order": 2}]),
    "number-ratio": json.dumps([{"t": "1/1024", "expected_ratio": 0.1,
                                 "L_derivative_order": 2}]),
}
# key=value config files: one setting digits, mode and fixtures (a copy of
# the k4 fixture) under a comment line, one with a UTF-8 byte-order mark, and
# two that exit 2, an unknown key and a digits that is not an integer
CONFIGS = {
    "all-keys": "# every key but max_terms and cache\ndigits = 20\nmode = floating\n"
                "fixtures = {fixtures}\n",
    "bom": "\ufeffdigits=5\n",
    "unknown-key": "digitz=5\n",
    "text-digits": "digits=abc\n",
}


BAD_SPEC = "[1, 2]"
# factors at p = 2 and 5 only: none at 3
GAPPED_EULER = '{"p": 2, "factor": [1, 1]}\n{"p": 5, "factor": [1, -1]}\n'
# factors at 2 and 3 and at the non-prime 4
NONPRIME_EULER = '{"p": 2, "factor": [1]}\n{"p": 3, "factor": [1]}\n{"p": 4, "factor": [1, 1]}\n'
# a factor at p = 3.9, not an integer
FLOAT_P_EULER = '{"p": 2, "factor": [1]}\n{"p": 3.9, "factor": [1, 1]}\n'
# a usable table at 2 and 3, for the spec with no gamma factor
ZETA_EULER = '{"p": 2, "factor": [1, -1]}\n{"p": 3, "factor": [1, -1]}\n'
# zeta's factors at p <= 7, the table of tests/test_lfun.py::test_coverage_error
SHORT_EULER = "".join('{"p": %d, "factor": [1, -1]}\n' % p for p in (2, 3, 5, 7))


def k4_fixture_argvs(directory: Path, fixtures: dict) -> list:
    """regulator k4 and verify ratios on each k4.json text of fixtures,
    written under directory."""
    out = []
    for name, text in fixtures.items():
        (directory / name).mkdir()
        (directory / name / "k4.json").write_text(text)
        out.append(["--fixtures", str(directory / name), "regulator", "--case", "k4",
                    "--t", "1/1024"])
        out.append(["--fixtures", str(directory / name), "verify", "ratios"])
    return out


def config_argvs(root: Path, directory: Path) -> list:
    """The CONFIGS, written under directory, each with `period` at
    --point 1/8 and all-keys also with `period` in t and `regulator` k4."""
    (directory / "cfg-fixtures").mkdir()
    (directory / "cfg-fixtures" / "k4.json").write_bytes(
        (root / "fixtures" / "k4.json").read_bytes())
    out = []
    for name, text in CONFIGS.items():
        path = directory / f"{name}.cfg"
        path.write_text(text.format(fixtures=directory / "cfg-fixtures"), encoding="utf-8")
        out.append(["--config", str(path), "period", "1/2;1", "-K", "12", "--point", "1/8"])
    path = str(directory / "all-keys.cfg")
    out.append(["--config", path, "period", "1/5,2/5,3/5,4/5;1,1,1,1", "--var", "t", "-K", "20"])
    out.append(["--config", path, "regulator", "--case", "k4", "--t", "1/1024"])
    return out


def fixture_usage_argvs(directory: Path) -> list:
    """regulator k4 and verify ratios on each of BAD_K4_FIXTURES, and lfun on
    BAD_SPEC, on specs of GAPPED_EULER, NONPRIME_EULER and FLOAT_P_EULER, on a spec of
    ZETA_EULER with an empty gamma_shifts (exit 3: no kernel can decay), and
    on zeta's spec with SHORT_EULER at conductor 10^6 and --digits 20 (exit 3:
    the side sums run out of Euler data), written under directory."""
    out = k4_fixture_argvs(directory, BAD_K4_FIXTURES)
    (directory / "bad-spec.json").write_text(BAD_SPEC)
    out.append(["lfun", str(directory / "bad-spec.json"), "--s", "2"])
    for name, euler, gamma in (("gapped", GAPPED_EULER, [["R", "0"]]),
                               ("nonprime", NONPRIME_EULER, [["R", "0"]]),
                               ("float-p", FLOAT_P_EULER, [["R", "0"]]),
                               ("no-gamma", ZETA_EULER, [])):
        (directory / f"{name}.jsonl").write_text(euler)
        (directory / f"{name}-spec.json").write_text(json.dumps({
            "degree": 1, "weight": 0, "conductor": 5, "gamma_shifts": gamma, "sign": 1,
            "euler_path": str(directory / f"{name}.jsonl")}))
        out.append(["lfun", str(directory / f"{name}-spec.json"), "--s", "2"])
    (directory / "short.jsonl").write_text(SHORT_EULER)
    (directory / "short-spec.json").write_text(json.dumps({
        "degree": 1, "weight": 0, "conductor": 10 ** 6, "gamma_shifts": [["R", "0"]],
        "sign": 1, "poles": [["1", 1], ["0", -1]], "euler_path": str(directory / "short.jsonl")}))
    out.append(["--digits", "20", "lfun", str(directory / "short-spec.json"), "--s", "2"])
    return out


def regulator_argvs() -> list:
    out = []
    for a in TABLE_A:
        for var in ("z", "t"):
            out.append(["period", f"{a};1,1,1,1", "--var", var, "-K", "120"])
    for a in ("1/2,1/2,1/2,1/2", "1/2,1/2,1/3,2/3"):
        out.append(["period", f"{a};1,1,1,1", "--var", "t", "-K", "120", "--point", "1/1024"])
    # 1/61: D = 3477, h = 4, the largest D under the default cap
    for n in (7, 11, 35, 61):
        out.append(["regulator", "--case", "cy0", "--t", f"1/{n}"])
    # h = 2, 4 and 6 in one process
    out.append(["regulator", "--case", "cy0", "--t", "1/15,1/37,1/57"])
    # k2 at t = (2^41 + 1)^2 / 4^41, a point of the integral model with o = 41
    out.append(["regulator", "--case", "k2", "--t",
                "4835703278462914745335809/4835703278458516698824704"])
    out.append(["regulator", "--case", "k4", "--t", "1/65536"])
    out.append(["regulator", "--case", "k4", "--t", K4_T])
    for t in ("1/16", "1", "49", "2", "3", "5"):
        out.append(["regulator", "--case", "k2", "--t", t])
    for t in ("2", "5", "7"):
        out.append(["regulator", "--case", "appB", "--t", t])
    out.append(["hadamard", "k4", "-K", "20"])
    out.append(["hadamard", "k2_R0", "-K", "12"])
    for suite in ("ode", "identities", "ratios"):
        out.append(["verify", suite])
    for digits in ("20", "50"):
        out.append(["--digits", digits, "verify", "identities"])
    for digits in ("20", "30", "50"):
        for case, points in (("k4", K4_T), ("cy0", "1/7,1/11,1/35")):
            out.append(["--digits", digits, "regulator", "--case", case, "--t", points])
        # one process per point: at --digits 50 the point 7 hits the S_A cap
        for t in ("2", "5", "7"):
            out.append(["--digits", digits, "regulator", "--case", "appB", "--t", t])
    for t in ("2", "7"):
        out.append(["--digits", "3", "regulator", "--case", "appB", "--t", t])
    for digits in ("20", "50"):
        out.append(["--digits", digits, "regulator", "--case", "k2", "--t", K2_T])
    return out


def kronecker(D: int, n: int) -> int:
    """Kronecker symbol (D|n) for n > 0."""
    result = 1
    while n % 2 == 0:
        n //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            result = -result
    a, b = D % n, n
    while a:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                result = -result
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            result = -result
        a %= b
    return result if b == 1 else 0


def degree_one_spec(name: str, chi, directory: Path, **fields) -> Path:
    """Spec `name`.json of a degree-1 L-function with Euler factors
    1 - chi(p) x for p <= EULER_P, in `name`.jsonl; fields are its other
    spec fields."""
    euler = directory / f"{name}.jsonl"
    with open(euler, "w", encoding="utf-8") as fh:
        for p in range(2, EULER_P + 1):
            if all(p % q for q in range(2, int(p ** 0.5) + 1)):
                c = chi(p)
                fh.write(json.dumps({"p": p, "factor": [1, -c] if c else [1]}) + "\n")
    spec = directory / f"{name}.json"
    spec.write_text(json.dumps({"degree": 1, "weight": 0, "sign": 1,
                                "euler_path": str(euler), **fields}))
    return spec


def character_spec(D: int, directory: Path) -> Path:
    """Spec of L(chi_D, s) with Euler factors 1 - chi_D(p) x for p <= EULER_P."""
    return degree_one_spec(f"chi{D}", lambda p: kronecker(D, p), directory,
                           conductor=abs(D), gamma_shifts=[["R", "0" if D > 0 else "1"]],
                           label=f"chi_{D}")


def zeta_spec(directory: Path) -> Path:
    """Spec of zeta(s), whose Lambda has simple poles at s = 1 (residue 1) and
    s = 0 (-1), with Euler factors 1 - x for p <= EULER_P."""
    return degree_one_spec("zeta", lambda p: 1, directory, conductor=1,
                           gamma_shifts=[["R", "0"]], poles=[["1", 1], ["0", -1]],
                           label="zeta")


def quintic_spec(root: Path, directory: Path) -> Path:
    """Spec of the quintic's L-function with the Euler factors of root for p <= QUINTIC_P."""
    euler = directory / "quintic_prefix.jsonl"
    with open(root / "fixtures" / "euler" / "quintic_field.jsonl", encoding="utf-8") as src, \
            open(euler, "w", encoding="utf-8") as dst:
        for line in src:
            if json.loads(line)["p"] <= QUINTIC_P:
                dst.write(line)
    spec = directory / "quintic.json"
    spec.write_text(json.dumps({
        "degree": 4, "weight": 0, "conductor": 2869,
        "gamma_shifts": [["C", "0"], ["C", "0"]], "sign": 1,
        "euler_path": str(euler), "label": "zetaK/zeta for Y^5-Y+1"}))
    return spec


def command_lines(root: Path, directory: Path) -> tuple:
    """(argvs, changed): the command lines of the list, with their specs and
    fixtures written under directory and the quintic's Euler data read from
    root, every lfun line twice in a row (the second run finds its kernels in
    the store), and those of them whose output moved on purpose."""
    runs = [(D, s, order, "8") for D, s, order in LFUN_RUNS] \
        + list(KERNEL_RUNS + CENTRE_RUNS + LARGE_S_RUNS)
    specs = {D: str(character_spec(D, directory)) for D in {run[0] for run in runs}}
    lfun_argv = {run: ["--digits", run[3], "lfun", specs[run[0]], "--s", run[1],
                       "--order", str(run[2])] for run in runs}
    argvs = regulator_argvs() + [lfun_argv[run] for run in runs]
    zeta = str(zeta_spec(directory))
    argvs += [["--digits", "8", "lfun", zeta, "--s", s, "--order", str(order)]
              for s, order in ZETA_RUNS]
    quintic = str(quintic_spec(root, directory))
    argvs += [["--digits", digits, "lfun", quintic, "--s", "0", "--order", "2"]
              for digits in QUINTIC_DIGITS]
    argvs += [list(argv) for argv in PERIOD_ARGVS + EXIT_ARGVS + USAGE_ARGVS]
    argvs += [["--digits", "8", "lfun", specs[-4], f"--s={s}", "--order", str(order)]
              for s, order in HUGE_S_RUNS]
    argvs += [["--digits", "8", "lfun", specs[5], f"--s={s}", "--order", str(order)]
              for s, order in NEAR_POLE_RUNS]
    argvs += fixture_usage_argvs(directory) + config_argvs(root, directory)
    changed = [[a.format(directory=directory) for a in argv] for argv in CHANGED_RUNS]
    argvs += [argv for argv in changed if argv not in argvs]
    argvs = [cmd for cmd in argvs for _ in range(2 if "lfun" in cmd else 1)]
    return argvs, changed


def start(root: Path, argv: list, cache: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), HYPERREG_CACHE=str(cache))
    return subprocess.Popen([sys.executable, "-m", "hyperreg.cli"] + argv, cwd=root,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    roots = [Path(a).resolve() for a in args]
    for root in roots:
        if not (root / "src" / "hyperreg").is_dir():
            print(f"error: {root} has no src/hyperreg", file=sys.stderr)
            return 2
    differ = changed = 0
    with tempfile.TemporaryDirectory() as tmp:
        argvs, changed_argvs = command_lines(roots[0], Path(tmp))
        caches = [Path(tmp) / f"cache{i}" for i in range(len(roots))]
        for i, cmd in enumerate(argvs):
            procs = [start(root, cmd, cache) for root, cache in zip(roots, caches)]
            (out0, err0), (out1, err1) = (p.communicate() for p in procs)
            same = (out0, err0, procs[0].returncode) == (out1, err1, procs[1].returncode)
            moved = not same and cmd in changed_argvs
            warm = "  (warm store)" if i and argvs[i - 1] is cmd else ""
            print(f"{'same' if same else 'changed' if moved else 'DIFFERENT'}  exit "
                  f"{procs[0].returncode}/{procs[1].returncode}  {' '.join(cmd)}{warm}",
                  flush=True)
            if not same:
                changed += moved
                differ += not moved
                for name, a, b in (("stdout", out0, out1), ("stderr", err0, err1)):
                    if a != b:
                        print(f"  {name} parent: {a.decode(errors='replace')!r}")
                        print(f"  {name} change: {b.decode(errors='replace')!r}")
    print(f"{len(argvs)} command lines, {differ} different, {changed} changed on purpose")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
