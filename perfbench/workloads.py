"""The three workloads: seeded operation lists, their input files and checks.

A workload is a fixed multiset of operations; the seed picks the order and,
inside each family, among variants of about equal cost, so that a pass costs
the same whatever the seed.  Each operation is checked against oracle.py.

cli-regulators -- one fresh `python -m hyperreg.cli` process per operation.
    Goes through exact construction (coefficient streams, Frobenius
    deformation, ODE residuals), the exact-to-float boundary, series
    summation and the regulator assemblies, and never touches the AFE.
    Per-operation cost runs from ~0.2 s (interpreter start dominates) to
    ~8 s; the single-point k4 call repeats the t-independent work that the
    multi-point call could share across its four points.
cli-mellin -- one fresh CLI process per `lfun` operation.
    The Mellin-Barnes layer: the quintic operation recomputes
    `dirichlet_coefficients` six times, the degree-1 characters are bound by
    kernel evaluation.
    Exact construction and `LogSeries.evaluate` are bypassed.
api-warm -- one long-lived Python process calling the public API.
    The same layers with warm module caches (`mpnum.special`, the motive
    kernel cache) and no interpreter start, so reuse across calls and cache
    growth show here and not on the cold CLI.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import oracle
from oracle import Mismatch

WORKLOADS = ("cli-regulators", "cli-mellin", "api-warm")

# The 14 hypergeometric data with b = (1,1,1,1), the rows of the table.
TABLE_A = (
    "1/5,2/5,3/5,4/5", "1/10,3/10,7/10,9/10", "1/2,1/2,1/2,1/2",
    "1/3,1/3,2/3,2/3", "1/4,1/4,3/4,3/4", "1/6,1/6,5/6,5/6",
    "1/12,5/12,7/12,11/12", "1/8,3/8,5/8,7/8", "1/6,1/3,2/3,5/6",
    "1/2,1/2,1/3,2/3", "1/2,1/2,1/4,3/4", "1/2,1/2,1/6,5/6",
    "1/3,2/3,1/4,3/4", "1/4,3/4,1/6,5/6",
)
PERIOD_K = 120
# Rows whose t-disk of convergence |t| < 1/C contains POINT (C = 256, 432).
# The row 1/3,1/3,2/3,2/3 (C = 729) is left out: at the seed commit it prints
# 30 digits of which only about 22 are right (README.md, "Left out").
POINT_ROWS = ("1/2,1/2,1/2,1/2", "1/2,1/2,1/3,2/3")
POINT = "1/1024"

# A pass has to fit a run, so cy0 n = 23 and the single-point k4 calls at
# 4^-5..4^-7 (about 9 s together) are left to the multi-point call and to
# api-warm, which evaluates k4_det at all four points.
CY0_N = (7, 11, 35)
K4_T = ("1/1024", "1/4096", "1/16384", "1/65536")
K4_SINGLE = ("1/65536",)
K2_T = ("1/16", "1", "49")
K2_OFF_FORM = ("2", "3", "5")        # not of the form n^2/4^o
APPB_T = ("2", "5", "7")
HADAMARD = (("k4", 20), ("k2_R0", 12))
VERIFY_SUITES = ("ode", "identities")

# cli-mellin: the quintic Euler data is cut to the primes up to QUINTIC_P.
# The shipped table (p <= 10039) costs about 30 s per operation on a 2-core
# box, most of it in dirichlet_coefficients, more than a run allows; at
# p <= 3000 that share is still about 40%.
QUINTIC_P = 3000
QUINTIC_DIGITS = 6
LFUN_DIGITS = 8
CHARACTERS = (-4, 5, -3, 8)         # fundamental discriminants
EULER_P = 400

# api-warm
API_DIGITS = 20
MOTIVE_DIGITS = 8
DIRICHLET_D = (-4, 5, -3, 8, -8, 12, 13, -7)
MB_Z = ("2", "10")


def _cli(family, argv, check, **extra):
    return {"family": family, "argv": argv, "check": check, **extra}


def _api(family, call, args, digits, check, **extra):
    return {"family": family, "call": call, "args": args, "digits": digits,
            "check": check, **extra}


def kronecker_euler_file(D: int, path: Path):
    """Euler factors 1 - chi_D(p) x for p <= EULER_P, one JSON line per prime."""
    primes = [p for p in range(2, EULER_P + 1) if all(p % q for q in range(2, int(p ** 0.5) + 1))]
    with open(path, "w", encoding="utf-8") as fh:
        for p in primes:
            c = oracle.kronecker(D, p)
            fh.write(json.dumps({"p": p, "factor": [1, -c] if c else [1]}) + "\n")


def character_spec(D: int, workdir: Path) -> Path:
    """Spec for L(chi_D, s): gamma factor Gamma_R(s + 0) if chi_D is even, else (s + 1)."""
    euler = workdir / f"chi{D}.jsonl"
    kronecker_euler_file(D, euler)
    spec = workdir / f"chi{D}.json"
    spec.write_text(json.dumps({
        "degree": 1, "weight": 0, "conductor": abs(D),
        "gamma_shifts": [["R", "0" if D > 0 else "1"]], "sign": 1,
        "euler_path": str(euler), "label": f"chi_{D}"}))
    return spec


def quintic_spec(root: Path, workdir: Path) -> Path:
    euler = workdir / "quintic_prefix.jsonl"
    with open(root / "fixtures" / "euler" / "quintic_field.jsonl", encoding="utf-8") as src, \
            open(euler, "w", encoding="utf-8") as dst:
        for line in src:
            if json.loads(line)["p"] <= QUINTIC_P:
                dst.write(line)
    spec = workdir / "quintic.json"
    spec.write_text(json.dumps({
        "degree": 4, "weight": 0, "conductor": 2869,
        "gamma_shifts": [["C", "0"], ["C", "0"]], "sign": 1,
        "euler_path": str(euler), "label": "zetaK/zeta for Y^5-Y+1"}))
    return spec


# ---------------------------------------------------------------------------
# operation lists
# ---------------------------------------------------------------------------

def cli_regulators(rng: random.Random) -> list:
    ops = []
    for a in TABLE_A:
        var = rng.choice(("z", "t"))
        ops.append(_cli("period", ["period", f"{a};1,1,1,1", "--var", var, "-K", str(PERIOD_K)],
                        "period"))
    for a in POINT_ROWS:
        ops.append(_cli("period_point", ["period", f"{a};1,1,1,1", "--var", "t", "-K",
                                         str(PERIOD_K), "--point", POINT], "period_point"))
    for n in CY0_N:
        ops.append(_cli("cy0", ["regulator", "--case", "cy0", "--t", f"1/{n}"], "regulator"))
    for t in K4_SINGLE:
        ops.append(_cli("k4", ["regulator", "--case", "k4", "--t", t], "regulator"))
    ops.append(_cli("k4_multi", ["regulator", "--case", "k4", "--t", ",".join(K4_T)], "regulator"))
    for t in K2_T + (rng.choice(K2_OFF_FORM),):
        ops.append(_cli("k2", ["regulator", "--case", "k2", "--t", t], "regulator"))
    for t in APPB_T:
        ops.append(_cli("appB", ["regulator", "--case", "appB", "--t", t], "regulator"))
    for which, K in HADAMARD:
        ops.append(_cli("hadamard", ["hadamard", which, "-K", str(K)], "hadamard"))
    for suite in VERIFY_SUITES:
        ops.append(_cli("verify", ["verify", suite], "verify"))
    return ops


def cli_mellin(root: Path, workdir: Path) -> list:
    specs = {D: str(character_spec(D, workdir)) for D in CHARACTERS}
    quintic = str(quintic_spec(root, workdir))
    stored = json.loads((root / "fixtures" / "quintic.json").read_text())[0]["L_value"]

    def lfun(family, D, s, order, digits):
        spec = quintic if D is None else specs[D]
        return _cli(family, ["--digits", str(digits), "lfun", spec, "--s", s, "--order", str(order)],
                    "lfun", D=D, ref=stored if D is None else None)

    # Ten order-0 values of one cost put the median inside one cluster.
    ops = [lfun("quintic", None, "0", 2, QUINTIC_DIGITS)]
    ops += [lfun("lfun_order0", D, "2", 0, LFUN_DIGITS) for D in (-4, -3) * 5]
    ops += [lfun("lfun_order1", 5, "0", 1, LFUN_DIGITS), lfun("lfun_order1", 8, "2", 1, LFUN_DIGITS)]
    return ops


def api_warm(rng: random.Random, workdir: Path) -> list:
    character_spec(-4, workdir)
    ops = [_api("k4_det", "k4_det", [t], API_DIGITS, "regulator", case="k4", t=t)
           for t in K4_T * 2]
    ops += [_api("motive_L", "motive_L", [-4, "2", order], MOTIVE_DIGITS, "lfun")
            for order in (0, 0, 0, 1, 1, 1)]
    ops += [_api("dirichlet_L", "dirichlet_L", [D, rng.choice((2, 3, 4)), rng.choice((0, 1))],
                 API_DIGITS, "lfun") for D in DIRICHLET_D]
    ops += [_api("mb_compare", "mb_compare", [z], API_DIGITS, "mb_compare") for z in MB_Z]
    ops.append(_api("appB_det", "appB_det", ["2"], API_DIGITS, "regulator", case="appB", t="2"))
    ops.append(_api("quintic_det", "quintic_det", [], API_DIGITS, "regulator", case="quintic", t=""))
    # printed at the CLI's default 30 digits, so both share one recorded digest
    ops += [_api("hadamard", "hadamard_regulator", [w, K], 30, "hadamard")
            for w, K in HADAMARD]
    return ops


def build(workload: str, seed: int, root: Path, workdir: Path) -> list:
    """The seeded operation list of one pass; writes the input files into workdir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-regulators":
        ops = cli_regulators(rng)
    elif workload == "cli-mellin":
        ops = cli_mellin(root, workdir)
    else:
        ops = api_warm(rng, workdir)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _digits(op) -> int:
    """Significant digits the operation prints; 30 is the CLI's default."""
    argv = op.get("argv", [])
    return int(argv[argv.index("--digits") + 1]) if "--digits" in argv else op.get("digits", 30)


def _check_report(doc: dict, case: str, t: str, digits: int):
    key = f"{case}:{t}"
    ref = oracle.reference()["regulator"][key]
    oracle.check_digits(doc["r_value"], ref, digits, f"r_value[{key}]")
    if case == "cy0":
        n = Fraction(t).denominator
        h = oracle.reference()["class_number"][str(n * (n - 4))]
        want = Fraction(h, 8)
        got = doc["detected_ratio"]
        if got is None or Fraction(got) != want:
            raise Mismatch(f"cy0 t={t}: detected_ratio {got}, h/8 = {want}")


def _check_period(op, doc):
    data = op["argv"][1]
    a, b = oracle.parse_data(data)
    var = op["argv"][op["argv"].index("--var") + 1]
    scale = oracle.integral_scale(a, b) if var == "t" else Fraction(1)
    if Fraction(doc["scale"]) != scale:
        raise Mismatch(f"period {data}: scale {doc['scale']}, reference {scale}")
    want = oracle.pochhammer_coefficients(a, b, PERIOD_K, scale)
    got = [Fraction(c) for c in doc["coefficients"]]
    if got != want:
        k = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        raise Mismatch(f"period {data} var {var}: first wrong coefficient at k = {k} "
                       f"of {len(got)} (want {len(want)})")
    return a, b, scale


def check(op: dict, out: str):
    """Raise Mismatch unless `out`, the operation's stdout, matches its reference."""
    kind = op["check"]
    doc = json.loads(out)
    digits = _digits(op)
    if kind == "period":
        _check_period(op, doc)
    elif kind == "period_point":
        a, b, scale = _check_period(op, doc)
        point = Fraction(op["argv"][op["argv"].index("--point") + 1])
        oracle.check_digits(doc["value"], oracle.hypergeometric_value(a, b, scale * point),
                            digits, f"period {op['argv'][1]} at t = {point}")
    elif kind == "regulator":
        if "argv" in op:
            case = op["argv"][op["argv"].index("--case") + 1]
            points = op["argv"][op["argv"].index("--t") + 1].split(",")
        else:
            case, points = op["case"], [op["t"]]
        docs = doc if isinstance(doc, list) else [doc]
        if len(docs) != len(points):
            raise Mismatch(f"{case}: {len(docs)} reports for {len(points)} points")
        for d, t in zip(docs, points):
            _check_report(d, case, t, digits)
    elif kind == "hadamard":
        which, K = op["argv"][1:4:2] if "argv" in op else op["args"]
        series = doc["series"] if "argv" in op else doc
        key = f"{which}:{K}"
        if oracle.digest(series) != oracle.reference()["hadamard"][key]:
            raise Mismatch(f"hadamard {key}: series differs from the recorded closed form")
        if "argv" in op and doc.get("verified") != "matches closed form coefficientwise":
            raise Mismatch(f"hadamard {key}: not verified")
    elif kind == "verify":
        suite = op["argv"][1]
        bad = [r["check"] for r in doc if r["status"] not in ("pass", "skipped")]
        names = [r["check"] for r in doc]
        if bad or names != oracle.reference()["verify"][suite]:
            raise Mismatch(f"verify {suite}: failing {bad}, checks {names}")
    elif kind == "lfun":
        _check_lfun(op, doc, digits)
    elif kind == "mb_compare":
        z = op["args"][0]
        if oracle.CTX.mpf(doc["deviation"]) >= oracle.CTX.mpf(10) ** -15:
            raise Mismatch(f"mb_compare z={z}: deviation {doc['deviation']}")
        if doc["rational"] != oracle.reference()["mb_compare"][z]:
            raise Mismatch(f"mb_compare z={z}: rational {doc['rational']}")
    else:
        raise ValueError(f"unknown check {kind!r}")


def _check_lfun(op, doc, digits):
    if "argv" in op:
        argv = op["argv"]
        s, order, D = Fraction(argv[argv.index("--s") + 1]), int(argv[-1]), op["D"]
    else:
        D, s, order = op["args"]
        s = Fraction(s)
    if D is None:
        ref = oracle.CTX.mpf(op["ref"])
        what = "quintic L''(0)"
    else:
        ref = oracle.closed_form_L(D, s, order)
        if ref is None:
            ref = oracle.dirichlet_L(D, s, order)
        what = f"L^({order})(chi_{D}, {s})"
    oracle.check_digits(doc["value"], ref, digits, what)
