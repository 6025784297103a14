"""Record reference.json: the references oracle.py cannot recompute cheaply.

    python3 perfbench/make_reference.py [--commit HASH]

Run from the root of a hyperreg checkout at the commit whose outputs are to
be trusted.  Regulator values come from the same code at --digits 40 (the
workloads print 20 or 30 digits), so the check is that lower-precision runs
print digits the higher-precision run confirms.  Class numbers come from the
analytic class number formula, independent of hyperreg.  The hadamard series
and the verify check names are recorded as printed, so later changes must
keep them identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle      # noqa: E402
import workloads   # noqa: E402

REF_CLI_DIGITS = 40


def cli(root: Path, *argv) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-m", "hyperreg.cli", *argv], cwd=root, env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def class_number(D: int) -> int:
    """h(D) for a real quadratic discriminant D = 1 mod 4, from h R = sqrt(D) L(1, chi_D) / 2.

    R = log of the product of the complete quotients over one period of the
    continued fraction of (1 + sqrt(D)) / 2, which is the fundamental unit.
    """
    ctx = oracle.CTX
    L1 = -sum(oracle.kronecker(D, a) * ctx.psi(0, ctx.mpf(a) / D) for a in range(1, D)) / D
    sq = ctx.sqrt(D)
    P, Q = 1, 2
    seen, logs = {}, []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(logs)
        logs.append(ctx.log((P + sq) / Q))
        a = (P + math.isqrt(D)) // Q
        P = a * Q - P
        Q = (D - P * P) // Q
    regulator = sum(logs[seen[(P, Q)]:])
    h = sq * L1 / (2 * regulator)
    if abs(h - ctx.nint(h)) > ctx.mpf(10) ** -30:
        raise RuntimeError(f"class number formula gives a non-integer for D = {D}")
    return int(ctx.nint(h))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--commit", default="unknown")
    args = ap.parse_args()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from hyperreg.mpnum import PrecisionPolicy
    from hyperreg.regulators import k2, quintic

    d = str(REF_CLI_DIGITS)
    regulator = {}
    points = ([("cy0", f"1/{n}") for n in workloads.CY0_N]
              + [("k4", t) for t in workloads.K4_T]
              + [("k2", t) for t in workloads.K2_T + workloads.K2_OFF_FORM]
              + [("appB", t) for t in workloads.APPB_T])
    for case, t in points:
        regulator[f"{case}:{t}"] = cli(root, "--digits", d, "regulator", "--case", case,
                                       "--t", t)["r_value"]
        print(case, t, regulator[f"{case}:{t}"], flush=True)
    pol = PrecisionPolicy(REF_CLI_DIGITS)
    regulator["quintic:"] = pol.ctx.nstr(quintic.quintic_det(pol).r_value, REF_CLI_DIGITS)

    mb = {}
    for z in workloads.MB_Z:
        _dev, q = k2.mb_compare(pol.ctx.mpf(z), pol)
        mb[z] = None if q is None else str(q)

    hadamard_digests = {}
    for which, K in workloads.HADAMARD:
        series = cli(root, "hadamard", which, "-K", str(K))["series"]
        hadamard_digests[f"{which}:{K}"] = oracle.digest(series)

    verify = {suite: [row["check"] for row in cli(root, "verify", suite)]
              for suite in workloads.VERIFY_SUITES}

    class_numbers = {str(n * (n - 4)): class_number(n * (n - 4)) for n in workloads.CY0_N}
    doc = {
        "provenance": {
            "commit": args.commit,
            "regulator": f"hyperreg CLI `--digits {REF_CLI_DIGITS} regulator --case C --t T` "
                         "(quintic: regulators.quintic.quintic_det at 40 digits)",
            "mb_compare": "regulators.k2.mb_compare at 40 digits: the rational the left "
                          "assembly differs from the contour by",
            "hadamard": "sha256 of the `series` field printed by `hadamard W -K K`",
            "verify": "check names printed by `verify SUITE`",
            "class_number": "analytic class number formula, perfbench/make_reference.py",
        },
        "regulator": regulator,
        "mb_compare": mb,
        "hadamard": hadamard_digests,
        "verify": verify,
        "class_number": class_numbers,
    }
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
