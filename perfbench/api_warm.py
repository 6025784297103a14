"""The api-warm workload: one long-lived process calling hyperreg's public API.

    python perfbench/api_warm.py OPS.json WORKDIR [--passes N] [--spans SPANS.json]
    python perfbench/api_warm.py OPS.json WORKDIR --setup-only

Imports hyperreg and builds the specs, tables and characters the operations
need (the workload's set-up), calls each function once so that the module
caches fill, then runs the operation list N times.  The machine speed is
sampled before each call (calibrate.py) and a pass's times are scaled by the
mean over the pass; raw_wall is the unscaled pass.  Writes
one JSON line per operation and per pass to stdout; the parent checks the
printed values.  With --spans the calls run under tracer.Recorder.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from calibrate import Speed


def build(ops: list, workdir: Path) -> dict:
    from hyperreg.lfun.dirichlet import dirichlet_L, kronecker_character
    from hyperreg.lfun.euler import euler_ingest
    from hyperreg.lfun.motive import LFunctionSpec, motive_L
    from hyperreg.mpnum import PrecisionPolicy
    from hyperreg.regulators import appb, hadamard, k2, k4, quintic

    chars = {D: kronecker_character(D) for D in sorted({op["args"][0] for op in ops
                                                        if op["call"] == "dirichlet_L"})}
    chi4 = LFunctionSpec(1, 0, 4, (("R", Fraction(1)),), 1,
                         euler_ingest(workdir / "chi-4.jsonl", 1), label="chi_-4")
    pols = {d: PrecisionPolicy(d) for d in sorted({op["digits"] for op in ops})}

    def report(rep, pol):
        return {"r_value": pol.ctx.nstr(rep.r_value, pol.target_digits)}

    def run_mb(z, pol):
        dev, q = k2.mb_compare(pol.ctx.mpf(z), pol)
        return {"deviation": pol.ctx.nstr(dev, 3), "rational": None if q is None else str(q)}

    def run_hadamard(which, K, pol):
        return json.loads(hadamard.hadamard_regulator(which, K).to_json(pol))

    def value(v, pol):
        return {"value": pol.ctx.nstr(v, pol.target_digits)}

    calls = {
        "k4_det": lambda pol, t: report(k4.k4_det(Fraction(t), pol), pol),
        "appB_det": lambda pol, t: report(appb.appB_det(Fraction(t), pol), pol),
        "quintic_det": lambda pol: report(quintic.quintic_det(pol), pol),
        "motive_L": lambda pol, D, s, order: value(
            motive_L(chi4, Fraction(s), order, pol)[0], pol),
        "dirichlet_L": lambda pol, D, s, order: value(dirichlet_L(chars[D], s, order, pol), pol),
        "mb_compare": lambda pol, z: run_mb(z, pol),
        "hadamard_regulator": lambda pol, which, K: run_hadamard(which, K, pol),
    }
    return {"calls": calls, "pols": pols}


def run_op(env: dict, op: dict):
    """(result, None) of one operation, or (None, traceback) if it raised."""
    try:
        return env["calls"][op["call"]](env["pols"][op["digits"]], *op["args"]), None
    except Exception:  # noqa: BLE001 - the op fails, the loop goes on
        return None, traceback.format_exc(limit=3)


def emit(doc):
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("ops")
    ap.add_argument("workdir", type=Path)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    ops = json.loads(Path(args.ops).read_text())

    recorder = None
    if args.spans:
        from tracer import Recorder, install
        recorder = Recorder()
        install(recorder)
    env = build(ops, args.workdir)
    if args.setup_only:
        return 0
    # Warm-up, untimed: one call of each function, on its first operation's
    # arguments.  A cold first pass ran up to 37% slower than the next.
    for first in {op["call"]: op for op in reversed(ops)}.values():
        run_op(env, first)
    speed = Speed()
    for p in range(args.passes):
        records = []
        for i, op in enumerate(ops):
            if recorder is not None:
                recorder.op = i
            speed.tick()
            t0, c0 = time.perf_counter(), time.process_time()
            out, err = run_op(env, op)
            records.append({"pass": p, "op": i, "wall": time.perf_counter() - t0,
                            "cpu": time.process_time() - c0, "result": out, "error": err})
        speed.tick()
        wall_scale, cpu_scale = speed.scales()
        raw_wall = sum(r["wall"] for r in records)
        for r in records:
            r["wall"] *= wall_scale
            r["cpu"] *= cpu_scale
            emit(r)
        emit({"pass": p, "wall": sum(r["wall"] for r in records),
              "cpu": sum(r["cpu"] for r in records), "raw_wall": raw_wall})
    emit({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    if recorder is not None:
        recorder.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
