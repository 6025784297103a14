#!/usr/bin/env python3
"""Time cold hyperreg CLI operations in two checkouts, interleaved.

    python3 scripts/bench.py PARENT_SRC CHANGE_SRC [--runs N] [--out FILE]
                             [--ids PARENT_ID CHANGE_ID]

PARENT_SRC and CHANGE_SRC are the roots of two checkouts, each holding
`src/` and `fixtures/`.  Every operation of `operations()` runs as a fresh
`python -m hyperreg.cli` process with PYTHONPATH at the root's `src/`, in a
new empty HYPERREG_CACHE directory of its own, so no run reads a kernel an
earlier one saved.  Each of the N runs (default 5, at least 5) goes through
the operations in order and runs each once on both sides, the parent first
in even runs and the change first in odd ones.  Every process must exit 0,
and the two sides' stdout are compared.

The JSON written to FILE (default stdout) holds, per operation and side,
the wall and CPU (user + system, from the child's rusage) seconds of every
run with their median, minimum and quartiles, whether the stdout was the
same on both sides in every run, the machine facts and the two commit ids:
`git rev-parse HEAD` of each root, or the --ids given for roots that are not
git checkouts (a `git archive` copy, say).  The machine facts name the mpmath
version and backend (imported for that alone) and PYTHONDONTWRITEBYTECODE as
the children see it.  Otherwise standard library only.

The operations: `verify continuation`, the one CLI path through the
Mellin-Barnes contour, at the default digits and at --digits 50, and two
controls on the AFE, which runs no contour: the quintic's L''(0) over the
whole shipped Euler table at --digits 20, and L''(chi_-4, 2) with a table to
p <= CHI_P at --digits 30.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from byte_identity import kronecker  # noqa: E402

MIN_RUNS = 5
CHI_P = 3000


def quintic_spec(root: Path, directory: Path) -> Path:
    """Spec of the quintic's L-function over root's whole Euler table."""
    spec = directory / "quintic.json"
    spec.write_text(json.dumps({
        "degree": 4, "weight": 0, "conductor": 2869,
        "gamma_shifts": [["C", "0"], ["C", "0"]], "sign": 1,
        "euler_path": str(root / "fixtures" / "euler" / "quintic_field.jsonl"),
        "label": "zetaK/zeta for Y^5-Y+1"}))
    return spec


def chi4_spec(directory: Path) -> Path:
    """Spec of L(chi_-4, s) with Euler factors 1 - chi_-4(p) x for p <= CHI_P."""
    euler = directory / "chi-4.jsonl"
    with open(euler, "w", encoding="utf-8") as fh:
        for p in range(2, CHI_P + 1):
            if all(p % q for q in range(2, int(p ** 0.5) + 1)):
                c = kronecker(-4, p)
                fh.write(json.dumps({"p": p, "factor": [1, -c] if c else [1]}) + "\n")
    spec = directory / "chi-4.json"
    spec.write_text(json.dumps({"degree": 1, "weight": 0, "conductor": 4,
                                "gamma_shifts": [["R", "1"]], "sign": 1,
                                "euler_path": str(euler), "label": "chi_-4"}))
    return spec


def operations(root: Path, directory: Path) -> dict:
    """name -> CLI argv."""
    return {
        "verify continuation": ["verify", "continuation"],
        "verify continuation --digits 50": ["--digits", "50", "verify", "continuation"],
        "quintic L''(0) --digits 20": ["--digits", "20", "lfun",
                                       str(quintic_spec(root, directory)),
                                       "--s", "0", "--order", "2"],
        "chi_-4 L''(2) --digits 30": ["--digits", "30", "lfun", str(chi4_spec(directory)),
                                      "--s", "2", "--order", "2"],
    }


def run_once(root: Path, argv: list, cache: Path):
    """(wall s, cpu s, stdout) of one cold CLI process; an exit other than 0 raises."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), HYPERREG_CACHE=str(cache))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "hyperreg.cli"] + argv, cwd=root, env=env,
                          capture_output=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode:
        raise RuntimeError(f"{root}: {' '.join(argv)} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')}")
    cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    return wall, cpu, proc.stdout


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": [round(v, 4) for v in values], "median": round(median, 4),
            "min": round(min(values), 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def commit_id(root: Path, given):
    if given:
        return given
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                         text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def machine_facts() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    import mpmath
    return {"cpu": model, "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "loadavg_at_start": os.getloadavg()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("roots", nargs=2, type=Path)
    parser.add_argument("--runs", type=int, default=MIN_RUNS)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--ids", nargs=2)
    args = parser.parse_args(argv)
    if args.runs < MIN_RUNS:
        parser.error(f"--runs must be at least {MIN_RUNS}")
    roots = [root.resolve() for root in args.roots]
    for root in roots:
        if not (root / "src" / "hyperreg").is_dir():
            parser.error(f"{root} has no src/hyperreg")
    sides = ("parent", "change")
    facts = machine_facts()
    with tempfile.TemporaryDirectory() as tmp:
        ops = operations(roots[0], Path(tmp))
        times = {name: {side: {"wall_s": [], "cpu_s": []} for side in sides} for name in ops}
        same = {name: True for name in ops}
        for run in range(args.runs):
            for name, cmd in ops.items():
                outs = {}
                for i in (0, 1) if run % 2 == 0 else (1, 0):
                    cache = Path(tempfile.mkdtemp(dir=tmp))
                    wall, cpu, outs[i] = run_once(roots[i], cmd, cache)
                    times[name][sides[i]]["wall_s"].append(wall)
                    times[name][sides[i]]["cpu_s"].append(cpu)
                same[name] &= outs[0] == outs[1]
                print(f"run {run}  {name}: parent {times[name]['parent']['wall_s'][-1]:.3f} s,"
                      f" change {times[name]['change']['wall_s'][-1]:.3f} s", file=sys.stderr,
                      flush=True)
    facts["loadavg_at_end"] = os.getloadavg()
    ids = args.ids or (None, None)
    result = {
        "commits": {side: commit_id(root, given) for side, root, given in zip(sides, roots, ids)},
        "machine": facts,
        "runs": args.runs,
        "order": "interleaved per operation; the parent first in even runs, the change in odd",
        "operations": {name: {"argv": [Path(a).name if a.startswith(tmp) else a
                                       for a in ops[name]],
                              "same_stdout": same[name],
                              **{side: {metric: summary(values)
                                        for metric, values in times[name][side].items()}
                                 for side in sides}}
                       for name in ops},
    }
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
