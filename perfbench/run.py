"""hyperreg benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a hyperreg checkout; the program is run from its source
(`src/`) with PYTHONPATH, nothing is installed.  NAME is one of
cli-regulators, cli-mellin, api-warm, or `all`, which runs the three in an
order rotated by the seed.  Every operation's output is checked against
oracle.py; the last stdout line is one JSON object with the fields
correct/attempted/failed/metrics.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of tracer.py plus trace_overhead.  See
README.md for what each metric means and which workload should move it.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer      # noqa: E402
import workloads   # noqa: E402

# One pass of each workload costs about this much on a 2-core box; a run
# makes max(1, round(seconds / pass cost)) untraced passes, so --seconds 30
# gives one pass.  api-warm's pass costs 17-21 s, but its set-up, warm-up and
# calibration cost about 15 s more, and 70 runs must fit in an hour.
PASS_SECONDS = {"cli-regulators": 36, "cli-mellin": 34, "api-warm": 35}
SETUP_REPEATS = 9
OP_TIMEOUT = 150
# modules each workload imports; setup_s times a fresh interpreter importing them
SETUP_MODULES = {
    "cli-regulators": ("hyperreg.cli", "hyperreg.lfun.ratio", "hyperreg.verify",
                       "hyperreg.regulators.hadamard"),
    "cli-mellin": ("hyperreg.cli", "hyperreg.lfun.euler", "hyperreg.lfun.motive"),
}


def machine_facts() -> dict:
    import mpmath
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "loadavg_at_start": os.getloadavg()}


def check_output(op, out: str):
    """None when an operation's stdout matches its reference, else what is wrong."""
    try:
        workloads.check(op, out)
    except workloads.Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"
    return None


class Runner:
    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    def spawn(self, cmd, out_path) -> dict:
        """Run cmd to completion; wall time, CPU and peak RSS of that child alone."""
        with open(out_path, "wb") as out, open(str(out_path) + ".err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.root, env=self.env)
            watchdog = threading.Timer(OP_TIMEOUT, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                "maxrss_kb": usage.ru_maxrss, "rc": proc.returncode}

    def setup_seconds(self, workload: str, ops_file: Path) -> float:
        if workload == "api-warm":
            cmd = [sys.executable, str(HERE / "api_warm.py"), str(ops_file), str(self.workdir),
                   "--setup-only"]
        else:
            cmd = [sys.executable, "-c", "import " + ", ".join(SETUP_MODULES[workload])]
        walls = []
        for i in range(SETUP_REPEATS):
            res = self.spawn(cmd, self.workdir / f"setup{i}.out")
            if res["rc"] != 0:
                raise RuntimeError(f"set-up failed: {(self.workdir / f'setup{i}.out.err').read_text()}")
            walls.append(res["wall"])
        return statistics.median(walls)

    def cli_passes(self, ops: list, tag: str, modes=(False,)) -> list:
        """One pass over ops per mode: False runs the plain CLI, True tracer.py.

        With both modes each operation runs plain and then traced, back to
        back, so drift on the box hits both passes alike.  A pass's wall time
        is the sum of its operations' wall times.  Unlike api-warm's, these
        times are not scaled by calibrate.py: most of a CLI operation is
        process start and import, which the kernel does not model, and
        scaling widened the spread of cli-regulators (README.md).
        """
        passes = {mode: [] for mode in modes}
        for i, op in enumerate(ops):
            for mode in modes:
                out = self.workdir / f"{tag}-{int(mode)}-{i}.out"
                head = ([sys.executable, str(HERE / "tracer.py"), str(out) + ".spans"] if mode
                        else [sys.executable, "-m", "hyperreg.cli"])
                res = self.spawn(head + op["argv"], out)
                if res["rc"] != 0:
                    err = Path(str(out) + ".err").read_text(errors="replace").strip()
                    res["error"] = f"exit code {res['rc']}: {err[-300:]}"
                else:
                    res["error"] = check_output(op, out.read_text())
                passes[mode].append(res)
        return [{"wall": sum(r["wall"] for r in recs), "cpu": sum(r["cpu"] for r in recs),
                 "maxrss_kb": max(r["maxrss_kb"] for r in recs), "ops": recs}
                for recs in passes.values()]

    def api_passes(self, ops: list, ops_file: Path, passes: int, spans=None) -> list:
        cmd = [sys.executable, str(HERE / "api_warm.py"), str(ops_file), str(self.workdir),
               "--passes", str(passes)] + (["--spans", str(spans)] if spans else [])
        out = self.workdir / f"api-{'traced' if spans else 'plain'}.out"
        res = self.spawn(cmd, out)
        lines = [json.loads(line) for line in out.read_text().splitlines() if line.strip()]
        if res["rc"] != 0 or not lines or "maxrss_kb" not in lines[-1]:
            err = Path(str(out) + ".err").read_text(errors="replace")
            raise RuntimeError(f"api-warm process failed (exit {res['rc']}): {err[-800:]}")
        results = []
        for p in range(passes):
            records = []
            for line in lines:
                if line.get("pass") != p:
                    continue
                if "op" not in line:
                    results.append({"wall": line["wall"], "cpu": line["cpu"],
                                    "raw_wall": line["raw_wall"],
                                    "maxrss_kb": res["maxrss_kb"], "ops": records})
                    continue
                op = ops[line["op"]]
                if line["error"]:
                    error = line["error"].strip().splitlines()[-1]
                else:
                    error = check_output(op, json.dumps(line["result"]))
                records.append({"wall": line["wall"], "error": error})
        return results


def tail(latencies: list):
    """(value, percentile, n): the highest percentile with ten samples beyond it.

    With fewer than 20 samples no percentile above the median has ten samples
    beyond it, so the tail is the median.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return statistics.median(xs), 50.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def run_workload(workload: str, seed: int, seconds: int, trace: bool, root: Path):
    workdir = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(root, workdir)
        ops = workloads.build(workload, seed, root, workdir)
        ops_file = workdir / "ops.json"
        ops_file.write_text(json.dumps(ops))
        passes = 1 if trace else max(1, round(seconds / PASS_SECONDS[workload]))
        if workload == "api-warm":
            plain = runner.api_passes(ops, ops_file, passes)
        elif trace:
            plain_pass, traced_pass = runner.cli_passes(ops, "p", (False, True))
            plain = [plain_pass]
        else:
            plain = [p for k in range(passes) for p in runner.cli_passes(ops, f"p{k}")]
        if trace:
            if workload == "api-warm":
                traced_pass = runner.api_passes(ops, ops_file, 1, spans=workdir / "api.spans")[0]
                span_docs = [json.loads((workdir / "api.spans").read_text())]
            else:
                span_docs = [json.loads(f.read_text()) for f in sorted(workdir.glob("p-1-*.spans"))]
            metrics = tracer.aggregate(span_docs)
            metrics["trace_overhead"] = traced_pass["wall"] / plain[0]["wall"] - 1
            all_passes = plain + [traced_pass]
            units = {n: u for n, u, _ in tracer.METRICS}
            notes = [f"traced pass {traced_pass['wall']:.3f} s vs untraced {plain[0]['wall']:.3f} s"]
        else:
            setup = runner.setup_seconds(workload, ops_file)
            lat = [r["wall"] for p in plain for r in p["ops"]]
            value, pct, n = tail(lat)
            metrics = {
                "setup_s": setup,
                "wall_s": statistics.median(p["wall"] for p in plain),
                "cpu_s": statistics.median(p["cpu"] for p in plain),
                "op_p50_s": statistics.median(lat),
                "op_tail_s": value,
                "peak_rss_mb": max(p["maxrss_kb"] for p in plain) / 1024,
            }
            all_passes = plain
            units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_s": "s",
                     "op_tail_s": "s", "peak_rss_mb": "MB"}
            notes = [f"op latency: p50 over {n} ops; tail is p{pct:.1f} over {n} ops",
                     f"{passes} pass(es) of {len(ops)} ops"]
            if workload == "api-warm":
                notes.append("unscaled pass wall "
                             + ", ".join(f"{p['raw_wall']:.3f}" for p in plain) + " s")
        records = [(op, r) for p in all_passes for op, r in zip(ops, p["ops"])]
        failures = [(op, r["error"]) for op, r in records if r["error"]]
        return {"metrics": metrics, "units": units, "notes": notes,
                "attempted": len(records), "failures": failures}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def describe(op) -> str:
    return " ".join(op["argv"]) if "argv" in op else f"{op['call']}{tuple(op['args'])}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hyperreg" / "cli.py").is_file() or not (root / "fixtures").is_dir():
        print("error: run from the root of a hyperreg checkout (src/hyperreg and fixtures/ "
              "not found)", file=sys.stderr)
        return 2
    print("# machine " + json.dumps(machine_facts()), flush=True)

    if args.workload == "all":
        k = args.seed % len(workloads.WORKLOADS)
        names = workloads.WORKLOADS[k:] + workloads.WORKLOADS[:k]
    else:
        names = (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
        attempted += res["attempted"]
        failed += len(res["failures"])
        print(f"# workload {name}: {res['attempted']} ops attempted, "
              f"{len(res['failures'])} failed (failed_ratio "
              f"{len(res['failures']) / res['attempted']:.4f}); " + "; ".join(res["notes"]))
        for op, error in res["failures"]:
            print(f"#   FAILED {describe(op)}: {error}")
        for metric, value in res["metrics"].items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": res["units"][metric]}
            print(f"#   {key} = {value} {res['units'][metric]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
