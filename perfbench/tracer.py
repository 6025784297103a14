"""Span recorder that times hyperreg's public functions from outside the package.

    python perfbench/tracer.py SPANS.json ARGV...

imports every hyperreg module, wraps the functions in TARGETS, runs
``hyperreg.cli.main(ARGV)`` and writes the recorded spans to SPANS.json.
api_warm.py installs the same recorder around its API loop.

hyperreg modules import each other's functions by name (``from .x import f``),
so a wrapper replaces every module-level name in every loaded ``hyperreg.*``
module that *is* the original function; methods are replaced on their class.
Each span records its name, wall-clock start and end, parent span, operation
id and thread.  Parent stacks are per thread, so work fanned out to a thread
pool becomes a set of root spans in the worker threads instead of children of
whatever the calling thread has open.  Durations are the thread's CPU time
over the span: under the GIL the k4 worker threads take turns, and their
wall-clock spans would each cover the whole fan-out.  A span's self time is
its CPU time minus that of its direct children.  Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import sys
import threading
import time

# (layer, metric name, module, attribute); one metric name may cover several
# attributes, as `to_floating` does for LogSeries and PowSeries.
TARGETS = (
    ("verify", "run_suite", "hyperreg.verify", "run_suite"),
    ("regulators", "k4_det", "hyperreg.regulators.k4", "k4_det"),
    ("regulators", "k4_entries", "hyperreg.regulators.k4", "k4_entries"),
    ("regulators", "k2_det", "hyperreg.regulators.k2", "k2_det"),
    ("regulators", "mb_contour", "hyperreg.regulators.k2", "mb_contour"),
    ("regulators", "appB_det", "hyperreg.regulators.appb", "appB_det"),
    ("regulators", "S_A", "hyperreg.regulators.quintic", "S_A"),
    ("regulators", "cy0_class_number_check", "hyperreg.regulators.cy0", "cy0_class_number_check"),
    ("regulators", "class_number_real_quadratic", "hyperreg.regulators.cy0",
     "class_number_real_quadratic"),
    ("regulators", "hadamard_regulator", "hyperreg.regulators.hadamard", "hadamard_regulator"),
    ("regulators", "report_check", "hyperreg.regulators.reporting", "RegulatorReport.check"),
    ("lfun", "kronecker_character", "hyperreg.lfun.dirichlet", "kronecker_character"),
    ("lfun", "dirichlet_L", "hyperreg.lfun.dirichlet", "dirichlet_L"),
    ("lfun", "euler_ingest", "hyperreg.lfun.euler", "euler_ingest"),
    ("lfun", "dirichlet_coefficients", "hyperreg.lfun.euler", "dirichlet_coefficients"),
    ("lfun", "lambda_derivs", "hyperreg.lfun.motive", "lambda_derivs"),
    ("lfun", "motive_L", "hyperreg.lfun.motive", "motive_L"),
    ("lfun", "kernel_eval", "hyperreg.lfun.motive", "_Kernel.__call__"),
    ("hypergeom", "coeff_stream", "hyperreg.hypergeom", "coeff_stream"),
    ("hypergeom", "ck_s", "hyperreg.hypergeom", "ck_s"),
    ("hypergeom", "alpha_s", "hyperreg.hypergeom", "alpha_s"),
    ("hypergeom", "frobenius_phi", "hyperreg.hypergeom", "frobenius_phi"),
    ("ode", "residual_frobenius", "hyperreg.ode", "residual_frobenius"),
    ("ode", "residual_inhomogeneous", "hyperreg.ode", "residual_inhomogeneous"),
    ("series", "evaluate", "hyperreg.series", "LogSeries.evaluate"),
    ("series", "to_floating", "hyperreg.series", "LogSeries.to_floating"),
    ("series", "to_floating", "hyperreg.series", "PowSeries.to_floating"),
    ("series", "slaurent_mul", "hyperreg.series", "SLaurent.__mul__"),
    ("exactnum", "to_mp", "hyperreg.exactnum", "ExactNum.to_mp"),
    ("mpnum", "special", "hyperreg.mpnum", "special"),
    ("mpnum", "hurwitz_zeta", "hyperreg.mpnum", "hurwitz_zeta"),
)
LAYERS = ("cli", "verify", "regulators", "lfun", "hypergeom", "ode", "series",
          "exactnum", "mpnum")
IMPORT_SPAN = "cli.import"
# metric names whose spans record a key of their arguments, for distinct_ratio
KEYED = {"regulators.S_A", "lfun.dirichlet_coefficients", "lfun.lambda_derivs"}

# The per-layer metrics, in BENCHMARK.json order: (name, unit, better).
METRICS = (
    ("cli.import_s", "s", "lower"),
    ("verify.run_suite.total_s", "s", "lower"),
    ("regulators.k4_det.calls", "count", "lower"),
    ("regulators.k4_det.total_s", "s", "lower"),
    ("regulators.k4_entries.total_s", "s", "lower"),
    ("regulators.k2_det.total_s", "s", "lower"),
    ("regulators.mb_contour.total_s", "s", "lower"),
    ("regulators.appB_det.total_s", "s", "lower"),
    ("regulators.S_A.calls", "count", "lower"),
    ("regulators.S_A.distinct_ratio", "ratio", "higher"),
    ("regulators.cy0_class_number_check.total_s", "s", "lower"),
    ("regulators.class_number_real_quadratic.total_s", "s", "lower"),
    ("regulators.hadamard_regulator.total_s", "s", "lower"),
    ("regulators.report_check.calls", "count", "lower"),
    ("lfun.kronecker_character.self_s", "s", "lower"),
    ("lfun.dirichlet_L.self_s", "s", "lower"),
    ("lfun.euler_ingest.total_s", "s", "lower"),
    ("lfun.dirichlet_coefficients.calls", "count", "lower"),
    ("lfun.dirichlet_coefficients.self_s", "s", "lower"),
    ("lfun.dirichlet_coefficients.distinct_ratio", "ratio", "higher"),
    ("lfun.lambda_derivs.calls", "count", "lower"),
    ("lfun.lambda_derivs.self_s", "s", "lower"),
    ("lfun.lambda_derivs.distinct_ratio", "ratio", "higher"),
    ("lfun.motive_L.total_s", "s", "lower"),
    ("lfun.kernel_eval.calls", "count", "lower"),
    ("lfun.kernel_eval.self_s", "s", "lower"),
    ("hypergeom.coeff_stream.self_s", "s", "lower"),
    ("hypergeom.ck_s.self_s", "s", "lower"),
    ("hypergeom.alpha_s.self_s", "s", "lower"),
    ("hypergeom.frobenius_phi.self_s", "s", "lower"),
    ("ode.residual_frobenius.self_s", "s", "lower"),
    ("ode.residual_inhomogeneous.self_s", "s", "lower"),
    ("series.evaluate.calls", "count", "lower"),
    ("series.evaluate.self_s", "s", "lower"),
    ("series.evaluate.terms", "count", "lower"),
    ("series.to_floating.self_s", "s", "lower"),
    ("series.slaurent_mul.self_s", "s", "lower"),
    ("exactnum.to_mp.calls", "count", "lower"),
    ("exactnum.to_mp.self_s", "s", "lower"),
    ("mpnum.special.calls", "count", "lower"),
    ("mpnum.special.miss_ratio", "ratio", "lower"),
    ("mpnum.hurwitz_zeta.self_s", "s", "lower"),
)
METRICS += tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS[1:])
METRICS += tuple((f"{layer}.errors", "count", "lower") for layer in LAYERS)
METRICS += (("trace_overhead", "ratio", "lower"),)


def _arg_key(fn):
    """Key of a call's arguments, bound to fn's signature with defaults filled in.

    Hashable values compare by value, other objects (specs, tables) by identity.
    """
    sig = inspect.signature(fn)

    def key(args, kwargs) -> str:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        parts = []
        for a in bound.arguments.values():
            try:
                hash(a)
                parts.append(repr(a))
            except TypeError:
                parts.append(f"<{type(a).__name__}@{id(a):x}>")
        return "|".join(parts)
    return key


class Recorder:
    """Collects spans; `op` is the id stamped on spans started from now on."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: int, end: int, cpu: int):
        """A span measured by the caller, with no parent (imports)."""
        self.spans.append([next(self._ids), 0, self.op, threading.get_ident(), name,
                           start, end, cpu, cpu, False, False, None])

    def wrap(self, name: str, fn, probe=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else None
            nested = any(frame[1] == name for frame in stack)
            state = probe(args, kwargs) if probe else None
            frame = [next(rec._ids), name, 0]
            stack.append(frame)
            failed = True
            start, cpu0 = time.perf_counter_ns(), time.thread_time_ns()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                cpu = time.thread_time_ns() - cpu0
                end = time.perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent[2] += cpu
                extra = state() if callable(state) else state
                rec.spans.append([frame[0], parent[0] if parent else 0, rec.op,
                                  threading.get_ident(), name, start, end, cpu,
                                  cpu - frame[2], nested, failed, extra])
        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "op", "thread", "name", "start_ns",
                                  "end_ns", "cpu_ns", "self_cpu_ns", "nested", "error",
                                  "extra"],
                       "spans": self.spans}, fh)


def _probe(name: str, fn, mpnum):
    if name in KEYED:
        return _arg_key(fn)
    if name == "series.evaluate":
        # LogSeries.evaluate sums every coefficient of every log-part
        return lambda args, kwargs: sum(p.K for p in args[0].parts if p is not None)
    if name == "mpnum.special":
        def probe(args, kwargs):
            before = len(mpnum._const_cache)
            return lambda: len(mpnum._const_cache) > before
        return probe
    return None


def install(recorder: Recorder):
    """Import every hyperreg module and route the TARGETS through `recorder`."""
    start, cpu0 = time.perf_counter_ns(), time.thread_time_ns()
    import hyperreg
    for info in pkgutil.walk_packages(hyperreg.__path__, "hyperreg."):
        importlib.import_module(info.name)
    recorder.record(IMPORT_SPAN, start, time.perf_counter_ns(), time.thread_time_ns() - cpu0)
    mpnum = sys.modules["hyperreg.mpnum"]
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("hyperreg")]
    for layer, metric, modname, attr in TARGETS:
        name = f"{layer}.{metric}"
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            orig = getattr(owner, attr)
            setattr(owner, attr, recorder.wrap(name, orig, _probe(name, orig, mpnum)))
            continue
        orig = getattr(owner, attr)
        wrapper = recorder.wrap(name, orig, _probe(name, orig, mpnum))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)


def aggregate(span_docs: list) -> dict:
    """Per-layer metrics (all but trace_overhead) from the spans of a traced pass.

    `span_docs` holds one dump per traced process.  Argument keys are only
    comparable within one process, so distinct counts are summed per process.
    """
    calls, total, self_ns, errors, terms = {}, {}, {}, {}, 0
    distinct, special_miss, import_ns = {}, 0, 0
    for doc in span_docs:
        keys = {}
        for _id, _parent, _op, _thread, name, _start, _end, cpu, own, nested, err, extra \
                in doc["spans"]:
            if name == IMPORT_SPAN:
                import_ns += cpu
                continue
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + own
            if not nested:
                total[name] = total.get(name, 0) + cpu
            if err:
                layer = name.split(".")[0]
                errors[layer] = errors.get(layer, 0) + 1
            if name in KEYED:
                keys.setdefault(name, set()).add(extra)
            elif name == "series.evaluate":
                terms += extra
            elif name == "mpnum.special" and extra:
                special_miss += 1
        for name, ks in keys.items():
            distinct[name] = distinct.get(name, 0) + len(ks)

    out = {"cli.import_s": import_ns / 1e9}
    for metric, _unit, _better in METRICS:
        if metric in out or metric == "trace_overhead":
            continue
        base, kind = metric.rsplit(".", 1)
        if base in LAYERS and kind == "self_s":
            out[metric] = sum(v for k, v in self_ns.items() if k.startswith(base + ".")) / 1e9
        elif kind == "errors":
            out[metric] = errors.get(base, 0)
        elif kind == "calls":
            out[metric] = calls.get(base, 0)
        elif kind == "total_s":
            out[metric] = total.get(base, 0) / 1e9
        elif kind == "self_s":
            out[metric] = self_ns.get(base, 0) / 1e9
        elif kind == "distinct_ratio":
            out[metric] = distinct.get(base, 0) / calls[base] if calls.get(base) else 0.0
        elif kind == "terms":
            out[metric] = terms
        elif kind == "miss_ratio":
            out[metric] = special_miss / calls[base] if calls.get(base) else 0.0
        else:
            raise ValueError(metric)
    return out


def main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    recorder.op = 0
    from hyperreg.cli import main as cli_main
    try:
        return cli_main(cli_argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
