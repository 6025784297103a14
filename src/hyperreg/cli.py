"""Command-line surface: period, regulator, verify, lfun, fetch, hadamard.

Exit codes: 0 success, 2 usage/parse error, 3 numerical divergence,
4 verification failure.  All rational inputs are exact "p/q" strings;
decimals are rejected for t-points.  A key=value config file may supply
defaults for digits, max_terms, mode, fixtures and cache; explicit flags
win.

The cache directory is --cache (or the config key cache), else
HYPERREG_CACHE, else .hyperreg-cache in the working directory.  `fetch`
keeps web responses in its lmfdb/ and `lfun` keeps built AFE kernels in its
kernels/, one file per (gamma data, s, precision, mpmath version and
backend, kernel build code); a corrupt or stale file is rebuilt, and the
directory is safe to delete.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .mpnum import DivergenceError, PrecisionPolicy, TailBoundError, ratio_sum

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3
EXIT_VERIFY = 4
CONFIG_KEYS = ("digits", "max_terms", "mode", "fixtures", "cache")
MODES = ("exact", "floating")


class CliError(Exception):
    def __init__(self, msg, code=EXIT_USAGE):
        super().__init__(msg)
        self.code = code


def _parse_rational(text: str) -> Fraction:
    if not text or any(ch in text for ch in ".eE"):
        raise CliError(f"t-points must be exact rationals 'p/q', got {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse rational {text!r}: {exc}")


def _load_config(path):
    out = {}
    if not path:
        return out
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(f"config line without '=': {line!r}")
                k, v = (x.strip() for x in line.split("=", 1))
                if k not in CONFIG_KEYS:
                    raise CliError(f"unknown config key {k!r}; "
                                   f"allowed: {', '.join(CONFIG_KEYS)}")
                out[k] = v
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config: {exc}")
    return out


class _Parser(argparse.ArgumentParser):
    """argparse's own errors as one 'error: ...' line and exit 2, no usage block."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)

    def _get_values(self, action, arg_strings):
        # argparse drops the '--' of `--opt=--` and would hand on an empty list
        if arg_strings == ["--"] and action.option_strings and action.nargs is None:
            self.error(f"argument {'/'.join(action.option_strings)}: expected one argument")
        return super()._get_values(action, arg_strings)


def _add_common(parser, suppress=False):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", help="key=value defaults file", default=d)
    parser.add_argument("--digits", type=int, default=d)
    parser.add_argument("--max-terms", type=int, default=d)
    parser.add_argument("--mode", choices=MODES, default=d)
    parser.add_argument("--fixtures", default=d)
    parser.add_argument("--cache", default=d,
                        help="cache directory: web responses for fetch, AFE kernels for lfun")
    parser.add_argument("--offline", action="store_true",
                        default=argparse.SUPPRESS if suppress else False)
    parser.add_argument("--json", action="store_true", dest="as_json",
                        default=argparse.SUPPRESS if suppress else False)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    _add_common(common, suppress=True)
    ap = _Parser(prog="hyperreg", description=__doc__)
    _add_common(ap)
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=lambda **kw: _Parser(parents=[common], **kw))

    p = sub.add_parser("period", help="hypergeometric coefficient stream")
    p.add_argument("data", help="'a1,..;b1,..' or a gamma vector via --gamma "
                               "(negative entries need a '--' separator), "
                               "or the literal appB:pi0")
    p.add_argument("--gamma", action="store_true",
                   help="interpret data as a gamma vector")
    p.add_argument("--var", choices=("z", "t"), default="z")
    p.add_argument("-K", type=int, default=8)
    p.add_argument("--point", default=None, help="evaluate at this rational")

    r = sub.add_parser("regulator", help="case-study regulator report")
    r.add_argument("--case", required=True)
    r.add_argument("--t", required=True,
                   help="rational t-point, or a comma-separated list "
                        "(evaluated in input order)")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=("identities", "ode", "continuation",
                                     "ratios", "all"))

    lf = sub.add_parser("lfun", help="evaluate an L-function spec")
    lf.add_argument("spec", help="JSON file with degree/weight/conductor/"
                                 "gamma_shifts/sign/euler_path[/poles]")
    lf.add_argument("--s", required=True)
    lf.add_argument("--order", type=int, choices=(0, 1, 2), default=0)

    f = sub.add_parser("fetch", help="populate the web cache for a label")
    f.add_argument("label")

    h = sub.add_parser("hadamard", help="run the annulus-residue engines")
    h.add_argument("which", choices=("k4", "k2_R0"))
    h.add_argument("-K", type=int, default=20)
    return ap


def _policy(args) -> PrecisionPolicy:
    digits = 30 if args.digits is None else args.digits
    max_terms = 4000 if args.max_terms is None else args.max_terms
    if digits < 1:
        raise CliError(f"--digits must be at least 1, got {digits}")
    if max_terms < 16:
        raise CliError(f"--max-terms must be at least 16, got {max_terms}")
    return PrecisionPolicy(digits, max_terms=max_terms)


def _cache_dir(args) -> str:
    return args.cache or os.environ.get("HYPERREG_CACHE") or ".hyperreg-cache"


def cmd_period(args, pol: PrecisionPolicy):
    if args.K < 1:
        raise CliError(f"-K is the number of coefficients and must be at least 1, got {args.K}")
    if args.data == "appB:pi0":
        from .regulators.appb import pi0_relative_coefficients
        coeffs = pi0_relative_coefficients(args.K)
        return {"series": "appB-pi0-relative",
                "coefficients": [str(c) for c in coeffs]}
    from . import hgdata
    try:
        if args.gamma:
            h, C = hgdata.from_gamma(hgdata.parse_gamma(args.data))
        else:
            h = hgdata.parse_hg(args.data)
            C = hgdata.scale_C(h) if args.var == "t" else Fraction(1)
    except hgdata.HGError as exc:
        raise CliError(str(exc))
    scale = C if args.var == "t" else Fraction(1)
    coeffs = hgdata.coeff_stream(h, args.K, scale)
    if args.mode == "floating":
        ctx = pol.ctx
        shown = [ctx.nstr(ctx.mpf(c.numerator) / c.denominator, pol.target_digits)
                 for c in coeffs]
    else:
        shown = [str(c) for c in coeffs]
    out = {"data": str(h), "var": args.var, "scale": str(scale),
           "mode": args.mode or "exact", "coefficients": shown}
    if args.point:
        t0 = _parse_rational(args.point)
        if t0 <= 0:
            raise CliError(f"--point must be positive, got {t0}")
        ctx = pol.ctx
        # t_0 = 1, t_(k+1)/t_k = scale t0 prod (k + a_j) / (k + b_j), as in coeff_stream
        val, tail, _ = ratio_sum(1, (scale * t0, h.a, h.b), pol, "period", flag="-K",
                                 count=args.K)
        out["value"] = ctx.nstr(val, pol.target_digits)
        out["tail_bound"] = ctx.nstr(tail, 3)
    return out


def cmd_regulator(args, pol: PrecisionPolicy):
    from .lfun.ratio import check_ratio_point, ratio_report
    from .regulators.reporting import CaseError
    case = args.case
    points = [_parse_rational(x) for x in args.t.split(",") if x.strip()]
    if not points:
        raise CliError("no t-points given")
    for t in points:        # every point is checked before any is computed
        try:
            check_ratio_point(case, t, pol)
        except CaseError as exc:
            raise CliError(str(exc))
        except DivergenceError as exc:
            raise CliError(str(exc), EXIT_DIVERGENCE)
    from .regulators.fixtures import FixtureError
    fixtures_dir = args.fixtures or "fixtures"
    try:
        docs = [ratio_report(case, t, pol, fixtures_dir).to_doc(pol) for t in points]
    except (DivergenceError, TailBoundError) as exc:
        raise CliError(str(exc), EXIT_DIVERGENCE)
    except CaseError as exc:
        raise CliError(str(exc), EXIT_VERIFY)
    except FixtureError as exc:
        raise CliError(str(exc))
    return docs[0] if len(docs) == 1 else docs


def cmd_verify(args, pol: PrecisionPolicy):
    from .regulators.fixtures import FixtureError
    from .verify import run_suite
    try:
        results, ok = run_suite(args.suite, pol, args.fixtures or "fixtures")
    except FixtureError as exc:
        raise CliError(str(exc))
    if not ok:
        _print_result(results, args.as_json)
        failed = [r["check"] for r in results if r["status"] not in ("pass", "skipped")]
        raise CliError(f"verification failed: {', '.join(failed)}", EXIT_VERIFY)
    return results


def cmd_lfun(args, pol: PrecisionPolicy):
    from .lfun.euler import EulerError
    from .lfun.motive import MotiveError, PointError, motive_L, spec_from_json
    try:
        s_val = Fraction(args.s)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse --s {args.s!r}: {exc}")
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        spec = spec_from_json(doc)
    except (OSError, KeyError, ValueError) as exc:
        raise CliError(f"bad spec file: {exc}")
    try:
        val, err = motive_L(spec, s_val, args.order, pol,
                            store=os.path.join(_cache_dir(args), "kernels"))
    except PointError as exc:
        raise CliError(str(exc))
    except EulerError as exc:       # no factors, or none at a prime below the largest
        raise CliError(f"bad spec file: {exc}")
    except MotiveError as exc:
        raise CliError(str(exc), EXIT_DIVERGENCE)
    return {"label": spec.label, "s": args.s, "order": args.order,
            "value": pol.ctx.nstr(val, pol.target_digits),
            "self_test_residual": pol.ctx.nstr(err, 3)}


def cmd_fetch(args, pol: PrecisionPolicy):
    from .lfun.euler import EulerError
    from .lfun.web import FetchError, lmfdb_fetch
    try:
        table = lmfdb_fetch(args.label, _cache_dir(args), offline=args.offline)
    except (FetchError, EulerError) as exc:
        raise CliError(str(exc), EXIT_DIVERGENCE)
    return {"label": args.label, "p_max": table.p_max,
            "primes": len(table.factors), "provenance": table.provenance}


def cmd_hadamard(args, pol: PrecisionPolicy):
    from .regulators.hadamard import hadamard_regulator
    from .regulators.reporting import CaseError
    if args.K < 0:
        raise CliError(f"-K must be non-negative, got {args.K}")
    try:
        out = hadamard_regulator(args.which, args.K)
    except CaseError as exc:
        raise CliError(str(exc), EXIT_VERIFY)
    return {"engine": args.which, "K": args.K,
            "series": out.to_doc(pol),
            "verified": "matches closed form coefficientwise"}


def _print_result(result, as_json: bool):
    print(json.dumps(result, sort_keys=True) if as_json
          else json.dumps(result, indent=1, sort_keys=True))


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = _load_config(args.config)
        for key in CONFIG_KEYS:
            if getattr(args, key, None) is None and key in cfg:
                val = cfg[key]
                if key in ("digits", "max_terms"):
                    try:
                        val = int(val)
                    except ValueError:
                        raise CliError(f"config {key} must be an integer, got {val!r}")
                if key == "mode" and val not in MODES:
                    raise CliError(f"config mode must be one of {', '.join(MODES)}, "
                                   f"got {val!r}")
                setattr(args, key, val)
        pol = _policy(args)
        handler = {
            "period": cmd_period, "regulator": cmd_regulator,
            "verify": cmd_verify, "lfun": cmd_lfun,
            "fetch": cmd_fetch, "hadamard": cmd_hadamard,
        }[args.command]
        result = handler(args, pol)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (DivergenceError, TailBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    _print_result(result, args.as_json)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
