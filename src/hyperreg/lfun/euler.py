"""Euler-factor tables: ingestion and expansion into Dirichlet coefficients.

Local factors are ingested from JSON-lines files (or the web cache); they
are trusted as given, with provenance recorded.  Nothing here ever
computes a local factor from hypergeometric data.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..mpnum import Record

__all__ = ["EulerFactorTable", "euler_ingest", "dirichlet_coefficients", "EulerError"]


class EulerError(ValueError):
    pass


def _json_int(x) -> int:
    """x when it is a JSON integer; ValueError for anything else, a float
    such as 3.9 and the booleans true and false included."""
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return x


def _primes_upto(n: int) -> list:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [i for i, v in enumerate(sieve) if v]


class EulerFactorTable(Record):
    __slots__ = ("factors", "degree", "provenance")

    def __init__(self, factors: dict, degree: int, provenance: str = ""):
        self.factors = factors          # prime -> [1, c1, c2, ...] ints
        self.degree = degree            # motive degree (good-prime degree)
        self.provenance = provenance
        for p, f in factors.items():
            if not f or f[0] != 1:
                raise EulerError(f"factor at p={p} must have constant term 1")
            if len(f) - 1 > degree:
                raise EulerError(f"factor at p={p} exceeds degree {degree}")

    @property
    def p_max(self) -> int:
        return max(self.factors) if self.factors else 0


def write_atomic(path, data: bytes):
    """Write data to a temporary file beside path, then move it into place,
    so a reader sees the whole file or none; the temporary file is removed
    if that fails.  The directory must exist."""
    import tempfile
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=os.path.basename(path),
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def euler_ingest(path, degree: int) -> EulerFactorTable:
    """Read a JSONL file of {"p": int, "factor": [1, c1, ...]} lines into a
    table of the given degree; p and every c must be JSON integers."""
    path = Path(path)
    factors = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                p = _json_int(obj["p"])
                fac = [_json_int(c) for c in obj["factor"]]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise EulerError(f"{path}:{lineno}: malformed line ({exc})") from None
            if not fac or fac[0] != 1:
                raise EulerError(f"{path}:{lineno}: factor constant term must be 1")
            if p in factors:
                raise EulerError(f"{path}:{lineno}: duplicate prime {p}")
            factors[p] = fac
    return EulerFactorTable(factors, degree, provenance=str(path))


def dirichlet_coefficients(table: EulerFactorTable, M: int) -> list:
    """a_1..a_M (index 0 unused) from 1/f_p(p^-s) expansions; EulerError
    unless M >= 1, the table has a factor at every prime up to M and none
    at a non-prime up to M."""
    if M < 1:
        raise EulerError(f"no Euler factors to expand (P_max={table.p_max})")
    primes = _primes_upto(M)
    missing = [p for p in primes if p not in table.factors]
    if missing:
        raise EulerError(f"missing Euler factors for primes {missing[:5]}..."
                         f" (P_max={table.p_max}, need {M})")
    known = set(primes)
    nonprime = sorted(p for p in table.factors if p <= M and p not in known)
    if nonprime:
        raise EulerError(f"Euler factors at non-primes {nonprime[:5]}")
    a = [0] * (M + 1)
    a[1] = 1
    for p in primes:
        f = table.factors[p]
        # the powers p^e <= M, and 1/f in x = p^-s through x^emax
        pe = [1]
        while pe[-1] * p <= M:
            pe.append(pe[-1] * p)
        emax = len(pe) - 1
        inv = [1] + [0] * emax
        for n in range(1, emax + 1):
            acc = 0
            for i in range(1, min(n, len(f) - 1) + 1):
                acc += f[i] * inv[n - i]
            inv[n] = -acc
        # multiply into a[] along p-powers (standard multiplicative sieve);
        # only n <= M // p have a multiple n p^e <= M: O(M log log M) over all p
        for n in range(M // p, 0, -1):
            if n % p == 0:
                continue
            for e in range(1, len(pe)):
                if n * pe[e] > M:
                    break
                a[n * pe[e]] = a[n] * inv[e]
    return a

