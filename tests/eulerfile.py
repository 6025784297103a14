"""Euler tables for tests: built from a real Dirichlet character, written as
the JSON-lines text `euler_ingest` reads, and the brute-force
multiplicativity check of their Dirichlet coefficients."""

from __future__ import annotations

import json
from math import gcd

from hyperreg.lfun.euler import EulerError, EulerFactorTable, _primes_upto


def euler_from_character(chi, P: int) -> EulerFactorTable:
    """Degree-1 table for a Dirichlet character with exact +-1/0 values
    (real characters only)."""
    factors = {}
    for p in _primes_upto(P):
        ang = chi.angles[p % chi.modulus]
        if ang is None:
            factors[p] = [1]
        elif ang == 0:
            factors[p] = [1, -1]
        elif 2 * ang == 1:
            factors[p] = [1, 1]
        else:
            raise EulerError("euler_from_character needs a real character")
    return EulerFactorTable(factors, 1, provenance=f"character mod {chi.modulus}")


def check_multiplicativity(a: list) -> bool:
    """Brute-force a_{mn} = a_m a_n for gcd(m,n) = 1."""
    M = len(a) - 1
    for m in range(2, M + 1):
        for n in range(2, M // m + 1):
            if gcd(m, n) == 1 and a[m * n] != a[m] * a[n]:
                return False
    return True


def to_jsonl(table) -> str:
    """One {"p": p, "factor": [1, c1, ...]} line per prime of table, ascending."""
    return "".join(json.dumps({"p": p, "factor": table.factors[p]}, sort_keys=True) + "\n"
                   for p in sorted(table.factors))
