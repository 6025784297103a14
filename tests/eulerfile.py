"""Euler tables as the JSON-lines text `euler_ingest` reads, for tests that
write spec files."""

from __future__ import annotations

import json


def to_jsonl(table) -> str:
    """One {"p": p, "factor": [1, c1, ...]} line per prime of table, ascending."""
    return "".join(json.dumps({"p": p, "factor": table.factors[p]}, sort_keys=True) + "\n"
                   for p in sorted(table.factors))
