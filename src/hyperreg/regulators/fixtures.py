"""Fixture files: expected ratios and externally supplied L-values.

fixtures/<case>.json holds a list of entries
  {"t": "p/q" | null, "expected_ratio": "p/q" | null,
   "L_value": decimal string | null, "L_derivative_order": 0|1|2}
plus free-form provenance keys.  The loader refuses a t, expected ratio or
L-value of another JSON type or form (a number or a boolean among them), and
`fixture_L_value` an L-value carrying fewer digits than the precision target.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from ..mpnum import PrecisionPolicy

__all__ = ["FixtureError", "load_fixture", "fixture_L_value"]


class FixtureError(ValueError):
    pass


_DECIMAL = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


def load_fixture(case: str, fixtures_dir) -> list:
    path = Path(fixtures_dir) / f"{case}.json"
    if not path.exists():
        return []
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FixtureError(f"{path}: {exc}") from None
    if not isinstance(doc, list):
        raise FixtureError(f"{path}: expected a list of entries")
    out = []
    for i, row in enumerate(doc):
        if not isinstance(row, dict):
            raise FixtureError(f"{path}: entry {i} is not an object")
        entry = dict(row)
        for key in ("t", "expected_ratio"):
            raw = row.get(key)
            try:
                if raw is not None and not isinstance(raw, str):
                    raise TypeError("neither null nor a 'p/q' string")
                entry[key] = None if raw is None else Fraction(raw)
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise FixtureError(f"{path}: entry {i}: cannot parse {key} "
                                   f"{json.dumps(raw)}: {exc}") from None
        raw = row.get("L_value")
        if raw is not None and not (isinstance(raw, str) and _DECIMAL.fullmatch(raw)):
            raise FixtureError(f"{path}: entry {i}: L_value {raw!r} is neither null "
                               "nor a decimal string")
        out.append(entry)
    return out


def _decimal_digits(text: str) -> int:
    mantissa = text.split("e")[0].split("E")[0].lstrip("+-")
    return len(mantissa.replace(".", "").lstrip("0"))


def fixture_L_value(entry: dict, pol: PrecisionPolicy):
    """The stored L-value as an mpf, or None; refuses underprecise fixtures."""
    raw = entry.get("L_value")
    if raw is None:
        return None
    if _decimal_digits(raw) < pol.target_digits:
        raise FixtureError(
            f"fixture L-value has {_decimal_digits(raw)} digits; "
            f"policy requires {pol.target_digits}")
    return pol.ctx.mpf(raw)
