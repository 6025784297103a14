"""Cached fetch of L-function objects by label.

The response body of the LMFDB API, {"data": [{"degree": d, "euler_factors":
[[p, [1, c1, ...]], ...]}, ...]}, is stored verbatim on disk keyed by the
urlencoded label, with a sidecar recording the URL and fetch time; re-fetch
is a cache hit (bit-identical).  Offline mode never touches the network.

Each file is written to a temporary name and moved into place, the body
before its sidecar, so a crash part-way leaves either no entry or a whole
one.  A cached body that does not decode, or that is not a usable Euler
table, counts as a miss.  A fresh body that is neither raises EulerError and
is not stored.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

from .euler import EulerError, EulerFactorTable, _json_int, write_atomic

__all__ = ["lmfdb_fetch", "FetchError", "NotFoundError", "ENDPOINT_TEMPLATE"]

ENDPOINT_TEMPLATE = "https://www.lmfdb.org/api/lfunc_lfunctions/?label={label}&_format=json"


class FetchError(OSError):
    """Network-level failure (distinct from a missing object)."""


class NotFoundError(FetchError):
    """The endpoint answered but has no such label."""


def _cache_paths(label: str, cache_dir) -> tuple:
    enc = urllib.parse.quote(label, safe="")
    base = Path(cache_dir) / "lmfdb"
    return base / f"{enc}.json", base / f"{enc}.meta.json"


def lmfdb_fetch(label: str, cache_dir, offline: bool = False,
                opener=None) -> EulerFactorTable:
    """Fetch (or read from cache) the Euler data for a label.

    `opener` is a callable url -> bytes, injectable for tests; the default
    uses urllib with three attempts and backoff.
    """
    body_path, meta_path = _cache_paths(label, cache_dir)
    if body_path.exists():
        doc = _decode(body_path.read_bytes())
        if doc is not None:
            try:
                return _table(doc, label, provenance=f"cache:{body_path}")
            except (EulerError, NotFoundError):
                pass
    if offline:
        raise NotFoundError(f"offline mode and no cached response for {label!r}")
    url = ENDPOINT_TEMPLATE.format(label=urllib.parse.quote(label, safe=""))
    body = (opener or _open_url)(url)
    doc = _decode(body)
    if doc is None:
        raise EulerError(f"unparseable response body for {label!r}")
    table = _table(doc, label, provenance=f"web:{url}")
    body_path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(body_path, body)
    write_atomic(meta_path, json.dumps(
        {"url": url, "fetched_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
         "label": label}, sort_keys=True).encode("utf-8"))
    return table


def _open_url(url: str) -> bytes:
    delay = 1.0
    last = None
    for _ in range(3):
        try:
            with urllib.request.urlopen(url, timeout=30) as resp:
                return resp.read()
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                raise NotFoundError(f"label not found at {url}") from exc
            last = exc
        except urllib.error.URLError as exc:
            last = exc
        time.sleep(delay)
        delay *= 2
    raise FetchError(f"network failure fetching {url}: {last}")


def _decode(body: bytes):
    """The JSON document in body, or None if it does not decode."""
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


def _table(doc, label: str, provenance: str) -> EulerFactorTable:
    """The table of the first row of an LMFDB API body; NotFoundError when it
    has no rows, EulerError when it is not of that shape."""
    rows = doc.get("data") if isinstance(doc, dict) else None
    if not isinstance(rows, list):
        raise EulerError(f"unrecognized response shape for {label!r}")
    if not rows:
        raise NotFoundError(f"no data rows for label {label!r}")
    rec = rows[0]
    try:
        degree = _json_int(rec.get("degree", 0))
        factors = {_json_int(p): [_json_int(c) for c in fac]
                   for p, fac in rec.get("euler_factors", [])}
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise EulerError(f"malformed response for {label!r}: {exc}") from None
    return EulerFactorTable(factors, degree, provenance=provenance)
