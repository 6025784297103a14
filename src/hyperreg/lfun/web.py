"""Cached fetch of L-function objects by label.

The response body is stored verbatim on disk keyed by the urlencoded
label, with a sidecar recording the URL and fetch time; re-fetch is a
cache hit (bit-identical).  Offline mode never touches the network.

Each file is written to a temporary name and moved into place, the body
before its sidecar, so a crash part-way leaves either no entry or a whole
one.  A cached body that does not decode counts as a miss.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

from .euler import EulerError, EulerFactorTable, write_atomic

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
                opener=None, retries: int = 3) -> EulerFactorTable:
    """Fetch (or read from cache) the Euler data for a label.

    `opener` is a callable url -> bytes, injectable for tests; the default
    uses urllib with `retries` attempts and backoff.
    """
    body_path, meta_path = _cache_paths(label, cache_dir)
    if body_path.exists():
        doc = _decode(body_path.read_bytes())
        if doc is not None:
            return _table(doc, label, provenance=f"cache:{body_path}")
    if offline:
        raise NotFoundError(f"offline mode and no cached response for {label!r}")
    url = ENDPOINT_TEMPLATE.format(label=urllib.parse.quote(label, safe=""))
    if opener is None:
        opener = _default_opener(retries)
    body = opener(url)
    doc = _decode(body)
    if doc is None:
        raise EulerError(f"unparseable response body for {label!r}")
    body_path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(body_path, body)
    write_atomic(meta_path, json.dumps(
        {"url": url, "fetched_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
         "label": label}, sort_keys=True).encode("utf-8"))
    return _table(doc, label, provenance=f"web:{url}")


def _default_opener(retries: int):
    def open_url(url: str) -> bytes:
        delay = 1.0
        last = None
        for _ in range(max(1, retries)):
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
    return open_url


def _decode(body: bytes):
    """The JSON document in body, or None if it does not decode."""
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


def _table(doc, label: str, provenance: str) -> EulerFactorTable:
    # accept either our own JSONL-ish dict or the LMFDB API shape
    if isinstance(doc, dict) and "data" in doc:
        rows = doc["data"]
        if not rows:
            raise NotFoundError(f"no data rows for label {label!r}")
        rec = rows[0]
        factors = {}
        degree = int(rec.get("degree", 0))
        for p, fac in rec.get("euler_factors", []):
            factors[int(p)] = [int(c) for c in fac]
        return EulerFactorTable(factors, degree, provenance=provenance,
                                meta={"label": label})
    if isinstance(doc, dict) and "factors" in doc:
        factors = {int(p): [int(c) for c in fac] for p, fac in doc["factors"].items()}
        return EulerFactorTable(factors, int(doc.get("degree", 0)),
                                provenance=provenance, meta={"label": label})
    raise EulerError(f"unrecognized response shape for {label!r}")
