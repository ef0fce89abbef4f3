"""Digest-verified download with a content-addressed local cache.

``fetch_dataset(url, expected_digest)`` downloads a payload, verifies its
cryptographic digest, and stores it under ``<cache>/<algo>/<hexdigest>``.
A repeat call with the same digest is served from the cache with no
network I/O.  The cache directory is, in order of preference:
``$SEPARABILITY_CACHE``, ``$XDG_CACHE_HOME/separability``, or
``~/.cache/separability``.
"""

from __future__ import annotations

import os
from pathlib import Path

from .errors import FetchError, IntegrityError

__all__ = ["CACHE_ENV", "cache_dir", "fetch_dataset"]

CACHE_ENV = "SEPARABILITY_CACHE"


def cache_dir() -> Path:
    """Resolve the local cache directory (not created until needed)."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "separability"


def _parse_digest(expected_digest: str) -> tuple[str, str]:
    """Split "algo:hex" (bare hex means sha256) and sanity-check both."""
    import hashlib  # here, not at module level: only a fetch needs it

    if not isinstance(expected_digest, str) or not expected_digest.strip():
        raise FetchError("expected digest must be a non-empty string")
    text = expected_digest.strip().lower()
    algo, _, hexdigest = text.rpartition(":")
    if not algo:
        algo = "sha256"
    if algo not in hashlib.algorithms_available:
        raise FetchError(f"unsupported digest algorithm {algo!r}")
    expected_len = hashlib.new(algo).digest_size * 2
    if len(hexdigest) != expected_len or any(c not in "0123456789abcdef" for c in hexdigest):
        raise FetchError(
            f"digest {hexdigest!r} is not a {expected_len}-character hex string for {algo}"
        )
    return algo, hexdigest


def _digest_of(data: bytes, algo: str) -> str:
    import hashlib

    h = hashlib.new(algo)
    h.update(data)
    return h.hexdigest()


def fetch_dataset(
    url: str,
    expected_digest: str,
    cache: Path | str | None = None,
    timeout: float = 60.0,
) -> bytes:
    """Return the payload at ``url``, verified against ``expected_digest``.

    The digest string is "algo:hexdigest" or a bare sha256 hex string.  A
    verified copy is kept at ``<cache>/<algo>/<hexdigest>`` and reused on
    later calls regardless of URL.  Network failures raise ``FetchError``;
    a digest mismatch raises ``IntegrityError`` and caches nothing.
    """
    algo, hexdigest = _parse_digest(expected_digest)
    root = Path(cache) if cache is not None else cache_dir()
    path = root / algo / hexdigest

    if path.is_file():
        data = path.read_bytes()
        if _digest_of(data, algo) == hexdigest:
            return data
        path.unlink()  # corrupted cache entry; fall through to refetch

    # imported here, not at module level: urllib.request pulls in ssl and
    # http.client, which every other CLI command would pay for at start-up
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            data = resp.read()
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise FetchError(f"could not fetch {url}: {exc}") from None

    actual = _digest_of(data, algo)
    if actual != hexdigest:
        raise IntegrityError(
            f"digest mismatch for {url}: expected {algo}:{hexdigest}, got {algo}:{actual}"
        )

    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)
    return data
