"""SHA-256 from CPython's built-in module: ``hashlib`` would load
OpenSSL's libcrypto (~3.5 MB of RSS) for the same digests."""

import json

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256


def stable_hash(obj, default=None) -> str:
    """SHA-256 hex digest of ``obj``'s canonical JSON."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=default)
    return sha256(blob.encode("utf-8")).hexdigest()
