"""The lean SHA-256 of :mod:`repro.digest`: the same digests as
``hashlib``'s, and the keys earlier versions wrote to disk still hit.

The pinned hex values below were computed with ``hashlib`` before the
package stopped importing it.  A cache entry is found by exactly these
values, so a mismatch means old caches miss.

Runs under pytest, or as a plain script on an interpreter without it::

    PYTHONPATH=src python tests/test_digest.py
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

from repro import digest, make_config
from repro.core.diskcache import point_key

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: FIPS 180-2 test messages (and the empty one) with their SHA-256.
VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    ),
]


def test_fips_vectors_match_hashlib():
    for message, expected in VECTORS:
        assert digest.sha256(message).hexdigest() == expected
        assert hashlib.sha256(message).hexdigest() == expected


def test_megabyte_of_random_bytes_matches_hashlib():
    data = random.Random(21).randbytes(1 << 20)
    assert digest.sha256(data).digest() == hashlib.sha256(data).digest()


def test_builtin_module_not_openssl_on_cpython():
    if platform.python_implementation() != "CPython":
        return
    assert type(digest.sha256(b"")).__module__ in ("_sha2", "_sha256")


def test_hashlib_fallback_without_builtin_module():
    code = (
        "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from repro import digest\n"
        "print(type(digest.sha256(b'')).__module__, digest.sha256(b'abc').hexdigest())"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out == ["_hashlib", VECTORS[1][1]]


def test_stable_hash_is_sha256_of_canonical_json():
    obj = {"b": [1, 2.5, None], "a": {"z": "é", "y": (3, 4)}}
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert digest.stable_hash(obj) == hashlib.sha256(blob.encode("utf-8")).hexdigest()
    odd = {"x": frozenset()}
    blob = json.dumps(odd, sort_keys=True, separators=(",", ":"), default=repr)
    assert digest.stable_hash(odd, default=repr) == hashlib.sha256(blob.encode()).hexdigest()


def test_disk_cache_key_is_unchanged():
    config = make_config("pref_compr", n_cores=4, scale=8)
    assert point_key(config, "zeus", 0, 1500, 1500) == (
        "c03b6a84ea858887a53b7ec2e8ec3f02b7a1855989978ddbd255c551ea088caf"
    )


if __name__ == "__main__":
    tests = [name for name in sorted(globals()) if name.startswith("test_")]
    for name in tests:
        globals()[name]()
    print(f"{len(tests)} digest checks passed on Python {platform.python_version()}")
