"""Stable seed derivation for independent, order-free random streams."""

from __future__ import annotations

# The interpreter's built-in SHA-256, so that a process which never trains
# does not load OpenSSL's libcrypto (about 3.6 MiB) through hashlib; CPython's
# random.py does the same. The digests are hashlib's.
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10-3.11
    except ImportError:
        from hashlib import sha256


def child_seed(seed: int, *labels) -> int:
    """Derive a 64-bit seed from a parent seed and a path of labels.

    The derivation hashes the textual path, so it is stable across runs,
    platforms, and submission order of parallel jobs.
    """
    text = repr(int(seed)) + "/" + "/".join(str(part) for part in labels)
    digest = sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
