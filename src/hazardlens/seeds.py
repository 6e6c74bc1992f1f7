"""Stable seed derivation for independent, order-free random streams."""

from __future__ import annotations

import hashlib


def child_seed(seed: int, *labels) -> int:
    """Derive a 64-bit seed from a parent seed and a path of labels.

    The derivation hashes the textual path, so it is stable across runs,
    platforms, and submission order of parallel jobs.
    """
    text = repr(int(seed)) + "/" + "/".join(str(part) for part in labels)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
