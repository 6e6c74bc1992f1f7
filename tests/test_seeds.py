import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hazardlens.seeds import child_seed


def hashlib_child_seed(seed, *labels) -> int:
    text = repr(int(seed)) + "/" + "/".join(str(part) for part in labels)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


@given(
    seed=st.integers(-(2**70), 2**70),
    labels=st.lists(st.one_of(st.text(), st.integers(), st.floats(allow_nan=False)), max_size=5),
)
def test_child_seed_equals_the_hashlib_derivation(seed, labels):
    assert child_seed(seed, *labels) == hashlib_child_seed(seed, *labels)


# Each branch of the seeds module's SHA-256 import, reached by making the
# names before it unimportable. The interpreter has either _sha2 (3.12+) or
# _sha256 (3.10, 3.11); the one it lacks is stood in for by a wrapper of
# hashlib's, so every branch runs on any interpreter.
PROBE = """
import hashlib, importlib, sys, types
target, blocked, path = sys.argv[1], sys.argv[2].split(), sys.argv[3]
for name in blocked:
    sys.modules[name] = None  # `import name` raises ImportError
if target != "hashlib":
    try:
        importlib.import_module(target)
    except ImportError:
        sys.modules[target] = types.ModuleType(target)
        sys.modules[target].sha256 = lambda data=b"": hashlib.sha256(data)
from hazardlens import report, seeds
assert seeds.sha256 is sys.modules[target].sha256, seeds.sha256
for labels in [(), ("job", "ash", "heat"), ("folds", 3), ("\\u00e9t\\u00e9",)]:
    text = "17/" + "/".join(map(str, labels))
    want = int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")
    assert seeds.child_seed(17, *labels) == want, labels
data = open(path, "rb").read()
assert report.file_sha256(path) == hashlib.sha256(data).hexdigest()
"""


@pytest.mark.parametrize(
    "target, blocked", [("_sha2", ""), ("_sha256", "_sha2"), ("hashlib", "_sha2 _sha256")]
)
def test_every_sha256_import_branch_gives_hashlibs_digests(tmp_path, target, blocked):
    path = tmp_path / "blob"
    path.write_bytes(bytes(range(256)) * 300)  # longer than one 64 KiB chunk
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-c", PROBE, target, blocked, str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
