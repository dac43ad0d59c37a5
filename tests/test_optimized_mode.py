"""Argument and cache checks hold under `python -O`, which strips
`assert`: each entry point below raises its own exception for a bad
argument, and a cache load refuses a non-canonical body and a broken
series prefix."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# each case prints the name and message of the exception it raised, or
# "returned"
_PROBE = """
import hashlib, json, os, sys
from qmetallic import cache, logbehaviour, rna
from qmetallic.metallic import coeffs_p_recurrence

assert False, "assert statements run: not an optimized interpreter"


def signed_entry(n, body):
    # an entry whose header and hash are right for its body
    d = sys.argv[2]
    header = {"format_version": cache.FORMAT_VERSION, "n": n,
              "engine": "precurrence",
              "sha256": hashlib.sha256(body).hexdigest()}
    with open(os.path.join(d, f"coeffs-n{n}-precurrence.txt"), "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\\n" + body)
    return lambda: cache.cache_load((n, "precurrence"), d)


cases = {
    "second_differences": lambda: logbehaviour.second_differences(
        [1, 2, 3], 0, 2),
    "_cache_path": lambda: cache._cache_path((2, "nosuch"), sys.argv[1]),
    "cache_store": lambda: cache.cache_store(
        (3, "precurrence"), coeffs_p_recurrence(2, 20), sys.argv[1]),
    "_brute_structures": lambda: rna._brute_structures(
        rna._BRUTE_BUDGET + 1, 1),
    "non_canonical_entry": signed_entry(1, b"1\\n0\\n1-2\\n"),
    "bad_prefix": signed_entry(2, b"1\\n1\\n0\\n5\\n2\\n"),
}
seen = {}
for name, call in cases.items():
    try:
        call()
        seen[name] = ["returned", ""]
    except Exception as exc:
        seen[name] = [type(exc).__name__, str(exc)]
print(json.dumps(seen))
"""


def test_argument_checks_survive_optimized_mode(tmp_path):
    empty, entries = tmp_path / "empty", tmp_path / "entries"
    empty.mkdir()
    entries.mkdir()
    env = dict(os.environ, QMETALLIC_CACHE_DIR=str(empty), HOME=str(empty))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _PROBE, str(empty), str(entries)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert {name: kind for name, (kind, _) in seen.items()} == {
        "second_differences": "ValueError",
        "_cache_path": "ValueError",
        "cache_store": "ValueError",
        "_brute_structures": "BudgetExceeded",
        "non_canonical_entry": "CacheCorrupt",
        "bad_prefix": "CacheCorrupt",
    }
    assert "not canonical" in seen["non_canonical_entry"][1]
    assert "structural invariant" in seen["bad_prefix"][1]
    assert os.listdir(empty) == []
