"""Argument checks hold under `python -O`, which strips `assert`: each
entry point below raises its own exception for a bad argument."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# each case prints the name of the exception it raised, or "returned"
_PROBE = """
import json, sys
from qmetallic import cache, logbehaviour, rna
from qmetallic.metallic import coeffs_p_recurrence

assert False, "assert statements run: not an optimized interpreter"
cases = {
    "second_differences": lambda: logbehaviour.second_differences(
        [1, 2, 3], 0, 2),
    "_cache_path": lambda: cache._cache_path((2, "nosuch"), sys.argv[1]),
    "cache_store": lambda: cache.cache_store(
        (3, "precurrence"), coeffs_p_recurrence(2, 20), sys.argv[1]),
    "_brute_structures": lambda: rna._brute_structures(
        rna._BRUTE_BUDGET + 1, 1),
}
seen = {}
for name, call in cases.items():
    try:
        call()
        seen[name] = "returned"
    except Exception as exc:
        seen[name] = type(exc).__name__
print(json.dumps(seen))
"""


def test_argument_checks_survive_optimized_mode(tmp_path):
    env = dict(os.environ, QMETALLIC_CACHE_DIR=str(tmp_path),
               HOME=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _PROBE, str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "second_differences": "ValueError",
        "_cache_path": "ValueError",
        "cache_store": "ValueError",
        "_brute_structures": "BudgetExceeded",
    }
    assert os.listdir(tmp_path) == []
