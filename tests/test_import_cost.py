"""Start-up cost: importing the CLI, and running a command in the same
interpreter, loads none of `dataclasses`, its `inspect` import,
`datetime` or `mpmath`.  The first three together cost a fresh process
about 25 ms, more than some commands' own work, so a command that pulled
one of them in would only move that cost from start-up into the command;
`mpmath` alone cost about 22 ms, and the package needs it nowhere (the
tests use it as their oracle)."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ABSENT = ("dataclasses", "inspect", "datetime", "mpmath")
COMMANDS = (
    ["verify", "--n", "1", "--L", "60"],
    ["asymptotics", "--n", "2"],
    ["coeffs", "--n", "2", "--L", "50"],
)

# prints, after the import and after each command, the exit code and which
# of ABSENT are loaded
_PROBE = """
import contextlib, io, json, sys
import qmetallic.cli
absent, commands = json.loads(sys.argv[1])
seen = [["import", 0, [m for m in absent if m in sys.modules]]]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = qmetallic.cli.main(argv)
    seen.append([" ".join(argv), code, [m for m in absent if m in sys.modules]])
print(json.dumps(seen))
"""


def test_cli_and_its_commands_import_no_dataclasses_inspect_or_datetime(tmp_path):
    env = dict(os.environ, QMETALLIC_CACHE_DIR=str(tmp_path), HOME=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps([ABSENT, COMMANDS])],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert [step for step, _, _ in seen] == (
        ["import"] + [" ".join(argv) for argv in COMMANDS])
    assert all(code == 0 for _, code, _ in seen), seen
    assert all(loaded == [] for _, _, loaded in seen), seen
