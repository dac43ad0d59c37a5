"""Byte-identity of CLI output: each command in cli_digests.json is replayed
with a fresh cache directory, and its exit code and the sha256 of its stdout
must match the recorded ones.

The recorded outputs cover every subcommand except `tables`, whose manifests
carry timestamps, and the help text of the top parser, of a subcommand and
of `rna` and its nested commands, printed at a fixed width of 80 columns.
When an output change is intended, regenerate the file and say so in the
change log:

    PYTHONPATH=src python3 tests/test_cli_digests.py

which prints each entry whose exit code or digest changed, to be named
there.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from qmetallic.cli import main

DIGESTS = Path(__file__).with_name("cli_digests.json")

COMMANDS = [
    ["coeffs", "--n", "1", "--L", "30"],
    ["coeffs", "--n", "2", "--L", "20", "--format", "csv"],
    ["coeffs", "--n", "3", "--L", "25", "--engine", "closed"],
    ["coeffs", "--n", "4", "--L", "8", "--engine", "closed"],
    ["verify", "--n", "1", "--L", "60"],
    ["verify", "--n", "2", "--L", "60"],
    ["verify", "identities", "--n", "3", "--order", "60"],
    ["verify", "--golden"],
    ["asymptotics", "--n", "2"],
    ["radius", "--n", "3"],
    ["radius", "--n", "5", "--format", "csv"],
    ["identities", "--n", "1", "--order", "60"],
    ["identities", "--n", "1", "--order", "4"],
    ["rna", "count", "--size", "10"],
    ["rna", "grid", "--max-size", "12", "--max-rank", "3", "--format", "csv"],
    ["logconv", "--n", "19", "--lmax", "300"],
    ["logconv", "--n-range", "2..4", "--lmax", "200"],
    ["quantize", "--cf", "1;(1)*"],
    ["quantize", "--cf", "2;(1,1,1,4)*"],
    ["quantize", "--cf", "0;2,(1,1,1,4)*"],
    ["quantize", "--cf", "5;2"],
    ["hankel", "--n", "1", "--max-s", "2", "--max-j", "6"],
    ["coeffs", "--n", "3", "--L", "40", "--engine", "sqrt"],
    ["coeffs", "--n", "5", "--L", "40", "--engine", "conv"],
    ["quantize", "--cf", "3;7,15,1,292"],
    ["quantize", "--cf=-1;(2)*"],
    ["identities", "--n", "2", "--order", "80"],
    ["identities", "--n", "5", "--order", "60"],
    ["rna", "grid", "--max-size", "40", "--max-rank", "3"],
    ["rna", "count", "--size", "10", "--format", "csv"],
    ["quantize", "--cf", "3;(1,2,5)*"],
    ["coeffs", "--n", "7", "--L", "80"],
    ["coeffs", "--n", "12", "--L", "60", "--format", "csv"],
    ["coeffs", "--n", "1", "--L", "0"],
    ["coeffs", "--n", "3", "--L", "5"],
    ["coeffs", "--n", "5", "--L", "200"],
    ["coeffs", "--n", "1", "--L", "11000"],
    ["coeffs", "--n", "2", "--L", "3000", "--format", "csv"],
    ["verify", "--n", "6", "--L", "450"],
    ["coeffs", "--n", "1", "--L", "600", "--engine", "conv"],
    ["coeffs", "--n", "2", "--L", "500", "--engine", "sqrt"],
    ["identities", "--n", "12", "--order", "300"],
    ["verify", "--n", "1", "--L", "490"],
    ["radius", "--n", "19"],
    ["radius", "--n", "48", "--format", "csv"],
    ["asymptotics", "--n", "30"],
    ["--help"],
    ["coeffs", "--help"],
    ["rna", "--help"],
    ["rna", "count", "--help"],
    ["-h", "coeffs"],
]


def replay(argv, cache_dir):
    """(exit code, sha256 of stdout) of one command; help text is wrapped
    at 80 columns."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(["--cache-dir", str(cache_dir)] + list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_unchanged(argv, tmp_path):
    with open(DIGESTS) as fh:
        recorded = {tuple(e["argv"]): e for e in json.load(fh)}
    entry = recorded[tuple(argv)]
    assert replay(argv, tmp_path) == (entry["exit"], entry["stdout_sha256"])


if __name__ == "__main__":
    before = ({tuple(e["argv"]): e for e in json.loads(DIGESTS.read_text())}
              if DIGESTS.exists() else {})
    entries = []
    for argv in COMMANDS:
        with tempfile.TemporaryDirectory() as d:
            code, digest = replay(argv, d)
        entry = {"argv": argv, "exit": code, "stdout_sha256": digest}
        old = before.get(tuple(argv))
        if old != entry:
            was = ("new" if old is None
                   else f"{old['exit']} {old['stdout_sha256']}")
            sys.stdout.write(f"{' '.join(argv)}: {was} -> {code} {digest}\n")
        entries.append(entry)
    DIGESTS.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries)
                       + "\n]\n")
    sys.stdout.write(f"wrote {len(entries)} digests to {DIGESTS}\n")
