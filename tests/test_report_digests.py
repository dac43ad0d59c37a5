"""check_all's JSON reports and verify's stdout on broken inputs, pinned
by sha256.

Three kinds of broken input:

- the kappa store with one coefficient bumped, at every position
  0..2n+5 and by +1 and by -2, for n = 1..12, check_all at order 60 (one
  digest per n, over all positions and bumps);
- a group-action matrix of qnum with one entry moved by a monomial:
  RECIPROCAL's b entry plus q^7 (n = 1, 2, 5) and NEGATE's d entry plus
  q^9 (n = 2), check_all at order 60;
- the kappa store extended to L + 2n + 2 and bumped by +1 and by -2 at
  positions 2n+1, 2n+3, L-1, L and L+2n+1, for n = 1, 2, 5, 8: the exit
  code and stdout of `verify --n n --L 80`, each run with a fresh cache
  directory.  The positions from L on are read only by the identity suite.

The digests pin every report field, first_failure and checked_order
included, so a change in how the relations are compared must leave the
reports on failing runs as they were.  To regenerate, after an intended
change of the reports:

    PYTHONPATH=src python3 tests/test_report_digests.py

which prints each key whose digest changed, to be named in the change
log.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from qmetallic import identities, metallic
from qmetallic.cli import main
from qmetallic.identities import check_all
from qmetallic.series import monomial

DIGESTS = Path(__file__).with_name("report_digests.json")

L = 60
VERIFY_L = 80
BUMPS = (1, -2)
# (matrix name, row, column, added monomial (coefficient, exponent), indices)
MUTANTS = (
    ("RECIPROCAL", 0, 1, (1, 7), (1, 2, 5)),
    ("NEGATE", 1, 1, (1, 9), (2,)),
)


def _reports(n):
    return [r.to_json() for r in check_all(n, L)]


def _mutated(matrix, row, col, term):
    rows = [list(r) for r in matrix]
    rows[row][col] = rows[row][col] + monomial(*term)
    return tuple(tuple(r) for r in rows)


def bumped_store_reports(n):
    """[position, bump, reports] for every bump of every prefix position;
    the store is restored afterwards."""
    saved = metallic._tables
    clean = metallic.kappa_values(n, L + 2 * n + 2)
    out = []
    try:
        for j in range(2 * n + 6):
            for bump in BUMPS:
                vals = list(clean)
                vals[j] += bump
                metallic._tables = {n: vals}
                out.append([j, bump, _reports(n)])
    finally:
        metallic._tables = saved
    return out


def _verify_stdout(n):
    """[exit code, stdout] of verify --n n --L VERIFY_L, fresh cache."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as d, \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "--n", str(n), "--L", str(VERIFY_L),
                     "--cache-dir", d])
    return [code, out.getvalue()]


def bumped_store_verify(n):
    """[position, bump, exit code, stdout] of verify for each bump, from
    the prefix's last coefficient to the identity suite's deepest read,
    L + 2n + 1; the store is restored afterwards."""
    saved = metallic._tables
    clean = metallic.kappa_values(n, VERIFY_L + 2 * n + 2)
    out = []
    try:
        for j in (2 * n + 1, 2 * n + 3, VERIFY_L - 1, VERIFY_L,
                  VERIFY_L + 2 * n + 1):
            for bump in BUMPS:
                vals = list(clean)
                vals[j] += bump
                metallic._tables = {n: vals}
                out.append([j, bump] + _verify_stdout(n))
    finally:
        metallic._tables = saved
    return out


def mutant_reports(name, row, col, term, n):
    """check_all with identities' copy of qnum.<name> mutated."""
    real = getattr(identities, name)
    setattr(identities, name, _mutated(real, row, col, term))
    try:
        return _reports(n)
    finally:
        setattr(identities, name, real)


def cases():
    for n in range(1, 13):
        yield f"bumped store n={n}", lambda n=n: bumped_store_reports(n)
    for name, row, col, term, ns in MUTANTS:
        for n in ns:
            yield (f"{name}[{row}][{col}] + q^{term[1]} n={n}",
                   lambda a=(name, row, col, term, n): mutant_reports(*a))
    for n in (1, 2, 5, 8):
        yield (f"verify bumped store n={n}",
               lambda n=n: bumped_store_verify(n))


def digest(make):
    return hashlib.sha256(json.dumps(make()).encode()).hexdigest()


CASES = dict(cases())


@pytest.mark.parametrize("key", list(CASES))
def test_reports_unchanged(key):
    with open(DIGESTS) as fh:
        recorded = json.load(fh)
    assert digest(CASES[key]) == recorded[key]


if __name__ == "__main__":
    before = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    entries = {key: digest(make) for key, make in CASES.items()}
    for key, new in entries.items():
        if before.get(key) != new:
            sys.stdout.write(f"{key}: {before.get(key, 'new')} -> {new}\n")
    DIGESTS.write_text(json.dumps(entries, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(entries)} digests to {DIGESTS}\n")
