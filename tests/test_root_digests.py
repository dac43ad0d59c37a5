"""Root sets of Q_n pinned to 30 digits, independent of their order.

For each index n (and a few at 512 bits) the sha256 of the sorted
30-digit strings of the roots, the dominant roots and their gamma
constants, together with the radius and the branch flag, must match the
recorded one.  Only the sets are pinned: not the order the roots are
listed in, and not the inclusion radius, whose trailing digits depend on
the Newton path.  To regenerate, after an intended change of the root
sets:

    PYTHONPATH=src python3 tests/test_root_digests.py

which prints each key whose digest changed, to be named in the change
log.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest
from mpmath import mp

from qmetallic.asymptotics import singularity_report

from mp_values import to_mp

DIGESTS = Path(__file__).with_name("root_digests.json")

CASES = [(n, 256) for n in range(1, 49)] + [(n, 512) for n in (5, 30, 48)]


def _strings(values):
    return sorted([mp.nstr(to_mp(z.real), 30), mp.nstr(to_mp(z.imag), 30)]
                  for z in values)


def digest(n, bits):
    rep = singularity_report(n, bits)
    doc = {
        "roots": _strings(rep.all_roots),
        "dominant": _strings(rep.dominant),
        "gamma": _strings(rep.gammas),
        "radius": mp.nstr(to_mp(rep.radius), 30),
        "branch_flipped": rep.branch_flipped,
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("n, bits", CASES, ids=lambda v: str(v))
def test_root_set_unchanged(n, bits):
    with open(DIGESTS) as fh:
        recorded = json.load(fh)
    assert digest(n, bits) == recorded[f"{n}@{bits}"]


if __name__ == "__main__":
    before = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    entries = {f"{n}@{bits}": digest(n, bits) for n, bits in CASES}
    for key, new in entries.items():
        if before.get(key) != new:
            sys.stdout.write(f"{key}: {before.get(key, 'new')} -> {new}\n")
    DIGESTS.write_text(json.dumps(entries, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(entries)} digests to {DIGESTS}\n")
