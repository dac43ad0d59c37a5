"""Unit tests for the exact log-convexity / log-concavity classifier."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from qmetallic import logbehaviour
from qmetallic.logbehaviour import (
    CLASSIFICATIONS,
    LogReport,
    MIXED_FRACTION,
    VIOLATION_CAP,
    classify,
    second_differences,
    sign_flip_lemma_check,
)
from qmetallic.metallic import kappa_values
from qmetallic.rna import rna_recurrence

ROOT = Path(__file__).resolve().parent.parent


def test_second_differences_hand_values():
    kv = kappa_values(1, 10)
    D = second_differences(kv, 1, 9)
    assert D == {1: 1, 2: -1, 3: 1, 4: 0, 5: 0, 6: 4, 7: 7, 8: 25}


def test_second_differences_preconditions():
    with pytest.raises(ValueError):
        second_differences([1, 2, 3], 0, 2)
    with pytest.raises(ValueError):
        second_differences([1, 2, 3], 1, 5)


def test_classify_golden_index():
    rep = classify(1, 200)
    assert rep.classification == "log-convex"
    assert rep.onset == 3
    assert rep.violation_indices == (2,)
    assert rep.first_positive == 1 and rep.first_negative == 2
    assert rep.l_range == (1, 200)


def test_classify_silver_index():
    rep = classify(2, 200)
    assert rep.classification == "log-concave"
    assert rep.onset == 1 and rep.violation_indices == ()
    assert rep.first_positive is None


def test_classify_late_onset():
    rep = classify(6, 100)
    assert rep.classification == "log-concave"
    assert rep.onset == 27
    assert rep.violation_indices == (18, 26)


def test_classify_mixed():
    rep = classify(19, 500)
    assert rep.classification == "mixed"
    assert rep.onset is None
    assert rep.first_positive == 81 and rep.first_negative == 18
    assert len(rep.violation_indices) <= VIOLATION_CAP
    assert 18 in rep.violation_indices and 81 in rep.violation_indices


def test_classify_precondition():
    with pytest.raises(ValueError):
        classify(3, 9)          # needs l_max >= 2n + 4


def test_report_validation():
    with pytest.raises(ValueError, match="unknown classification"):
        LogReport(1, (1, 10), 5, "parabolic", ())
    with pytest.raises(ValueError, match="onset"):
        LogReport(1, (1, 10), 5, "mixed", ())      # mixed must have no onset
    with pytest.raises(ValueError, match="onset"):
        LogReport(1, (1, 10), None, "log-convex", ())


def test_report_validation_survives_python_O():
    # the checks are raises, not asserts, so -O does not strip them
    probe = ("from qmetallic.logbehaviour import LogReport\n"
             "try:\n"
             "    LogReport(1, (1, 2), 1, 'bent', ())\n"
             "except ValueError as exc:\n"
             "    print('ValueError:', exc)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ValueError: unknown classification 'bent'")


def test_report_to_json():
    d = classify(1, 60).to_json()
    assert d["classification"] == "log-convex"
    assert d["l_range"] == [1, 60] and d["onset"] == 3
    assert set(d) == {"n", "l_range", "onset", "classification",
                      "violation_indices", "first_positive",
                      "first_negative"}


def test_classification_inventory():
    assert CLASSIFICATIONS == ("log-convex", "log-concave", "mixed",
                               "undetermined")
    assert MIXED_FRACTION == 4


def test_sign_flip_lemma():
    res = sign_flip_lemma_check(200)
    assert res and res.checked_order == 200 and res.label == "sign_flip"


def test_sign_flip_lemma_precondition():
    with pytest.raises(ValueError):
        sign_flip_lemma_check(9)


def _counts_with_dip(m):
    a = rna_recurrence(m)
    a[50] = a[49]                       # a_50/a_49 = 1 dips below a_49/a_48
    return a


def _geometric(m):
    return [3 ** i for i in range(m)]   # every ratio a_l/a_(l-1) is 3


@pytest.mark.parametrize("counts", [_counts_with_dip, _geometric],
                         ids=["ratio-dip", "geometric"])
def test_sign_flip_lemma_fails_without_rising_ratios(counts, monkeypatch):
    monkeypatch.setattr(logbehaviour, "rna_recurrence", counts)
    res = sign_flip_lemma_check(200)
    assert not res and res.first_failure == 6 and res.checked_order == 200
