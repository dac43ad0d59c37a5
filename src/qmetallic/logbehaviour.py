"""Log-convexity / log-concavity experiments on the coefficient tables.

For a sequence (x_l) put D_l = x_{l-1} x_{l+1} - x_l^2.  The sequence is
log-convex on a range when every D_l there is >= 0, log-concave when <= 0;
zeros sit on the boundary and are compatible with both.  All comparisons
are exact big-integer arithmetic, no floats.

classify() reports the empirical behaviour of (kappa_l) for one metallic
index: the largest suffix of constant D-sign, its start ("onset"), and a
capped sample of earlier violations.  The onset is data, not a theorem.
"""

from fractions import Fraction
from typing import Optional

from .metallic import CheckResult, _check_n, kappa_values
from .record import record
from .rna import rna_recurrence

CLASSIFICATIONS = ("log-convex", "log-concave", "mixed", "undetermined")

# suffix shorter than l_max / MIXED_FRACTION counts as no stable behaviour
MIXED_FRACTION = 4
VIOLATION_CAP = 32


@record
class LogReport:
    """Empirical log-behaviour of one coefficient sequence."""

    n: int
    l_range: tuple
    onset: Optional[int]
    classification: str
    violation_indices: tuple
    first_positive: Optional[int] = None
    first_negative: Optional[int] = None

    def __post_init__(self):
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(
                f"unknown classification {self.classification!r}")
        if (self.onset is None) != (
                self.classification in ("mixed", "undetermined")):
            raise ValueError("an onset is given exactly when the "
                             "classification is neither mixed nor undetermined")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "l_range": list(self.l_range),
            "onset": self.onset,
            "classification": self.classification,
            "violation_indices": list(self.violation_indices),
            "first_positive": self.first_positive,
            "first_negative": self.first_negative,
        }


def second_differences(values, l_min: int, l_max: int) -> dict:
    """D_l = x_{l-1} x_{l+1} - x_l^2 for l_min <= l <= l_max - 1, exact."""
    if l_min < 1 or len(values) <= l_max:
        raise ValueError("need l_min >= 1 and more than l_max values")
    return {l: values[l - 1] * values[l + 1] - values[l] * values[l]
            for l in range(l_min, l_max)}


def _suffix_onset(D: dict, l_min: int, l_top: int):
    """Start of the largest constant-sign suffix of D on [l_min, l_top].

    Returns (onset, sign) where sign is +1 / -1 from the last nonzero
    entry, or (l_min, 0) when every entry is zero.
    """
    sign = 0
    onset = l_min
    for l in range(l_top, l_min - 1, -1):
        d = D[l]
        if d == 0:
            continue
        s = 1 if d > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            onset = l + 1
            break
    return onset, sign


def classify(n: int, l_max: int) -> LogReport:
    """Classify (kappa_l(phi_n)) on [1, l_max] by exact sign inspection."""
    n = _check_n(n)
    if l_max < 2 * n + 4:
        raise ValueError("need l_max >= 2n + 4")
    values = kappa_values(n, l_max + 1)
    l_top = l_max - 1
    D = second_differences(values, 1, l_max)

    first_pos = next((l for l in range(1, l_max) if D[l] > 0), None)
    first_neg = next((l for l in range(1, l_max) if D[l] < 0), None)

    onset, sign = _suffix_onset(D, 1, l_top)
    if sign == 0:
        return LogReport(n, (1, l_max), None, "undetermined", (),
                         first_pos, first_neg)
    if (l_max - onset) * MIXED_FRACTION < l_max:
        sample = [l for l in range(1, l_max) if D[l] > 0][:VIOLATION_CAP // 2]
        sample += [l for l in range(1, l_max) if D[l] < 0][:VIOLATION_CAP // 2]
        return LogReport(n, (1, l_max), None, "mixed", tuple(sorted(sample)),
                         first_pos, first_neg)
    tag = "log-convex" if sign > 0 else "log-concave"
    violations = [l for l in range(1, onset)
                  if (D[l] < 0 if sign > 0 else D[l] > 0)][:VIOLATION_CAP]
    return LogReport(n, (1, l_max), onset, tag, tuple(violations),
                     first_pos, first_neg)


def sign_flip_lemma_check(L: int) -> CheckResult:
    """The data premise of the sign-flip lemma on the rank-1 counts a_l.

    The lemma compares x_l = a_l with the signed y_l = (-1)^(l+1) a_l.  Two
    of its identities hold for every sequence, so they are proved here, not
    checked:
    - D_l(y) = D_l(x): y_(l-1) y_(l+1) = x_(l-1) x_(l+1), as the two signs
      multiply to (-1)^(2l+2) = 1, and y_l^2 = x_l^2;
    - y_l / y_(l-1) = -x_l / x_(l-1), as the two signs differ, so y's ratios
      fall exactly where x's rise.
    What the counts must supply is checked: on l in [6, 100] the ratios
    a_l / a_(l-1) never fall and are not all equal.
    """
    if L < 10:
        raise ValueError("need L >= 10")
    a = rna_recurrence(L + 1)  # the table sign_bridge_check(L) reads
    ratios = [Fraction(a[l], a[l - 1]) for l in range(6, min(100, L) + 1)]
    rising = all(r <= s for r, s in zip(ratios, ratios[1:]))
    if not rising or ratios[0] == ratios[-1]:
        return CheckResult(False, first_failure=6, checked_order=L,
                           label="sign_flip")
    return CheckResult(True, checked_order=L, label="sign_flip")
