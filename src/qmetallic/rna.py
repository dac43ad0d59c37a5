"""Noncrossing partial matchings with a span constraint, and their bridge
to the deformed golden-ratio coefficients.

A structure on positions 1..l is a set of arcs (a, b), a < b, such that no
two arcs cross or share an endpoint and every arc spans more than `rank`
positions (b - a > rank).  With rank 1 the counts a_l form the classical
"generalized Catalan" sequence 1, 1, 1, 2, 4, 8, 17, 37, ...; the deformed
golden-ratio coefficients recover them up to sign via

    kappa_l = (-1)^l a_{l-1}   for l >= 2.

Rank 0 gives the Motzkin numbers.  For larger trace the analogous count
diverges from the coefficient sequence almost immediately; the module pins
down the first disagreement.  Every count comes from one dynamic programme,
`_count_table`; recurrences, closed forms, generation and brute force check it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import BudgetExceeded, NonIntegralResult
from .metallic import CheckResult, closed_form_golden, kappa_values, phi_series
from .series import LaurentSeries, _square_sum

ENUMERATION_BUDGET = 22
_BRUTE_BUDGET = 10


def _check_args(length: int, rank: int) -> tuple:
    length, rank = int(length), int(rank)
    if length < 0:
        raise ValueError("length must be >= 0")
    if rank < 0:
        raise ValueError("rank must be >= 0")
    return length, rank


def _check_budget(length: int, what: str = "enumeration") -> None:
    if length > ENUMERATION_BUDGET:
        raise BudgetExceeded(
            f"structure {what} capped at {ENUMERATION_BUDGET} positions"
        )


@lru_cache(maxsize=1)
def _count_table(length: int, rank: int) -> tuple:
    """Counts for 0..length positions (immutable, so shared)."""
    f = [1] * (length + 1)
    for m in range(1, length + 1):
        # last position unpaired, or paired with a, m - a > rank, which
        # splits inside/outside: sum_(a < m - rank) f_(a-1) f_(m-a-1), that
        # is sum_(i <= k - rank) f_i f_(k-i), k = m - 2, the symmetric half
        # rank <= i <= k - rank at half the products plus the rank outer
        # terms i < rank
        k = m - 2
        f[m] = f[m - 1] + _square_sum(f, k, rank) + sum(
            f[i] * f[k - i] for i in range(min(rank, k - rank + 1)))
    return tuple(f)


def count_structures(length: int, rank: int = 1) -> int:
    """Number of structures on `length` positions with span > rank."""
    length, rank = _check_args(length, rank)
    return _count_table(length, rank)[length]


def count_grid(max_size: int, max_rank: int) -> list:
    """(l, rank, count) for 1 <= l <= max_size and 0 <= rank <= max_rank,
    l outermost, read from one counting table per rank."""
    max_size, max_rank = _check_args(max_size, max_rank)
    tables = [_count_table(max_size, r) for r in range(max_rank + 1)]
    return [(l, r, t[l]) for l in range(1, max_size + 1)
            for r, t in enumerate(tables)]


def enumerate_structures(length: int, rank: int = 1) -> int:
    """count_structures, budgeted like the generator it certifies."""
    _check_budget(int(length))
    return count_structures(length, rank)


def generate_structures(length: int, rank: int = 1) -> list:
    """All structures explicitly, as sorted tuples of 1-based arcs (a, b).
    Exponential; kept as a second counting oracle for small sizes."""
    length, rank = _check_args(length, rank)
    _check_budget(length)
    memo: dict = {}

    def rec(lo: int, hi: int) -> list:
        if lo > hi:
            return [()]
        key = (lo, hi)
        got = memo.get(key)
        if got is not None:
            return got
        out = list(rec(lo, hi - 1))  # hi unpaired
        for a in range(lo, hi - rank):
            for outside in rec(lo, a - 1):
                for inside in rec(a + 1, hi - 1):
                    out.append(outside + inside + ((a, hi),))
        memo[key] = out
        return out

    return sorted(tuple(sorted(s)) for s in rec(1, length))


def _brute_structures(length: int, rank: int) -> list:
    """Independent oracle: filter every subset of candidate arcs."""
    if length > _BRUTE_BUDGET:
        raise BudgetExceeded(
            f"brute-force oracle capped at {_BRUTE_BUDGET} positions")
    arcs = [
        (a, b)
        for a in range(1, length + 1)
        for b in range(a + rank + 1, length + 1)
    ]

    def compatible(x, y) -> bool:
        a, b = x
        c, d = y
        if len({a, b, c, d}) < 4:
            return False
        return not (a < c < b < d or c < a < d < b)

    out = []
    for k in range(len(arcs) + 1):
        for sub in combinations(arcs, k):
            if all(compatible(x, y) for x, y in combinations(sub, 2)):
                out.append(tuple(sorted(sub)))
        if k and not any(len(s) == k for s in out):
            break  # no matching of size k exists, none bigger will
    return sorted(out)


# -- the rank-1 sequence ----------------------------------------------------------


def rna_recurrence(L: int) -> list:
    """a_0..a_{L-1}, read from the counting table."""
    return list(_count_table(L - 1, 1)) if L > 0 else []


def rna_p_recurrence_check(L: int) -> CheckResult:
    """Check (l+2)a_l - (2l+1)a_{l-1} - (l-1)a_{l-2} - (2l-5)a_{l-3}
    + (l-4)a_{l-4} == 0 for 4 <= l < L."""
    a = rna_recurrence(L)
    for l in range(4, L):
        s = (
            (l + 2) * a[l]
            - (2 * l + 1) * a[l - 1]
            - (l - 1) * a[l - 2]
            - (2 * l - 5) * a[l - 3]
            + (l - 4) * a[l - 4]
        )
        if s != 0:
            return CheckResult(False, l, L, "rna-p-recurrence")
    return CheckResult(True, None, L, "rna-p-recurrence")


def rna_closed_form(l: int) -> int:
    """The Narayana-style sum of the n = 1 coefficients, read through the
    bridge: a_l = (-1)^(l+1) kappa_{l+1}."""
    if l < 0:
        raise ValueError("negative index")
    if l < 2:
        return 1
    return (-1) ** (l + 1) * closed_form_golden(l + 1)


def motzkin_values(L: int) -> list:
    """Motzkin numbers M_0..M_{L-1} by the holonomic recurrence
    (k+2) M_k = (2k+1) M_{k-1} + (3k-3) M_{k-2}."""
    m = [1, 1][:max(L, 0)]
    for k in range(2, L):
        num = (2 * k + 1) * m[k - 1] + (3 * k - 3) * m[k - 2]
        value, rem = divmod(num, k + 2)
        if rem:
            raise NonIntegralResult(f"Motzkin at {k}: {num}/{k + 2}")
        m.append(value)
    return m


# -- bridge to the deformed golden ratio -------------------------------------------


def sign_bridge_check(L: int) -> CheckResult:
    """The series statement F(q) = 1 + q - q A(-q), A(q) = sum a_l q^l,
    through q^(L-1): kappa_l = (-1)^l a_{l-1} for l >= 2."""
    a = _count_table(L, 1)  # the table sign_flip_lemma_check(L) reads
    # q A(-q) modulo q^(L+1); the comparison stops at F's order L
    q_a_neg = LaurentSeries(1, [-c if k % 2 else c
                                for k, c in enumerate(a[:L])], L + 1)
    fail = phi_series(1, L).first_mismatch(LaurentSeries(0, [1, 1]) - q_a_neg)
    return CheckResult(fail is None, fail, L, "sign-bridge")


def family_divergence(L: int) -> int | None:
    """First l in [1, L) where the rank-2 count differs from the silver
    coefficient pattern |kappa_{l+1}| that works at rank 1.  None if the
    families agree on the whole window."""
    _check_budget(L, "counting")
    kv = kappa_values(2, L + 1)
    f = _count_table(L, 2)
    return next((l for l in range(1, L) if f[l] != abs(kv[l + 1])), None)
